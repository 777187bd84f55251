"""Exact first and second moments of the subsequence occurrence count.

For text length n and pattern length m the count Z has mean
C(n, m) * p_w.  Its variance is dominated by the linear projection term
sigma_1^2 = sum_i tau_i^2, where tau_i^2 measures how much letter i of
the text moves the normalized count.  Everything here reduces to the
coefficients c(i, j) = C(i-1, j-1) * C(n-i, m-j), the number of
occurrence slots that place pattern position j at text position i.
Normalizing a row of those coefficients by C(n-1, m-1) gives a
hypergeometric-type occupancy law pi(i, .), which is what the stable
float route evaluates; exact rational companions cover moderate n as
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lognum import LogNum
from .source_model import Pattern, SourceDist, proportion_distance

# exact rational companions are supported up to this text length
EXACT_N_LIMIT = 500

# default m^2 C(n-1, m-1)^2 / sigma_1^2 threshold for calling the normal regime
NORMAL_RATIO_THRESHOLD = 0.01


def log_binomial(n: int, k: int) -> LogNum:
    """C(n, k) in log space; zero for k outside [0, n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return LogNum.zero()
    ln = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return LogNum.from_ln(ln)


def binomial_exact(n: int, k: int) -> int:
    """Big-integer companion of log_binomial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _require_exact_range(n: int) -> None:
    if n > EXACT_N_LIMIT:
        raise ValueError(f"exact rational route supports n <= {EXACT_N_LIMIT}, got {n}")


def expected_count(dist: SourceDist, pattern: Pattern, n: int) -> LogNum:
    """E[Z] = C(n, m) * p_w in log space."""
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    return log_binomial(n, pattern.length) * LogNum.from_ln(pattern.log_pw)


def expected_count_exact(dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational E[Z] for moderate n."""
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    _require_exact_range(n)
    probs = dist.rational_probs()
    pw = Fraction(1)
    for j in pattern.word:
        pw *= probs[j]
    return math.comb(n, pattern.length) * pw


def coeff_c_exact(i: int, j: int, n: int, m: int) -> int:
    """Number of occurrence slots pairing text position i with pattern slot j."""
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if not (1 <= i <= n):
        raise ValueError("text position i out of range")
    if not (1 <= j <= m):
        raise ValueError("pattern position j out of range")
    return binomial_exact(i - 1, j - 1) * binomial_exact(n - i, m - j)


def pi_row(i: int, n: int, m: int) -> np.ndarray:
    """Occupancy row pi(i, 1..m) = c(i, .) / C(n-1, m-1) as a float array.

    Evaluated outward from the mode through the ratio recurrence
    pi(i, j+1)/pi(i, j) = (i-j)(m-j) / (j (n-i-m+j+1)), then normalized,
    so no binomial is ever formed and underflow in the tails is benign.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if not (1 <= i <= n):
        raise ValueError("text position i out of range")
    lo = max(1, m - (n - i))
    hi = min(i, m)
    j0 = -((-i * m) // (n + 1))  # ceil(i m / (n+1))
    j0 = min(max(j0, lo), hi)
    row = np.zeros(m)
    row[j0 - 1] = 1.0
    val = 1.0
    for j in range(j0, hi):
        val *= (i - j) * (m - j) / (j * (n - i - m + j + 1))
        row[j] = val
    val = 1.0
    for j in range(j0 - 1, lo - 1, -1):
        val *= j * (n - i - m + j + 1) / ((i - j) * (m - j))
        row[j - 1] = val
    row /= row.sum()
    return row


def _letter_weight_sums(pattern: Pattern, row: np.ndarray) -> np.ndarray:
    """Per-symbol sums S_a = sum of row entries over pattern slots using a."""
    sums = np.zeros(pattern.alphabet.size)
    np.add.at(sums, np.asarray(pattern.word), row)
    return sums


def tau_sq_normalized(i: int, dist: SourceDist, pattern: Pattern, n: int) -> float:
    """tau_i^2 / C(n-1, m-1)^2 = sum_a S_a^2 / p_a - 1, clamped at tiny negatives.

    A value below -1e-9 means the occupancy row lost too much precision
    and is reported as an error rather than clamped.
    """
    row = pi_row(i, n, pattern.length)
    sums = _letter_weight_sums(pattern, row)
    r = float(np.sum(sums * sums / np.asarray(dist.probs)) - 1.0)
    if r < -1e-9:
        raise ArithmeticError(
            f"normalized tau^2 at i={i} came out {r}, below the -1e-9 guard"
        )
    return max(r, 0.0)


def tau_sq(
    i: int, dist: SourceDist, pattern: Pattern, n: int, arithmetic: str = "stable-float"
) -> LogNum:
    """Variance contribution of text position i to the linear term."""
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    if arithmetic == "stable-float":
        r = tau_sq_normalized(i, dist, pattern, n)
        scale = log_binomial(n - 1, pattern.length - 1).pow_int(2)
        return LogNum.from_float(r) * scale
    if arithmetic == "exact":
        return LogNum.from_fraction(tau_sq_exact(i, dist, pattern, n))
    raise ValueError(f"unknown arithmetic {arithmetic!r}")


def tau_sq_exact(i: int, dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational tau_i^2 for moderate n."""
    _require_exact_range(n)
    m = pattern.length
    if n < m:
        raise ValueError("text length n must be at least the pattern length")
    probs = dist.rational_probs()
    sums = [0] * dist.alphabet.size
    for j in range(1, m + 1):
        sums[pattern.word[j - 1]] += coeff_c_exact(i, j, n, m)
    total = sum(Fraction(s * s, 1) / p for s, p in zip(sums, probs))
    return total - Fraction(math.comb(n - 1, m - 1)) ** 2


@lru_cache(maxsize=64)
def sigma1_sq_normalized(dist: SourceDist, pattern: Pattern, n: int) -> float:
    """sigma_1^2 / C(n-1, m-1)^2 as a plain float."""
    return float(
        sum(tau_sq_normalized(i, dist, pattern, n) for i in range(1, n + 1))
    )


def sigma1_sq(
    dist: SourceDist, pattern: Pattern, n: int, arithmetic: str = "stable-float"
) -> LogNum:
    """Variance of the linear projection term, sum over i of tau_i^2."""
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    if arithmetic == "stable-float":
        total = sigma1_sq_normalized(dist, pattern, n)
        scale = log_binomial(n - 1, pattern.length - 1).pow_int(2)
        return LogNum.from_float(total) * scale
    if arithmetic == "exact":
        return LogNum.from_fraction(sigma1_sq_exact(dist, pattern, n))
    raise ValueError(f"unknown arithmetic {arithmetic!r}")


def sigma1_sq_exact(dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational sigma_1^2 for moderate n."""
    _require_exact_range(n)
    return sum(
        (tau_sq_exact(i, dist, pattern, n) for i in range(1, n + 1)), Fraction(0)
    )


def xi_bound(ell: int, dist: SourceDist, n: int, m: int) -> LogNum:
    """Upper bound B^ell C(n, ell) C(n-ell, m-ell)^2 on the level-ell variance."""
    if not (1 <= ell <= m <= n):
        raise ValueError("need 1 <= ell <= m <= n")
    b = dist.b_const
    return (
        LogNum.from_ln(ell * math.log(b))
        * log_binomial(n, ell)
        * log_binomial(n - ell, m - ell).pow_int(2)
    )


@dataclass(frozen=True)
class ResidualBound:
    """Bound on the variance beyond the linear term, with its applicability.

    The closed form B^2 m^2 C(n-1, m-1)^2 only dominates the residual when
    m <= sqrt(n / B); outside that region the value is still reported but
    flagged as not applicable.
    """

    value: LogNum
    applicable: bool


def residual_bound(dist: SourceDist, n: int, m: int) -> ResidualBound:
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    b = dist.b_const
    value = LogNum.from_float(b * b * m * m) * log_binomial(n - 1, m - 1).pow_int(2)
    return ResidualBound(value, applicable=(m * m * b <= n))


def lk_lower_bound(dist: SourceDist, pattern: Pattern, n: int) -> LogNum:
    """Lower bound n ||q - p||^2 C(n-1, m-1)^2 on sigma_1^2.

    q is the vector of pattern letter proportions; the bound vanishes
    exactly when the pattern uses letters in the source proportions.
    """
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    d = proportion_distance(pattern, dist)
    if d == 0.0:
        return LogNum.zero()
    return (
        LogNum.from_float(n * d * d)
        * log_binomial(n - 1, pattern.length - 1).pow_int(2)
    )


def alternating_tau_int(i: int, n: int, m: int) -> int:
    """Signed slot sum sum_j (-1)^(j-1) c(i, j) for the alternating pattern.

    For the pattern 0101... under a uniform binary source this is tau_i
    up to the sign of the letter at i; exact integers avoid the massive
    cancellation between adjacent slots.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if not (1 <= i <= n):
        raise ValueError("text position i out of range")
    total = 0
    sign = 1
    for j in range(1, m + 1):
        total += sign * coeff_c_exact(i, j, n, m)
        sign = -sign
    return total


def hg_sign_bias(n: int, k: int, l: int) -> tuple[float, float]:
    """(E[(-1)^X], exp(-2 Var X)) for X hypergeometric with k marked of n, l drawn.

    The second entry is the proven upper bound on |E[(-1)^X]|; the
    variance is k(n-k) l(n-l) / (n^2 (n-1)).
    """
    if n < 0 or not (0 <= k <= n) or not (0 <= l <= n):
        raise ValueError("need 0 <= k <= n and 0 <= l <= n")
    num = 0
    for x in range(max(0, l - (n - k)), min(k, l) + 1):
        num += (-1) ** x * math.comb(k, x) * math.comb(n - k, l - x)
    bias = float(Fraction(num, math.comb(n, l)))
    if n <= 1:
        var = 0.0
    else:
        var = k * (n - k) * l * (n - l) / (n * n * (n - 1))
    return bias, math.exp(-2.0 * var)


@dataclass(frozen=True)
class RandomPatternSigma:
    """E over uniformly random patterns of sigma_1^2, plus its scale ratio.

    ``ratio_to_scale`` divides the normalized value by n / sqrt(m), the
    growth rate it is expected to track.
    """

    value: LogNum
    ratio_to_scale: float


def random_pattern_expected_sigma1(dist: SourceDist, n: int, m: int) -> RandomPatternSigma:
    """Average sigma_1^2 when the m pattern letters are drawn i.i.d. from dist.

    Averaging tau_i^2 over the pattern collapses to
    A_1 * C(n-1, m-1)^2 * sum_{i,j} pi(i,j)^2 with A_1 = sum_a (1 - p_a).
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    a1 = float(sum(p * (1.0 / p - 1.0) for p in dist.probs))
    pi_sq = 0.0
    for i in range(1, n + 1):
        row = pi_row(i, n, m)
        pi_sq += float(np.dot(row, row))
    value = LogNum.from_float(a1 * pi_sq) * log_binomial(n - 1, m - 1).pow_int(2)
    return RandomPatternSigma(value, a1 * pi_sq / (n / math.sqrt(m)))


@dataclass(frozen=True)
class MomentReport:
    """Moment summary for one (source, pattern, n) instance."""

    n: int
    m: int
    pattern: str
    alphabet: str
    probs: tuple[float, ...]
    expected: LogNum
    sigma1_sq: LogNum
    xi1_bound: LogNum
    residual: ResidualBound
    lk_lower: LogNum
    ratio_condition: float
    regime_hint: str

    def to_dict(self) -> dict:
        def pair(v: LogNum) -> dict:
            return {"sign": v.sign, "ln_abs": v.ln_abs if v.sign != 0 else None}

        return {
            "n": self.n,
            "m": self.m,
            "pattern": self.pattern,
            "alphabet": self.alphabet,
            "probs": list(self.probs),
            "expected": pair(self.expected),
            "sigma1_sq": pair(self.sigma1_sq),
            "xi1_bound": pair(self.xi1_bound),
            "residual_bound": pair(self.residual.value) | {"applicable": self.residual.applicable},
            "lk_lower_bound": pair(self.lk_lower),
            "ratio_condition": self.ratio_condition,
            "regime_hint": self.regime_hint,
        }


def moment_report(
    dist: SourceDist,
    pattern: Pattern,
    n: int,
    normal_ratio_threshold: float = NORMAL_RATIO_THRESHOLD,
) -> MomentReport:
    """Assemble the moment summary used by the CLI and the experiment gates.

    regime_hint is "normal_proved" when m^2 C(n-1, m-1)^2 / sigma_1^2 is at
    most the threshold, since then the residual bound forces the count to
    be asymptotically normal; otherwise "unresolved".
    """
    m = pattern.length
    s1n = sigma1_sq_normalized(dist, pattern, n)
    scale = log_binomial(n - 1, m - 1).pow_int(2)
    ratio = (m * m / s1n) if s1n > 0.0 else math.inf
    return MomentReport(
        n=n,
        m=m,
        pattern=pattern.to_string(),
        alphabet="".join(dist.alphabet.symbols),
        probs=dist.probs,
        expected=expected_count(dist, pattern, n),
        sigma1_sq=LogNum.from_float(s1n) * scale,
        xi1_bound=xi_bound(1, dist, n, m),
        residual=residual_bound(dist, n, m),
        lk_lower=lk_lower_bound(dist, pattern, n),
        ratio_condition=ratio,
        regime_hint="normal_proved" if ratio <= normal_ratio_threshold else "unresolved",
    )
