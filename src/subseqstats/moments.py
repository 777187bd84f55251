"""Exact first and second moments of the subsequence occurrence count.

For text length n and pattern length m the count Z has mean
C(n, m) * p_w.  Its variance is dominated by the linear projection term
sigma_1^2 = sum_i tau_i^2, where tau_i^2 measures how much letter i of
the text moves the normalized count.  Everything here reduces to the
coefficients c(i, j) = C(i-1, j-1) * C(n-i, m-j), the number of
occurrence slots that place pattern position j at text position i.
Normalizing a row of those coefficients by C(n-1, m-1) gives a
hypergeometric-type occupancy law pi(i, .), which is what the stable
float route evaluates: ``occupancy_rows`` builds a block of such rows at
once, and sigma_1^2 and the random-pattern average are sums over those
blocks.  Exact rational companions cover moderate n as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .counting import _TILE_CELLS
from .lognum import LogNum
from .source_model import Pattern, SourceDist, proportion_distance

# exact rational companions are supported up to this text length
EXACT_N_LIMIT = 500

# m^2 C(n-1, m-1)^2 / sigma_1^2 threshold for calling the normal regime
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
    """E[Z] = C(n, m) * p_w in log space, with p_w taken from ``dist``."""
    _check_pair(dist, pattern, n)
    return log_binomial(n, pattern.length) * LogNum.from_ln(dist.ln_prob(pattern.word))


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


def occupancy_rows(n: int, m: int, i_lo: int, i_hi: int) -> np.ndarray:
    """Occupancy rows pi(i, 1..m) = c(i, .) / C(n-1, m-1) for i = i_lo..i_hi.

    Row i is evaluated outward from its mode j0 through the ratio
    recurrence pi(i, j+1)/pi(i, j) = (i-j)(m-j) / (j (n-i-m+j+1)), as
    one cumulative product upward and one downward, then normalized, so
    no binomial is ever formed and underflow in the tails is benign.
    Ratios outside a row's support [lo, hi] are 1.0, which leaves the
    product order of a per-row loop unchanged, and are masked to 0 after.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if not (1 <= i_lo <= i_hi <= n):
        raise ValueError("need 1 <= i_lo <= i_hi <= n")
    i = np.arange(i_lo, i_hi + 1, dtype=np.int64)[:, None]
    s = np.arange(1, m + 1, dtype=np.int64)
    lo = np.maximum(1, m - (n - i))
    hi = np.minimum(i, m)
    j0 = np.clip(-((-i * m) // (n + 1)), lo, hi)  # ceil(i m / (n+1))
    # pi(i, s) / pi(i, s-1) above the mode, pi(i, s) / pi(i, s+1) below it;
    # masked before dividing so no zero or negative denominator is formed
    up_ok = (s > j0) & (s <= hi)
    up = np.where(up_ok, (i - s + 1) * (m - s + 1), 1) / np.where(up_ok, (s - 1) * (n - i - m + s), 1)
    dn_ok = (s >= lo) & (s < j0)
    dn = np.where(dn_ok, s * (n - i - m + s + 1), 1) / np.where(dn_ok, (i - s) * (m - s), 1)
    rows = np.where(s >= j0, np.cumprod(up, axis=1), np.cumprod(dn[:, ::-1], axis=1)[:, ::-1])
    rows = np.where((s >= lo) & (s <= hi), rows, 0.0)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _tau_sq_block(dist: SourceDist, pattern: Pattern, n: int, i_lo: int, i_hi: int) -> np.ndarray:
    """tau_i^2 / C(n-1, m-1)^2 = sum_a S_a^2 / p_a - 1 for i = i_lo..i_hi.

    S_a sums row i over the pattern slots that use letter a, in slot
    order.  Values are clamped at tiny negatives; one below -1e-9 means
    the occupancy row lost too much precision and raises instead.
    """
    rows = occupancy_rows(n, pattern.length, i_lo, i_hi)
    word = np.asarray(pattern.word)
    sums = np.zeros((rows.shape[0], pattern.alphabet.size))
    for a in np.unique(word):
        sums[:, a] = np.cumsum(rows[:, word == a], axis=1)[:, -1]
    r = np.sum(sums * sums / np.asarray(dist.probs), axis=1) - 1.0
    bad = np.flatnonzero(r < -1e-9)
    if bad.size:
        raise ArithmeticError(
            f"normalized tau^2 at i={i_lo + bad[0]} came out {r[bad[0]]}, below the -1e-9 guard"
        )
    return np.maximum(r, 0.0)


def _check_pair(dist: SourceDist, pattern: Pattern, n: int) -> None:
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")


def tau_sq(i: int, dist: SourceDist, pattern: Pattern, n: int) -> LogNum:
    """Variance contribution of text position i to the linear term."""
    _check_pair(dist, pattern, n)
    r = float(_tau_sq_block(dist, pattern, n, i, i)[0])
    return LogNum.from_float(r) * log_binomial(n - 1, pattern.length - 1).pow_int(2)


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
    """sigma_1^2 / C(n-1, m-1)^2 as a plain float.

    Rows are built in blocks of about ``_TILE_CELLS`` entries; the
    per-position values are then added left to right by ``sum``, in the
    same order whatever the block size.
    """
    step = max(1, _TILE_CELLS // pattern.length)
    values = []
    for i_lo in range(1, n + 1, step):
        values += _tau_sq_block(dist, pattern, n, i_lo, min(i_lo + step - 1, n)).tolist()
    return float(sum(values))


def sigma1_sq(dist: SourceDist, pattern: Pattern, n: int) -> LogNum:
    """Variance of the linear projection term, sum over i of tau_i^2."""
    _check_pair(dist, pattern, n)
    total = sigma1_sq_normalized(dist, pattern, n)
    return LogNum.from_float(total) * log_binomial(n - 1, pattern.length - 1).pow_int(2)


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


def random_pattern_expected_sigma1(dist: SourceDist, n: int, m: int) -> float:
    """Average of sigma_1^2 / C(n-1, m-1)^2 over patterns of m i.i.d. letters.

    Averaging tau_i^2 over the pattern collapses to
    A_1 * sum_{i,j} pi(i,j)^2 with A_1 = sum_a (1 - p_a).  The occupancy
    matrix is one block of n rows, so the double sum is one numpy sum
    over all of its entries.
    """
    rows = occupancy_rows(n, m, 1, n)
    a1 = float(sum(p * (1.0 / p - 1.0) for p in dist.probs))
    return a1 * float((rows * rows).sum())


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


def moment_report(dist: SourceDist, pattern: Pattern, n: int) -> MomentReport:
    """Assemble the moment summary used by the CLI and the experiment gates.

    regime_hint is "normal_proved" when m^2 C(n-1, m-1)^2 / sigma_1^2 is at
    most NORMAL_RATIO_THRESHOLD, since then the residual bound forces the
    count to be asymptotically normal; otherwise "unresolved".
    """
    _check_pair(dist, pattern, n)
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
        regime_hint="normal_proved" if ratio <= NORMAL_RATIO_THRESHOLD else "unresolved",
    )
