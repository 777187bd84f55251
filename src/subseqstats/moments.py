"""Exact first and second moments of the subsequence occurrence count.

For text length n and pattern length m the count Z has mean
C(n, m) * p_w.  Its variance is dominated by the linear projection term
sigma_1^2 = sum_i tau_i^2, where tau_i^2 measures how much letter i of
the text moves the normalized count.  Everything here reduces to the
coefficients c(i, j) = C(i-1, j-1) * C(n-i, m-j), the number of
occurrence slots that place pattern position j at text position i.
Normalizing a row of those coefficients by C(n-1, m-1) gives a
hypergeometric-type occupancy law pi(i, .), which is what the stable
float route evaluates: ``occupancy_rows`` fills any range of such rows
from thin cache-sized blocks, each row multiplied outward from its mode
and each side of it formed only where the block uses it, and sigma_1^2
and the random-pattern average are sums over those rows.  Exact rational
companions cover moderate n as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .source_model import Pattern, SourceDist, left_sum, proportion_distance

# exact rational companions are supported up to this text length
EXACT_N_LIMIT = 500

# m^2 C(n-1, m-1)^2 / sigma_1^2 threshold for calling the normal regime
NORMAL_RATIO_THRESHOLD = 0.01

# occupancy rows are built in blocks of about this many cells, which stay in cache
_BLOCK_CELLS = 2**14


def _ln(x: float) -> float:
    """ln x for x >= 0, -inf for zero."""
    return -math.inf if x == 0.0 else math.log(x)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); -inf for k outside [0, n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


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


def expected_count(dist: SourceDist, pattern: Pattern, n: int) -> float:
    """ln E[Z] = ln C(n, m) + ln p_w, with p_w taken from ``dist``."""
    _check_pair(dist, pattern, n)
    return log_binomial(n, pattern.length) + dist.ln_prob(pattern.word)


def expected_count_exact(dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational E[Z] for moderate n."""
    _check_pair(dist, pattern, n)
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

    Row i is evaluated outward from its mode j0 = ceil(i m / (n+1))
    through the ratio recurrence pi(i, j+1)/pi(i, j) = (i-j)(m-j) /
    (j (n-i-m+j+1)), as one cumulative product upward and one downward,
    then normalized by its own sum, so no binomial is ever formed and
    underflow in the tails is benign.  The range is filled in thin
    blocks of about ``_BLOCK_CELLS`` entries, and a block evaluates each
    side only where some row uses it: up-ratios from the block's least
    mode on, down-ratios up to its greatest, which is about half of every
    row.  A row's values do not depend on the block it falls in.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if not (1 <= i_lo <= i_hi <= n):
        raise ValueError("need 1 <= i_lo <= i_hi <= n")
    rows = np.empty((i_hi - i_lo + 1, m))
    step = max(1, _BLOCK_CELLS // m)
    for r in range(0, rows.shape[0], step):
        _fill_occupancy_block(rows[r : r + step], n, m, i_lo + r)
    return rows


def _fill_occupancy_block(rows: np.ndarray, n: int, m: int, i_first: int) -> None:
    """Write the occupancy rows i = i_first.. into the C-contiguous ``rows``.

    Every factor is an integer-valued float64, exact below 2^53, and each
    ratio is one masked divide into a buffer of ones, so no masked-out
    quotient is formed.  A ratio of 1.0 leaves a row's product order
    unchanged.  Outside a row's support [max(1, m-n+i), min(i, m)] the
    numerators are clamped at 0, so the ratio that steps out of it is
    +0.0 and so is every entry beyond, with no support mask.
    """
    i_int = np.arange(i_first, i_first + rows.shape[0], dtype=np.int64)[:, None]
    # mode ceil(i m / (n+1)), kept inside the support; it rises with i
    j0_int = np.clip(-((-i_int * m) // (n + 1)), np.maximum(1, m - (n - i_int)), np.minimum(i_int, m))
    j_lo, j_hi = int(j0_int[0, 0]), int(j0_int[-1, 0])
    i = i_int.astype(np.float64)
    j0 = j0_int.astype(np.float64)
    # up side, columns j_lo..m: pi(i, s) / pi(i, s-1) for s > j0
    s = np.arange(j_lo, m + 1, dtype=np.float64)
    num = np.maximum((i + 1.0) - s, 0.0)
    num *= m + 1.0 - s
    den = ((n - m) - i) + s
    den *= s - 1.0
    up = np.ones(num.shape)
    np.divide(num, den, out=up, where=s > j0)
    np.cumprod(up, axis=1, out=up)
    # down side, columns 1..j_hi: pi(i, s) / pi(i, s+1) for s < j0
    s = np.arange(1, j_hi + 1, dtype=np.float64)
    num = np.maximum(((n - m + 1) - i) + s, 0.0)
    num *= s
    den = i - s
    den *= m - s
    dn = np.ones(num.shape)
    np.divide(num, den, out=dn, where=s < j0)
    np.cumprod(dn[:, ::-1], axis=1, out=dn[:, ::-1])
    # below j_lo only the down side is set, above j_hi only the up side;
    # between them the unused side is exactly 1.0
    rows[:, : j_lo - 1] = dn[:, : j_lo - 1]
    np.multiply(up[:, : j_hi - j_lo + 1], dn[:, j_lo - 1 :], out=rows[:, j_lo - 1 : j_hi])
    rows[:, j_hi:] = up[:, j_hi - j_lo + 1 :]
    rows /= rows.sum(axis=1, keepdims=True)


def _tau_sq_blocks(dist: SourceDist, pattern: Pattern, n: int, i_lo: int, i_hi: int):
    """Yield tau_i^2 / C(n-1, m-1)^2 = sum_a S_a^2 / p_a - 1 for i = i_lo..i_hi,
    one block of rows of about ``_BLOCK_CELLS`` entries at a time.

    S_a sums row i over the pattern slots that use letter a, in slot
    order: one vector add per slot over a transposed copy of the block
    (np.add.reduce over its first axis), or, for a block of one row, which
    numpy would sum pairwise, the last entry of a cumsum.  Values are
    clamped at tiny negatives; one below -1e-9 means the occupancy row
    lost too much precision and raises instead.
    """
    word = np.asarray(pattern.word)
    letters = np.unique(word)
    masks = [(a, None if letters.size == 1 else word == a) for a in letters]
    probs = np.asarray(dist.probs)
    step = max(1, _BLOCK_CELLS // pattern.length)
    for lo in range(i_lo, i_hi + 1, step):
        rows = occupancy_rows(n, pattern.length, lo, min(lo + step - 1, i_hi))
        sums = np.zeros((rows.shape[0], probs.size))
        by_slot = np.ascontiguousarray(rows.T)
        for a, mask in masks:
            slots = by_slot if mask is None else by_slot[mask]
            if len(rows) > 1:
                sums[:, a] = np.add.reduce(slots, axis=0)
            else:
                sums[:, a] = np.cumsum(slots, axis=0)[-1]
        r = np.sum(sums * sums / probs, axis=1) - 1.0
        bad = np.flatnonzero(r < -1e-9)
        if bad.size:
            raise ArithmeticError(
                f"normalized tau^2 at i={lo + bad[0]} came out {r[bad[0]]}, below the -1e-9 guard"
            )
        yield np.maximum(r, 0.0)


def _check_pair(dist: SourceDist, pattern: Pattern, n: int) -> None:
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")


def tau_sq(i: int, dist: SourceDist, pattern: Pattern, n: int) -> float:
    """ln of the variance contribution of text position i to the linear term."""
    _check_pair(dist, pattern, n)
    r = float(next(_tau_sq_blocks(dist, pattern, n, i, i))[0])
    return _ln(r) + log_binomial(n - 1, pattern.length - 1) * 2


def tau_sq_exact(i: int, dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational tau_i^2 for moderate n."""
    _require_exact_range(n)
    _check_pair(dist, pattern, n)
    m = pattern.length
    probs = dist.rational_probs()
    sums = [0] * dist.alphabet.size
    for j in range(1, m + 1):
        sums[pattern.word[j - 1]] += coeff_c_exact(i, j, n, m)
    total = sum(Fraction(s * s, 1) / p for s, p in zip(sums, probs))
    return total - Fraction(math.comb(n - 1, m - 1)) ** 2


@lru_cache(maxsize=64)
def sigma1_sq_normalized(dist: SourceDist, pattern: Pattern, n: int) -> float:
    """sigma_1^2 / C(n-1, m-1)^2 as a plain float.

    The per-position values of ``_tau_sq_blocks`` are added left to right,
    in the same order whatever the block size.  A mismatched pair never
    enters the cache.
    """
    _check_pair(dist, pattern, n)
    return left_sum(v for block in _tau_sq_blocks(dist, pattern, n, 1, n) for v in block.tolist())


def sigma1_sq(dist: SourceDist, pattern: Pattern, n: int) -> float:
    """ln of the variance of the linear projection term, sum over i of tau_i^2."""
    total = sigma1_sq_normalized(dist, pattern, n)
    return _ln(total) + log_binomial(n - 1, pattern.length - 1) * 2


def sigma1_sq_exact(dist: SourceDist, pattern: Pattern, n: int) -> Fraction:
    """Exact rational sigma_1^2 for moderate n."""
    _require_exact_range(n)
    return sum(
        (tau_sq_exact(i, dist, pattern, n) for i in range(1, n + 1)), Fraction(0)
    )


def xi_bound(ell: int, dist: SourceDist, n: int, m: int) -> float:
    """ln of the bound B^ell C(n, ell) C(n-ell, m-ell)^2 on the level-ell variance."""
    if not (1 <= ell <= m <= n):
        raise ValueError("need 1 <= ell <= m <= n")
    b = dist.b_const
    return ell * math.log(b) + log_binomial(n, ell) + log_binomial(n - ell, m - ell) * 2


@dataclass(frozen=True)
class ResidualBound:
    """Bound on the variance beyond the linear term, with its applicability.

    ``value`` is ln of the closed form B^2 m^2 C(n-1, m-1)^2, which only
    dominates the residual when m <= sqrt(n / B); outside that region the
    value is still reported but flagged as not applicable.
    """

    value: float
    applicable: bool


def residual_bound(dist: SourceDist, n: int, m: int) -> ResidualBound:
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    b = dist.b_const
    value = math.log(b * b * m * m) + log_binomial(n - 1, m - 1) * 2
    return ResidualBound(value, applicable=(m * m * b <= n))


def lk_lower_bound(dist: SourceDist, pattern: Pattern, n: int) -> float:
    """ln of the lower bound n ||q - p||^2 C(n-1, m-1)^2 on sigma_1^2.

    q is the vector of pattern letter proportions; the bound vanishes
    (-inf) exactly when the pattern uses letters in the source proportions.
    """
    if n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    d = proportion_distance(pattern, dist)
    return _ln(n * d * d) + log_binomial(n - 1, pattern.length - 1) * 2


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
    a1 = left_sum(p * (1.0 / p - 1.0) for p in dist.probs)
    return a1 * float((rows * rows).sum())


@dataclass(frozen=True)
class LogValue:
    """A reported log-magnitude: ``ln`` of a nonnegative value, -inf for zero."""

    ln: float

    def ln_value(self) -> float:
        return self.ln

    def to_dict(self) -> dict:
        """JSON shape {sign, ln_abs}: sign 0 and ln_abs null for zero."""
        zero = self.ln == -math.inf
        return {"sign": 0 if zero else 1, "ln_abs": None if zero else self.ln}


@dataclass(frozen=True)
class MomentReport:
    """Moment summary for one (source, pattern, n) instance."""

    n: int
    m: int
    pattern: str
    alphabet: str
    probs: tuple[float, ...]
    expected: LogValue
    sigma1_sq: LogValue
    xi1_bound: LogValue
    residual: LogValue
    residual_applicable: bool
    lk_lower: LogValue
    ratio_condition: float
    regime_hint: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pattern": self.pattern,
            "alphabet": self.alphabet,
            "probs": list(self.probs),
            "expected": self.expected.to_dict(),
            "sigma1_sq": self.sigma1_sq.to_dict(),
            "xi1_bound": self.xi1_bound.to_dict(),
            "residual_bound": self.residual.to_dict() | {"applicable": self.residual_applicable},
            "lk_lower_bound": self.lk_lower.to_dict(),
            "ratio_condition": self.ratio_condition,
            "regime_hint": self.regime_hint,
        }


def moment_report(dist: SourceDist, pattern: Pattern, n: int) -> MomentReport:
    """Assemble the moment summary used by the CLI and the experiment gates.

    regime_hint is "normal_proved" when m^2 C(n-1, m-1)^2 / sigma_1^2 is at
    most NORMAL_RATIO_THRESHOLD, since then the residual bound forces the
    count to be asymptotically normal; otherwise "unresolved".
    """
    m = pattern.length
    s1n = sigma1_sq_normalized(dist, pattern, n)
    ratio = (m * m / s1n) if s1n > 0.0 else math.inf
    residual = residual_bound(dist, n, m)
    return MomentReport(
        n=n,
        m=m,
        pattern=pattern.to_string(),
        alphabet="".join(dist.alphabet.symbols),
        probs=dist.probs,
        expected=LogValue(expected_count(dist, pattern, n)),
        sigma1_sq=LogValue(sigma1_sq(dist, pattern, n)),
        xi1_bound=LogValue(xi_bound(1, dist, n, m)),
        residual=LogValue(residual.value),
        residual_applicable=residual.applicable,
        lk_lower=LogValue(lk_lower_bound(dist, pattern, n)),
        ratio_condition=ratio,
        regime_hint="normal_proved" if ratio <= NORMAL_RATIO_THRESHOLD else "unresolved",
    )
