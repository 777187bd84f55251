"""Independent checks of the program's outputs.

Everything here is the benchmark's own arithmetic: a big-integer count
DP organised pattern-major (the program's runs text-major), sigma_1^2
summed straight from c(i, j) = C(i-1, j-1) C(n-i, m-j) through a
log-factorial table (the program walks a ratio recurrence from the
mode), and exact rationals for E[Z].  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
from scipy.special import gammaln

# how many standard errors a sample statistic may sit from its population value
SIGMAS = 4.0

# a recounted value must match the program's to this relative precision in Z
RECOUNT_RTOL = 1e-8

# an ln Z recovered from the log-route output must lie this close to ln C(k, m)
LATTICE_ATOL = 1e-8


def dp_count(text, word) -> int:
    """Occurrences of ``word`` as a subsequence of ``text``, exact.

    Pattern-major: f_j(i) = f_j(i-1) + [text_i = w_j] f_{j-1}(i-1), one
    prefix-sum pass over the text per pattern letter.
    """
    text = [int(x) for x in text]
    n = len(text)
    f = [1] * (n + 1)
    for w in word:
        f = list(accumulate((f[i] if text[i] == w else 0 for i in range(n)), initial=0))
    return f[n]


def expected_count(n: int, word, probs) -> Fraction:
    """E[Z] = C(n, m) p_w with probabilities given as exact fractions."""
    pw = Fraction(1)
    for w in word:
        pw *= probs[w]
    return math.comb(n, len(word)) * pw


def ln_fraction(x: Fraction) -> float:
    """ln x for a positive fraction too large or too small for a float."""
    return math.log(x.numerator) - math.log(x.denominator)


def sigma1_normalized(n: int, word, probs, chunk: int = 512) -> float:
    """sigma_1^2 / C(n-1, m-1)^2 = sum_i (sum_a S_a(i)^2 / p_a - 1).

    S_a(i) sums c(i, j) / C(n-1, m-1) over the pattern slots j holding a.
    """
    word = np.asarray(word)
    m = word.size
    lf = gammaln(np.arange(n + 1) + 1.0)  # lf[k] = ln k!

    def ln_comb(a, b):
        return lf[a] - lf[b] - lf[a - b]

    j = np.arange(1, m + 1)
    ln_norm = ln_comb(n - 1, m - 1)
    total = 0.0
    for lo in range(1, n + 1, chunk):
        i = np.arange(lo, min(lo + chunk, n + 1))[:, None]
        ok = (j <= i) & (m - j <= n - i)
        a, b = np.where(ok, i - 1, 0), np.where(ok, j - 1, 0)
        c, d = np.where(ok, n - i, 0), np.where(ok, m - j, 0)
        ln_c = ln_comb(a, b) + ln_comb(c, d) - ln_norm
        c_norm = np.where(ok, np.exp(ln_c), 0.0)
        row = -1.0
        for sym, p in enumerate(probs):
            s = c_norm[:, word == sym].sum(axis=1)
            row = row + s * s / float(p)
        total += float(row.sum())
    return total


def standardized(z: int, n: int, m: int, ez: Fraction, s1n: float) -> tuple[float, float]:
    """(S, tolerance) for S = (Z - E[Z]) / (p_w sigma_1) from an exact count.

    E[Z] / (p_w sigma_1) = (n / m) / sqrt(s1n); the tolerance is
    RECOUNT_RTOL relative in Z, so an ln Z off by 1e-6 fails by far.
    """
    scale = (n / m) / math.sqrt(s1n)
    ratio = Fraction(z) / ez
    return float(ratio - 1) * scale, RECOUNT_RTOL * scale * (1.0 + float(ratio))


def log_route_value(z: int, n: int, m: int, p: float) -> tuple[float, float]:
    """(T, tolerance) for T = (ln Z - ln C(n p, m)) / sqrt(b_n)."""
    a_n, b_n = log_route_parameters(n, m, p)
    return (math.log(z) - a_n) / math.sqrt(b_n), RECOUNT_RTOL / math.sqrt(b_n)


def log_route_parameters(n: int, m: int, p: float) -> tuple[float, float]:
    """a_n = ln C(n p, m), b_n = n ln(1 - m / (n p))^2 p (1 - p)."""
    np_a = n * p
    a_n = math.lgamma(np_a + 1.0) - math.lgamma(m + 1.0) - math.lgamma(np_a - m + 1.0)
    return a_n, n * math.log(1.0 - m / np_a) ** 2 * p * (1.0 - p)


def value_present(sorted_values: np.ndarray, value: float, tol: float) -> bool:
    """True when some entry of the sorted array lies within tol of value."""
    k = int(np.searchsorted(sorted_values, value))
    near = sorted_values[max(k - 1, 0) : k + 1]
    return bool(near.size) and float(np.min(np.abs(near - value))) <= tol


def recount_problems(label: str, sorted_values: np.ndarray, expected: list) -> list[str]:
    """Each (value, tol) recounted by the benchmark must appear in the output."""
    return [
        f"{label}: recounted value {v!r} (tol {tol:.3g}) not in the output"
        for v, tol in expected
        if not value_present(sorted_values, v, tol)
    ]


def mean_problems(label: str, values: np.ndarray) -> list[str]:
    """mean(Z)/E[Z] - 1 is a fixed multiple of mean(S), so S must average 0 within SIGMAS SE."""
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    z = float(values.mean()) / se
    if abs(z) > SIGMAS:
        return [f"{label}: mean of the standardized count is {z:+.2f} SE from 0"]
    return []


def lattice_k(ln_z: np.ndarray, n: int, m: int) -> tuple[np.ndarray, int]:
    """(k, off) with ln Z = ln C(k, m) for each value; off counts values on no atom."""
    k = np.arange(m, n + 1)
    atoms = np.array([math.lgamma(x + 1.0) - math.lgamma(m + 1.0) - math.lgamma(x - m + 1.0) for x in k])
    pos = np.clip(np.searchsorted(atoms, ln_z), 1, atoms.size - 1)
    nearest = np.where(np.abs(atoms[pos - 1] - ln_z) <= np.abs(atoms[pos] - ln_z), pos - 1, pos)
    off = int(np.count_nonzero(np.abs(atoms[nearest] - ln_z) > LATTICE_ATOL))
    return k[nearest], off


def binomial_problems(label: str, k: np.ndarray, n: int, p: float) -> list[str]:
    """Sample mean and variance of k against Binomial(n, p), each within SIGMAS SE."""
    size = k.size
    var = n * p * (1.0 - p)
    mu4 = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))
    z_mean = (float(k.mean()) - n * p) / math.sqrt(var / size)
    z_var = (float(k.var(ddof=1)) - var) / math.sqrt((mu4 - var * var) / size)
    out = []
    if abs(z_mean) > SIGMAS:
        out.append(f"{label}: implied k mean is {z_mean:+.2f} SE from n p")
    if abs(z_var) > SIGMAS:
        out.append(f"{label}: implied k variance is {z_var:+.2f} SE from n p (1 - p)")
    return out


def close_problems(label: str, got: float, want: float, rtol: float) -> list[str]:
    if abs(got - want) > rtol * abs(want):
        return [f"{label}: {got!r} vs {want!r} (rtol {rtol})"]
    return []


def channel_range_problems(label: str, mi: float, n: int, d: float) -> list[str]:
    """I(X; Y) of the deletion channel lies in [0, n (1 - d) ln 2]."""
    hi = n * (1.0 - d) * math.log(2.0)
    if not (0.0 <= mi <= hi):
        return [f"{label}: estimate {mi!r} outside [0, {hi!r}]"]
    return []


def agreement_problems(label: str, estimate: float, stderr: float, exact: float) -> list[str]:
    z = (estimate - exact) / stderr
    if abs(z) > SIGMAS:
        return [f"{label}: estimate {estimate!r} is {z:+.2f} SE from {exact!r}"]
    return []
