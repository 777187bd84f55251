"""Moments: expected count, projection variance, bounds, special patterns."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from conftest import AB, binary_dist, make_pattern
from subseqstats import moments
from subseqstats.channel import mc_count_moment
from subseqstats.counting import batched_ln_counts
from subseqstats.moments import (
    alternating_tau_int,
    binomial_exact,
    coeff_c_exact,
    expected_count,
    expected_count_exact,
    hg_sign_bias,
    lk_lower_bound,
    log_binomial,
    moment_report,
    occupancy_rows,
    random_pattern_expected_sigma1,
    residual_bound,
    sigma1_sq,
    sigma1_sq_exact,
    sigma1_sq_normalized,
    tau_sq,
    tau_sq_exact,
    xi_bound,
    _tau_sq_blocks,
)
from subseqstats.source_model import Alphabet, Pattern, SourceDist, batch_letters, derive_seed


@pytest.fixture
def dist():
    return binary_dist(0.5)


# ---- binomials -------------------------------------------------------------


def test_log_binomial_values():
    assert log_binomial(5, 2) == pytest.approx(math.log(10), rel=1e-14)
    assert math.exp(log_binomial(7, 0)) == pytest.approx(1.0)
    assert log_binomial(7, 8) == -math.inf
    assert log_binomial(7, -1) == -math.inf
    want = math.log(binomial_exact(10**6, 100))
    assert log_binomial(10**6, 100) == pytest.approx(want, rel=1e-10)


def test_binomial_exact_matches_math_comb():
    for n in range(0, 20):
        for k in range(-1, n + 2):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial_exact(n, k) == want


# ---- expected count --------------------------------------------------------


def test_expected_count_values(dist):
    p = make_pattern("ab", dist)
    assert math.exp(expected_count(dist, p, 5)) == pytest.approx(2.5, rel=1e-12)
    assert expected_count_exact(dist, p, 5) == Fraction(5, 2)
    # n = m leaves a single index tuple: E[Z] = p_w
    assert math.exp(expected_count(dist, p, 2)) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        expected_count(dist, p, 1)


def test_moments_read_p_w_from_the_source_passed_in():
    # a pattern is a word; its p_w comes from the source it is evaluated under
    even, skewed = binary_dist(0.5), binary_dist(0.7)
    built_even, built_skewed = make_pattern("ab", even), make_pattern("ab", skewed)
    assert expected_count(skewed, built_even, 10) == expected_count(skewed, built_skewed, 10)
    assert math.exp(expected_count(skewed, built_even, 10)) == pytest.approx(9.45, rel=1e-12)
    assert moment_report(skewed, built_even, 50) == moment_report(skewed, built_skewed, 50)
    abc = make_pattern("abc", SourceDist.uniform(Alphabet.from_string("abc")))
    for call in (expected_count, moment_report, sigma1_sq):
        with pytest.raises(ValueError, match="different alphabets"):
            call(skewed, abc, 50)


_ABC_UNIFORM = SourceDist.uniform(Alphabet.from_string("abc"))


@pytest.mark.parametrize(
    "call",
    [
        lambda d, p: sigma1_sq_normalized(d, p, 50),
        lambda d, p: expected_count_exact(d, p, 20),
        lambda d, p: tau_sq_exact(1, d, p, 20),
        lambda d, p: sigma1_sq_exact(d, p, 20),
    ],
    ids=["sigma1_sq_normalized", "expected_count_exact", "tau_sq_exact", "sigma1_sq_exact"],
)
def test_mismatched_alphabet_rejected(call):
    # the word "ab" fits either alphabet, so only the pair check can catch it
    pattern = make_pattern("ab", _ABC_UNIFORM)
    with pytest.raises(ValueError, match="different alphabets"):
        call(binary_dist(0.5), pattern)


def test_expected_count_monte_carlo_oracle():
    dist = binary_dist(0.3)
    p = make_pattern("aba", dist)
    n, trials = 100, 200_000
    est = mc_count_moment(dist, p, n, trials, 2024)
    want = math.exp(expected_count(dist, p, n))
    assert abs(est.e_z - want) <= 4.0 * est.e_z_stderr


# ---- slot coefficients and hypergeometric rows -----------------------------


def test_coeff_c_edge_and_symmetry():
    n, m = 12, 4
    for j in range(1, m + 1):
        total = sum(coeff_c_exact(i, j, n, m) for i in range(1, n + 1))
        assert total == binomial_exact(n, m)
    assert coeff_c_exact(1, 1, n, m) == binomial_exact(n - 1, m - 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            assert coeff_c_exact(i, j, n, m) == coeff_c_exact(n + 1 - i, m + 1 - j, n, m)


def test_occupancy_rows_are_shifted_hypergeometric():
    n, m = 20, 5
    c_total = binomial_exact(n - 1, m - 1)
    rows = occupancy_rows(n, m, 1, n)
    assert rows.shape == (n, m)
    for i in (1, 7, 10, 20):
        row = rows[i - 1]
        assert row.min() >= 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        exact = np.array(
            [Fraction(coeff_c_exact(i, j, n, m), c_total) for j in range(1, m + 1)],
            dtype=float,
        )
        assert np.allclose(row, exact, rtol=1e-10, atol=1e-300)
        # j - 1 follows a hypergeometric law with population n-1, i-1 marked
        pmf = hypergeom.pmf(np.arange(m), n - 1, i - 1, m - 1)
        assert np.allclose(row, pmf, rtol=1e-8, atol=1e-12)
        assert np.array_equal(occupancy_rows(n, m, i, i)[0], row)
    assert rows[0, 0] == pytest.approx(1.0)
    assert np.all(rows[0, 1:] == 0.0)


def test_occupancy_rows_extreme_tail_stability():
    # mode-outward evaluation keeps far-tail rows normalized
    row = occupancy_rows(10_000, 300, 5000, 5000)[0]
    assert row.sum() == pytest.approx(1.0, abs=1e-9)
    assert row.min() >= 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_occupancy_rows_split_is_bit_equal(data):
    n = data.draw(st.integers(1, 400), label="n")
    m = data.draw(st.integers(1, n), label="m")
    i_lo = data.draw(st.integers(1, n), label="i_lo")
    i_hi = data.draw(st.integers(i_lo, n), label="i_hi")
    k = data.draw(st.integers(i_lo, i_hi), label="k")
    whole = occupancy_rows(n, m, i_lo, i_hi)
    parts = [occupancy_rows(n, m, i_lo, k)]
    if k < i_hi:
        parts.append(occupancy_rows(n, m, k + 1, i_hi))
    assert np.array_equal(np.concatenate(parts), whole)


def _frozen_occupancy_rows(n: int, m: int, i_lo: int, i_hi: int) -> np.ndarray:
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


def _assert_matches_frozen(n, m, i_lo, i_hi):
    # no zero denominator, 0/0 or inf may be formed, masked entries included
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = occupancy_rows(n, m, i_lo, i_hi)
    want = _frozen_occupancy_rows(n, m, i_lo, i_hi)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, m, i_lo, i_hi)


# the frozen reference is the full-width occupancy_rows the half-width
# blocks replaced; every row must keep its bits
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_occupancy_rows_match_frozen_reference(data):
    n = data.draw(st.integers(1, 400), label="n")
    m = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="m")
    kind = data.draw(st.sampled_from(("any", "one_row", "below_m", "above_n_m_1", "all")), label="kind")
    lo, hi = 1, n
    if kind == "below_m" and m > 1:  # rows i < m: support cut above
        hi = m - 1
    elif kind == "above_n_m_1" and m > 1:  # rows i > n - m + 1: support cut below
        lo = n - m + 2
    i_lo = 1 if kind == "all" else data.draw(st.integers(lo, hi), label="i_lo")
    i_hi = i_lo if kind == "one_row" else n if kind == "all" else data.draw(st.integers(i_lo, hi), label="i_hi")
    cells = data.draw(st.sampled_from((1, 5, 64, moments._BLOCK_CELLS)), label="block cells")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_BLOCK_CELLS", cells)
        _assert_matches_frozen(n, m, i_lo, i_hi)


def test_occupancy_rows_match_frozen_reference_exhaustively_small():
    for n in range(1, 11):
        for m in range(1, n + 1):
            for i_lo in range(1, n + 1):
                for i_hi in range(i_lo, n + 1):
                    _assert_matches_frozen(n, m, i_lo, i_hi)


@pytest.mark.parametrize(
    "n, m, i_lo, i_hi",
    [(700, 600, 1, 700), (2000, 300, 1, 2000), (5000, 200, 2400, 2600), (10_000, 600, 9000, 9100),
     (400, 400, 1, 400), (400, 1, 1, 400), (1, 1, 1, 1)],
)
def test_occupancy_rows_match_frozen_reference_at_scale(n, m, i_lo, i_hi):
    # full ranges spanning several default-size blocks, windows away from
    # the edges, and the m = n and m = 1 extremes
    _assert_matches_frozen(n, m, i_lo, i_hi)


@pytest.mark.parametrize(
    "n, m, i_lo, i_hi",
    [(5, 0, 1, 1), (5, 6, 1, 1), (0, 0, 1, 1), (5, 2, 0, 3), (5, 2, 2, 6), (5, 2, 4, 3)],
)
def test_occupancy_rows_rejects_out_of_range(n, m, i_lo, i_hi):
    with pytest.raises(ValueError):
        occupancy_rows(n, m, i_lo, i_hi)


# ---- per-position and total projection variance ----------------------------


def test_tau_sq_constant_pattern(dist):
    p = make_pattern("aaaa", dist)
    n = 12
    for i in (1, 5, 12):
        assert math.exp(tau_sq(i, dist, p, n)) == pytest.approx(
            (1.0 / 0.5 - 1.0) * binomial_exact(n - 1, 3) ** 2, rel=1e-10
        )


def test_tau_sq_stable_float_matches_exact():
    dist = binary_dist(0.3)
    n = 8
    for bits in range(8):
        word = "".join("ab"[(bits >> k) & 1] for k in range(3))
        p = make_pattern(word, dist)
        for i in range(1, n + 1):
            want = tau_sq_exact(i, dist, p, n)
            got = tau_sq(i, dist, p, n)
            assert math.exp(got) == pytest.approx(float(want), rel=1e-11, abs=1e-11)


def test_sigma1_small_case(dist):
    # n=4, w="aa": direct enumeration gives 36
    p = make_pattern("aa", dist)
    assert math.exp(sigma1_sq(dist, p, 4)) == pytest.approx(36.0, rel=1e-12)
    assert sigma1_sq_exact(dist, p, 4) == 36


def test_sigma1_float_matches_exact_grid():
    dist = binary_dist(0.3)
    for n in (20, 50, 200):
        for word in ("ab", "aab", "abab"):
            p = make_pattern(word, dist)
            want = sigma1_sq_exact(dist, p, n)
            got = math.exp(sigma1_sq(dist, p, n))
            assert got == pytest.approx(float(want), rel=1e-10)


@pytest.mark.parametrize(
    "p0, word, n",
    [(0.5, "aba", 2000), (0.7, "a" * 20 + "b" * 20, 4000), (0.5, "a" * 300, 10_000)],
)
def test_output_sums_add_left_to_right(p0, word, n):
    # from Python 3.12 the builtin sum compensates float sums; these values
    # reach output bytes, so they must be plain additions in order
    dist = binary_dist(p0)
    p = make_pattern(word, dist)
    total = 0.0
    for i_lo in range(1, n + 1, 500):
        for block in _tau_sq_blocks(dist, p, n, i_lo, min(i_lo + 499, n)):
            for v in block.tolist():
                total += v
    assert sigma1_sq_normalized(dist, p, n).hex() == total.hex()
    ln_pw = 0.0
    for j in p.word:
        ln_pw += math.log(dist.probs[j])
    assert dist.ln_prob(p.word).hex() == ln_pw.hex()


def _frozen_tau_sq_block(dist, pattern, n, i_lo, i_hi):
    """_tau_sq_blocks' values with every S_a the last entry of a cumsum along its row."""
    rows = occupancy_rows(n, pattern.length, i_lo, i_hi)
    word = np.asarray(pattern.word)
    sums = np.zeros((rows.shape[0], pattern.alphabet.size))
    for a in np.unique(word):
        sums[:, a] = np.cumsum(rows[:, word == a], axis=1)[:, -1]
    return np.maximum(np.sum(sums * sums / np.asarray(dist.probs), axis=1) - 1.0, 0.0)


# S_a must add in slot order for blocks of every height: numpy sums a
# one-row block pairwise, the transposed add of taller ones does not
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tau_sq_block_matches_frozen_cumsum_sums(data):
    k = data.draw(st.integers(2, 4), label="letters")
    weights = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k), label="weights")
    dist = SourceDist(Alphabet.from_string("abcd"[:k]), tuple(w / sum(weights) for w in weights))
    n = data.draw(st.integers(1, 700), label="n")
    m = data.draw(st.one_of(st.integers(1, min(n, 60)), st.integers(1, n)), label="m")
    letters = data.draw(st.sampled_from((1, k)), label="word letters")
    word = data.draw(st.lists(st.integers(0, letters - 1), min_size=m, max_size=m), label="word")
    pattern = Pattern.from_indices(dist, word)
    i_lo = data.draw(st.integers(1, n), label="i_lo")
    height = data.draw(st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, n)), label="rows")
    i_hi = min(n, i_lo + height - 1)
    got = np.concatenate(list(_tau_sq_blocks(dist, pattern, n, i_lo, i_hi)))
    want = _frozen_tau_sq_block(dist, pattern, n, i_lo, i_hi)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigma1_monte_carlo_variance_oracle(dist):
    # Var(Z) ~ p_w^2 sigma_1^2 when m^3/n is small
    n, trials = 400, 200_000
    p = make_pattern("ab", dist)
    seeds = [derive_seed(77, t) for t in range(trials)]
    z = np.empty(trials)
    for lo in range(0, trials, 4096):
        hi = min(lo + 4096, trials)
        letters = batch_letters(dist, n, seeds[lo:hi])
        z[lo:hi] = np.exp(batched_ln_counts(letters, p.word))
    want = math.exp(dist.ln_prob(p.word)) ** 2 * math.exp(sigma1_sq(dist, p, n))
    assert z.var(ddof=1) == pytest.approx(want, rel=0.05)


# ---- variance bounds -------------------------------------------------------


def test_xi_bound_level_one_formula(dist):
    n, m = 30, 5
    b = dist.b_const
    want = b * n * binomial_exact(n - 1, m - 1) ** 2
    assert math.exp(xi_bound(1, dist, n, m)) == pytest.approx(want, rel=1e-12)


def test_xi_bound_dominates_sigma1():
    for p0 in (0.5, 0.3):
        dist = binary_dist(p0)
        for word in ("ab", "aab", "abba"):
            p = make_pattern(word, dist)
            for n in (10, 40, 120):
                s1 = math.exp(sigma1_sq(dist, p, n))
                assert s1 <= math.exp(xi_bound(1, dist, n, p.length)) * (1 + 1e-12)


def test_residual_bound_value_and_applicability(dist):
    rb = residual_bound(dist, 100, 2)
    assert rb.applicable
    assert math.exp(rb.value) == pytest.approx(4 * 99**2, rel=1e-12)
    assert not residual_bound(dist, 100, 11).applicable  # m^2 B = 121 > 100


def test_lk_lower_bound_cases(dist):
    # balanced pattern: q = p makes the bound vanish
    assert lk_lower_bound(dist, make_pattern("ab", dist), 30) == -math.inf
    rng = np.random.default_rng(8)
    for _ in range(50):
        p0 = float(rng.uniform(0.2, 0.8))
        d = binary_dist(p0)
        m = int(rng.integers(2, 6))
        word = "".join("ab"[int(b)] for b in rng.integers(0, 2, size=m))
        n = int(rng.integers(m + 2, 60))
        p = make_pattern(word, d)
        lower = math.exp(lk_lower_bound(d, p, n))
        s1 = float(sigma1_sq_exact(d, p, n))
        assert lower <= s1 * (1 + 1e-9)


# ---- alternating patterns --------------------------------------------------


def test_alternating_tau_edge_and_symmetry():
    n, m = 16, 4
    assert abs(alternating_tau_int(1, n, m)) == binomial_exact(n - 1, m - 1)
    for i in range(1, n + 1):
        assert abs(alternating_tau_int(i, n, m)) == abs(alternating_tau_int(n + 1 - i, n, m))


def test_alternating_tau_hypergeometric_oracle():
    n, m = 16, 4
    c_total = binomial_exact(n - 1, m - 1)
    for i in range(1, n + 1):
        pmf = hypergeom.pmf(np.arange(m), n - 1, i - 1, m - 1)
        want = c_total * float(((-1.0) ** np.arange(m)) @ pmf)
        assert alternating_tau_int(i, n, m) == pytest.approx(want, abs=1e-6 * c_total)


def test_alternating_tau_squared_is_tau_sq(dist):
    # uniform binary: tau_i^2 for the alternating pattern is the square of
    # the signed slot sum, which the integer routine computes directly
    n, m = 12, 4
    word = "ab" * (m // 2)
    p = make_pattern(word, dist)
    for i in range(1, n + 1):
        assert Fraction(alternating_tau_int(i, n, m)) ** 2 == tau_sq_exact(i, dist, p, n)


# ---- hypergeometric sign bias ----------------------------------------------


def test_hg_sign_bias_edges():
    bias, bound = hg_sign_bias(10, 0, 4)
    assert bias == pytest.approx(1.0)
    assert bound == pytest.approx(1.0)
    bias, _ = hg_sign_bias(9, 3, 9)  # drawing everything fixes X = k
    assert bias == pytest.approx(-1.0)


def test_hg_sign_bias_exhaustive_small():
    for n in range(1, 26):
        for k in range(n + 1):
            for l in range(n + 1):
                bias, bound = hg_sign_bias(n, k, l)
                assert abs(bias) <= bound + 1e-12


# ---- random patterns -------------------------------------------------------


def test_random_pattern_sigma_m_one():
    for dist in (binary_dist(0.5), binary_dist(0.3)):
        a1 = sum(p * (1.0 / p - 1.0) for p in dist.probs)
        assert a1 == pytest.approx(dist.alphabet.size - 1)
        assert random_pattern_expected_sigma1(dist, 25, 1) == pytest.approx(a1 * 25, rel=1e-10)


def test_random_pattern_sigma_hypergeometric_oracle(dist):
    # sum_{i,j} pi(i, j)^2 with row i the law of j - 1 ~ Hypergeom(n-1, i-1, m-1)
    n, m = 200, 16
    a1 = sum(p * (1.0 / p - 1.0) for p in dist.probs)
    pmf_sq = sum(
        float((hypergeom.pmf(np.arange(m), n - 1, i - 1, m - 1) ** 2).sum())
        for i in range(1, n + 1)
    )
    assert random_pattern_expected_sigma1(dist, n, m) == pytest.approx(a1 * pmf_sq, rel=1e-10)


# ---- the assembled report --------------------------------------------------


def test_moment_report_shape_and_regime(dist):
    p = make_pattern("aba", dist)
    rep = moment_report(dist, p, 20)
    d = rep.to_dict()
    assert d["n"] == 20 and d["m"] == 3
    assert d["regime_hint"] == "unresolved"
    assert d["expected"]["sign"] == 1
    big = moment_report(dist, p, 10_000)
    assert big.regime_hint == "normal_proved"
    assert big.ratio_condition < 0.01
