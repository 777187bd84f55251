"""Moments: expected count, projection variance, bounds, special patterns."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from conftest import AB, binary_dist, make_pattern
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
)
from subseqstats.source_model import Alphabet, SourceDist, batch_letters, derive_seed


@pytest.fixture
def dist():
    return binary_dist(0.5)


# ---- binomials -------------------------------------------------------------


def test_log_binomial_values():
    assert log_binomial(5, 2).ln_value() == pytest.approx(math.log(10), rel=1e-14)
    assert log_binomial(7, 0).to_float() == pytest.approx(1.0)
    assert log_binomial(7, 8).is_zero
    assert log_binomial(7, -1).is_zero
    want = math.log(binomial_exact(10**6, 100))
    assert log_binomial(10**6, 100).ln_value() == pytest.approx(want, rel=1e-10)


def test_binomial_exact_matches_math_comb():
    for n in range(0, 20):
        for k in range(-1, n + 2):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial_exact(n, k) == want


# ---- expected count --------------------------------------------------------


def test_expected_count_values(dist):
    p = make_pattern("ab", dist)
    assert expected_count(dist, p, 5).to_float() == pytest.approx(2.5, rel=1e-12)
    assert expected_count_exact(dist, p, 5) == Fraction(5, 2)
    # n = m leaves a single index tuple: E[Z] = p_w
    assert expected_count(dist, p, 2).to_float() == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        expected_count(dist, p, 1)


def test_moments_read_p_w_from_the_source_passed_in():
    # a pattern is a word; its p_w comes from the source it is evaluated under
    even, skewed = binary_dist(0.5), binary_dist(0.7)
    built_even, built_skewed = make_pattern("ab", even), make_pattern("ab", skewed)
    assert expected_count(skewed, built_even, 10) == expected_count(skewed, built_skewed, 10)
    assert expected_count(skewed, built_even, 10).to_float() == pytest.approx(9.45, rel=1e-12)
    assert moment_report(skewed, built_even, 50) == moment_report(skewed, built_skewed, 50)
    abc = make_pattern("abc", SourceDist.uniform(Alphabet.from_string("abc")))
    for call in (expected_count, moment_report, sigma1_sq):
        with pytest.raises(ValueError, match="different alphabets"):
            call(skewed, abc, 50)


def test_expected_count_monte_carlo_oracle():
    dist = binary_dist(0.3)
    p = make_pattern("aba", dist)
    n, trials = 100, 200_000
    est = mc_count_moment(dist, p, n, trials, 2024)
    want = expected_count(dist, p, n).to_float()
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
        assert tau_sq(i, dist, p, n).to_float() == pytest.approx(
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
            assert got.to_float() == pytest.approx(float(want), rel=1e-11, abs=1e-11)


def test_sigma1_small_case(dist):
    # n=4, w="aa": direct enumeration gives 36
    p = make_pattern("aa", dist)
    assert sigma1_sq(dist, p, 4).to_float() == pytest.approx(36.0, rel=1e-12)
    assert sigma1_sq_exact(dist, p, 4) == 36


def test_sigma1_float_matches_exact_grid():
    dist = binary_dist(0.3)
    for n in (20, 50, 200):
        for word in ("ab", "aab", "abab"):
            p = make_pattern(word, dist)
            want = sigma1_sq_exact(dist, p, n)
            got = sigma1_sq(dist, p, n).to_float()
            assert got == pytest.approx(float(want), rel=1e-10)


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
    want = math.exp(dist.ln_prob(p.word)) ** 2 * sigma1_sq(dist, p, n).to_float()
    assert z.var(ddof=1) == pytest.approx(want, rel=0.05)


# ---- variance bounds -------------------------------------------------------


def test_xi_bound_level_one_formula(dist):
    n, m = 30, 5
    b = dist.b_const
    want = b * n * binomial_exact(n - 1, m - 1) ** 2
    assert xi_bound(1, dist, n, m).to_float() == pytest.approx(want, rel=1e-12)


def test_xi_bound_dominates_sigma1():
    for p0 in (0.5, 0.3):
        dist = binary_dist(p0)
        for word in ("ab", "aab", "abba"):
            p = make_pattern(word, dist)
            for n in (10, 40, 120):
                s1 = sigma1_sq(dist, p, n).to_float()
                assert s1 <= xi_bound(1, dist, n, p.length).to_float() * (1 + 1e-12)


def test_residual_bound_value_and_applicability(dist):
    rb = residual_bound(dist, 100, 2)
    assert rb.applicable
    assert rb.value.to_float() == pytest.approx(4 * 99**2, rel=1e-12)
    assert not residual_bound(dist, 100, 11).applicable  # m^2 B = 121 > 100


def test_lk_lower_bound_cases(dist):
    # balanced pattern: q = p makes the bound vanish
    assert lk_lower_bound(dist, make_pattern("ab", dist), 30).is_zero
    rng = np.random.default_rng(8)
    for _ in range(50):
        p0 = float(rng.uniform(0.2, 0.8))
        d = binary_dist(p0)
        m = int(rng.integers(2, 6))
        word = "".join("ab"[int(b)] for b in rng.integers(0, 2, size=m))
        n = int(rng.integers(m + 2, 60))
        p = make_pattern(word, d)
        lower = lk_lower_bound(d, p, n).to_float()
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
