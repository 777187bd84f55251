"""Tests of the benchmark's own checks: each agrees with brute force and rejects a wrong value.

Run with:  python3 -m pytest -q perfbench/test_checks.py
"""

import math
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from subseqstats import channel, moments, presets  # noqa: E402
from subseqstats.source_model import Alphabet, Pattern, SourceDist, derive_seed, generate_text  # noqa: E402

HALF = (Fraction(1, 2), Fraction(1, 2))


def brute_count(text, word):
    return sum(
        all(text[i] == w for i, w in zip(idx, word))
        for idx in combinations(range(len(text)), len(word))
    )


def exact_sigma1_normalized(n, word, probs):
    """sigma_1^2 / C(n-1, m-1)^2 in rationals, straight from c(i, j)."""
    m = len(word)
    total = Fraction(0)
    for i in range(1, n + 1):
        sums = [0] * len(probs)
        for j in range(1, m + 1):
            sums[word[j - 1]] += math.comb(i - 1, j - 1) * math.comb(n - i, m - j)
        total += sum(Fraction(s * s) / p for s, p in zip(sums, probs)) - math.comb(n - 1, m - 1) ** 2
    return total / math.comb(n - 1, m - 1) ** 2


def test_dp_count_equals_brute_force():
    for n in range(0, 8):
        for text in product((0, 1), repeat=n):
            for m in (1, 2, 3):
                for word in product((0, 1), repeat=m):
                    assert checks.dp_count(text, word) == brute_count(text, word)
    rng = np.random.default_rng(7)
    for _ in range(50):
        text = rng.integers(0, 3, size=12)
        word = tuple(rng.integers(0, 3, size=4))
        assert checks.dp_count(text, word) == brute_count(text, word)


def test_dp_count_of_constant_pattern_is_binomial():
    rng = np.random.default_rng(3)
    text = rng.integers(0, 2, size=300)
    for m in (1, 5, 40):
        assert checks.dp_count(text, (0,) * m) == math.comb(int(np.sum(text == 0)), m)


@pytest.mark.parametrize(
    "word, probs",
    [((0, 1, 0), HALF), ((0, 0, 1, 1), (Fraction(7, 10), Fraction(3, 10))), ((1, 0, 2), (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)))],
)
def test_sigma1_sum_equals_rational_definition(word, probs):
    for n in (len(word), 9, 23):
        want = exact_sigma1_normalized(n, word, probs)
        assert checks.sigma1_normalized(n, word, probs, chunk=4) == pytest.approx(float(want), rel=1e-11)


def test_sigma1_sum_matches_constant_closed_form_and_program():
    dist = SourceDist(Alphabet.from_string("ab"), (0.5, 0.5))
    for n, m in ((50, 7), (2000, 300)):
        s1n = checks.sigma1_normalized(n, (0,) * m, HALF)
        assert s1n == pytest.approx(n * (1 / 0.5 - 1), rel=1e-10)
        pat = Pattern.from_indices(dist, (0,) * m)
        assert checks.close_problems("x", moments.sigma1_sq_normalized(dist, pat, n), s1n, 1e-9) == []
    assert checks.close_problems("x", 1.0 + 2e-9, 1.0, 1e-9) != []


def test_recount_check_rejects_ln_z_off_by_1e_6():
    n, word = 40, (0, 1, 0)
    ez = checks.expected_count(n, word, HALF)
    s1n = checks.sigma1_normalized(n, word, HALF)
    rng = np.random.default_rng(11)
    texts = [rng.integers(0, 2, size=n) for _ in range(200)]
    counts = [checks.dp_count(t, word) for t in texts]
    scale = (n / 3) / math.sqrt(s1n)
    # the program's formula: S = expm1(ln Z - ln E[Z]) * E[Z] / (p_w sigma_1)
    ln_ez = checks.ln_fraction(ez)
    program = np.sort([math.expm1(math.log(z) - ln_ez) * scale for z in counts])
    expected = [checks.standardized(z, n, 3, ez, s1n) for z in counts[:5]]
    assert checks.recount_problems("ok", program, expected) == []
    moved = np.array([math.expm1(math.log(counts[0]) + 1e-6 - ln_ez) * scale])
    assert checks.recount_problems("moved", moved, expected[:1]) != []


def test_log_route_recount_rejects_shift():
    n, m, p = 10_000, 600, 0.5
    z = math.comb(5100, m)
    t, tol = checks.log_route_value(z, n, m, p)
    a_n, b_n = checks.log_route_parameters(n, m, p)
    assert abs(t - (math.log(z) - a_n) / math.sqrt(b_n)) <= tol
    assert checks.recount_problems("log", np.array([t]), [(t, tol)]) == []
    assert checks.recount_problems("log", np.array([t + 1e-6 / math.sqrt(b_n)]), [(t, tol)]) != []


def test_mean_check_rejects_shifted_mean():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(20_000)
    assert checks.mean_problems("ok", values) == []
    assert checks.mean_problems("shifted", values + 0.05) != []


def test_lattice_recovers_k_and_rejects_off_lattice_value():
    n, m, p = 10_000, 150, 0.5
    rng = np.random.default_rng(9)
    k = rng.binomial(n, p, size=4096)
    ln_z = np.array([math.log(math.comb(int(x), m)) for x in k])
    got, off = checks.lattice_k(ln_z, n, m)
    assert off == 0 and np.array_equal(got, k)
    assert checks.binomial_problems("ok", got, n, p) == []
    ln_z[17] += 1e-6
    assert checks.lattice_k(ln_z, n, m)[1] == 1
    assert checks.binomial_problems("mean", got + 5, n, p) != []
    spread = np.round(n * p + (got - n * p) * 1.1).astype(int)
    assert checks.binomial_problems("var", spread, n, p) != []


def test_channel_checks_reject_wrong_estimates():
    assert checks.channel_range_problems("ok", 50.0, 200, 0.3) == []
    assert checks.channel_range_problems("neg", -0.1, 200, 0.3) != []
    assert checks.channel_range_problems("big", 200 * 0.7 * math.log(2) + 1e-9, 200, 0.3) != []
    cfg = channel.ChannelConfig(SourceDist(Alphabet.from_string("ab"), (0.5, 0.5)), 6, 0.3)
    exact = channel.exact_mutual_information_via_counts(cfg)
    est = channel.mc_mutual_information(cfg, 4000, 1)
    assert checks.agreement_problems("ok", est.mi, est.stderr, exact) == []
    assert checks.agreement_problems("off", est.mi + 5 * est.stderr, est.stderr, exact) != []


def test_program_outputs_pass_the_preset_checks(tmp_path):
    """A small t2a_normal run: every recounted trial appears in samples.csv."""
    dist = SourceDist(Alphabet.from_string("ab"), (0.5, 0.5))
    presets.run_preset("t2a_normal", out_dir=tmp_path, trials=300, seeds=(5,))
    lines = (tmp_path / "seed_5" / "samples.csv").read_text().split()
    values = np.array([float(v) for v in lines[1:]])
    word, n = (0, 1, 0), 2000
    ez = checks.expected_count(n, word, HALF)
    s1n = checks.sigma1_normalized(n, word, HALF)
    expected = [
        checks.standardized(checks.dp_count(generate_text(dist, n, derive_seed(5, t)).letters, word), n, 3, ez, s1n)
        for t in (0, 150, 299)
    ]
    assert checks.recount_problems("t2a", values, expected) == []
    assert checks.mean_problems("t2a", values) == []
