"""Source model: alphabets, distributions, patterns, seeded sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import AB, binary_dist
from subseqstats.source_model import (
    Alphabet,
    Pattern,
    SourceDist,
    Text,
    batch_letters,
    derive_seed,
    generate_text,
    proportion_distance,
)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.from_string("a")
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab", "c"))
    al = Alphabet.from_string("abc")
    assert al.size == 3
    assert al.index("c") == 2
    with pytest.raises(ValueError):
        al.index("z")
    assert al.to_string(al.to_indices("cab")) == "cab"


def test_source_dist_validation():
    with pytest.raises(ValueError):
        SourceDist(AB, (1.0, 0.0))
    with pytest.raises(ValueError):
        SourceDist(AB, (0.5, 0.6))
    d = binary_dist(0.3)
    assert d.min_prob == pytest.approx(0.3)
    assert d.b_const == pytest.approx(1.0 / 0.3 - 1.0)
    u = SourceDist.uniform(Alphabet.from_string("abcd"))
    assert u.probs == (0.25, 0.25, 0.25, 0.25)


def test_rational_probs():
    assert binary_dist(0.3).rational_probs() == (Fraction(3, 10), Fraction(7, 10))
    thirds = SourceDist(AB, (1.0 / 3.0, 2.0 / 3.0))
    assert thirds.rational_probs() == (Fraction(1, 3), Fraction(2, 3))
    awkward = SourceDist(
        Alphabet.from_string("abc"),
        (1.0 / math.pi, 1.0 / math.pi, 1.0 - 2.0 / math.pi),
    )
    with pytest.raises(ValueError):
        awkward.rational_probs()


def test_pattern_basics():
    d = binary_dist(0.5)
    p = Pattern.from_string(d, "aba")
    assert p.length == 3
    assert not p.is_constant
    assert p.to_string() == "aba"
    assert d.ln_prob(p.word) == pytest.approx(3 * math.log(0.5))
    assert p.proportions() == (Fraction(2, 3), Fraction(1, 3))
    assert Pattern.from_string(d, "bbb").is_constant
    with pytest.raises(ValueError):
        Pattern.from_string(d, "")


def test_pattern_log_pw_nonuniform():
    d = SourceDist(AB, (1.0 / 3.0, 2.0 / 3.0))
    p = Pattern.from_string(d, "aab")
    assert d.ln_prob(p.word) == pytest.approx(2 * math.log(1 / 3) + math.log(2 / 3))


def test_proportion_distance_examples():
    u = binary_dist(0.5)
    assert proportion_distance(Pattern.from_string(u, "ab"), u) == pytest.approx(0.0)
    assert proportion_distance(Pattern.from_string(u, "aa"), u) == pytest.approx(
        math.sqrt(0.5)
    )
    thirds = SourceDist(AB, (1.0 / 3.0, 2.0 / 3.0))
    assert proportion_distance(Pattern.from_string(thirds, "aab"), thirds) == pytest.approx(
        math.sqrt(2.0) / 3.0
    )


def test_text_immutable_and_validated():
    t = Text.from_string("abba", AB)
    assert t.length == 4
    assert t.to_string() == "abba"
    with pytest.raises(ValueError):
        t.letters[0] = 1
    with pytest.raises(ValueError):
        Text.from_string("abz", AB)


def test_text_rejects_indices_that_do_not_fit_int8():
    # 256 would wrap to 0 and -129 to 127 under a plain int8 cast
    for bad in ([0, 1, 256], [0, 1, -129], [0, 1.5]):
        with pytest.raises(ValueError, match="int8"):
            Text(np.array(bad))
    assert Text(np.array([0, 1, 127])).letters.tolist() == [0, 1, 127]


def test_alphabet_rejects_more_than_127_symbols():
    symbols = tuple(chr(0x100 + k) for k in range(128))
    with pytest.raises(ValueError, match="127"):
        Alphabet(symbols)
    assert Alphabet(symbols[:127]).size == 127


def test_derive_seed_spread_and_determinism():
    seeds = {derive_seed(12345, t) for t in range(10_000)}
    assert len(seeds) == 10_000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(12345, 7) == derive_seed(12345, 7)
    assert derive_seed(12345, 7) != derive_seed(12346, 7)


def test_generate_text_deterministic():
    d = binary_dist(0.5)
    t1 = generate_text(d, 1000, 42)
    t2 = generate_text(d, 1000, 42)
    t3 = generate_text(d, 1000, 43)
    assert np.array_equal(t1.letters, t2.letters)
    assert not np.array_equal(t1.letters, t3.letters)


def test_batch_letters_matches_scalar_path():
    # three letters take the inverse-CDF path, five the alias tables
    for d in (
        SourceDist(Alphabet.from_string("abc"), (0.2, 0.5, 0.3)),
        SourceDist(Alphabet.from_string("abcde"), (0.05, 0.1, 0.15, 0.3, 0.4)),
    ):
        seeds = [derive_seed(9, t) for t in range(8)]
        block = batch_letters(d, 64, seeds)
        assert block.shape == (8, 64)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, generate_text(d, 64, seed).letters)


def test_law_of_large_numbers_uniform():
    d = binary_dist(0.5)
    t = generate_text(d, 1_000_000, 7)
    freq = float(np.mean(t.letters == 0))
    assert abs(freq - 0.5) < 0.002  # 4 sigma = 0.002


def test_law_of_large_numbers_skewed():
    d = binary_dist(0.9)
    t = generate_text(d, 100_000, 3)
    freq = float(np.mean(t.letters == 0))
    assert abs(freq - 0.9) < 0.004  # ~4 sigma


def test_chi_square_across_seeds():
    d = SourceDist(Alphabet.from_string("abc"), (0.2, 0.5, 0.3))
    n = 10_000
    cutoff = chi2.ppf(0.999, df=2)
    bad = 0
    for seed in range(100):
        t = generate_text(d, n, seed)
        obs = np.bincount(t.letters, minlength=3)
        exp = np.asarray(d.probs) * n
        stat = float(((obs - exp) ** 2 / exp).sum())
        bad += stat > cutoff
    assert bad <= 1


def test_alias_sampling_path_frequencies():
    # five letters forces the alias tables (linear scan handles <= 4)
    al = Alphabet.from_string("abcde")
    d = SourceDist(al, (0.05, 0.1, 0.15, 0.3, 0.4))
    t = generate_text(d, 200_000, 11)
    freqs = np.bincount(t.letters, minlength=5) / t.length
    assert np.allclose(freqs, d.probs, atol=0.006)
    assert np.array_equal(t.letters, generate_text(d, 200_000, 11).letters)
