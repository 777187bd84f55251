"""Occurrence counting: DP vs brute force, exact vs log-space."""

import math

import numpy as np
import pytest

from conftest import AB, binary_dist, make_pattern, make_text, random_binary_text
from subseqstats.counting import (
    BRUTE_FORCE_LIMIT,
    _float_counts,
    batched_ln_counts,
    brute_force_count,
    constant_pattern_count,
    count_subsequences,
)
from subseqstats.source_model import Alphabet, SourceDist, Text


@pytest.fixture
def dist():
    return binary_dist(0.5)


@pytest.mark.parametrize(
    "text,pattern,want",
    [
        ("abab", "ab", 3),
        ("aaaa", "aa", 6),
        ("ab", "ba", 0),
        ("aabb", "ab", 4),
        ("abcabc", "abc", 4),
        ("aaaa", "aaaa", 1),
        ("a", "aa", 0),
    ],
)
def test_known_counts(text, pattern, want):
    al = Alphabet.from_string("abc")
    d = SourceDist.uniform(al)
    t = Text.from_string(text, al)
    p = make_pattern(pattern, d)
    got = count_subsequences(t, p, mode="exact")
    assert got.exact == want
    if want > 0:
        assert got.ln == pytest.approx(math.log(want), abs=1e-12)
    else:
        assert got.ln == -math.inf


def test_float_mode_skips_exact(dist):
    t = make_text("abab")
    got = count_subsequences(t, make_pattern("ab", dist), mode="float")
    assert got.exact is None
    assert got.ln == pytest.approx(math.log(3.0), rel=1e-12)


def test_constant_pattern_shortcut(dist):
    t = make_text("aabba")
    assert constant_pattern_count(t, 0, 2).exact == 3  # C(3, 2)
    assert constant_pattern_count(make_text("bbbb"), 0, 1).exact == 0
    assert constant_pattern_count(t, 1, 1).exact == 2
    assert constant_pattern_count(Text(np.array([0, 127, 127], dtype=np.int8)), 127, 2).exact == 1
    # a symbol the text cannot hold, and arguments that are not integers
    for symbol, m in ((2, 2), (5, 2), (-1, 2), (0, 0), (0.0, 2), (0, 2.0), ("a", 2)):
        with pytest.raises(ValueError):
            constant_pattern_count(t, symbol, m)
    for symbol in (128, 300, -1):
        with pytest.raises(ValueError):
            constant_pattern_count(Text(t.letters), symbol, 2)


def test_matches_brute_force_random_instances(dist):
    rng = np.random.default_rng(1234)
    patterns = [make_pattern(s, dist) for s in ("ab", "aba", "bba", "aa")]
    for _ in range(50):
        t = random_binary_text(rng, int(rng.integers(1, 11)))
        for p in patterns:
            assert count_subsequences(t, p).exact == brute_force_count(t, p)


def test_matches_brute_force_three_letters():
    al = Alphabet.from_string("abc")
    d = SourceDist.uniform(al)
    rng = np.random.default_rng(99)
    patterns = [make_pattern(s, d) for s in ("abc", "cab", "aab")]
    for _ in range(30):
        t = Text(rng.integers(0, 3, size=int(rng.integers(3, 10))).astype(np.int8), al)
        for p in patterns:
            assert count_subsequences(t, p).exact == brute_force_count(t, p)


def test_float_mode_tracks_exact_at_scale(dist):
    rng = np.random.default_rng(7)
    t = random_binary_text(rng, 2000)
    p = make_pattern("ab" * 10, dist)
    exact = count_subsequences(t, p, mode="exact")
    fl = count_subsequences(t, p, mode="float")
    ln_exact = exact.ln
    assert fl.ln == pytest.approx(ln_exact, rel=1e-8)
    # sanity: the exact integer round-trips through its own log rendering
    assert ln_exact == pytest.approx(math.log(exact.exact), abs=1e-9)


def test_float_mode_survives_huge_counts(dist):
    # counts near e^277 at n = 10^4: the float route agrees with the big-integer one
    rng = np.random.default_rng(5)
    t = random_binary_text(rng, 10_000)
    p = make_pattern("ab" * 25, dist)
    fl = count_subsequences(t, p, mode="float")
    assert math.isfinite(fl.ln)
    exact = count_subsequences(t, p, mode="exact")
    assert fl.ln == pytest.approx(exact.ln, rel=1e-8)


def test_exact_ln_of_counts_past_double_range(dist):
    # C(1100, 550) ~ e^759 and C(6000, 3000) ~ e^4155 have no double; ln is taken of the int
    cases = [
        (1100, count_subsequences(Text.from_string("a" * 1100, AB), make_pattern("a" * 550, dist))),
        (6000, constant_pattern_count(Text.from_string("a" * 6000, AB), 0, 3000)),
    ]
    for n, got in cases:
        assert got.exact == math.comb(n, n // 2) and got.exact.bit_length() > 1024
        assert got.ln == pytest.approx(math.lgamma(n + 1) - 2 * math.lgamma(n // 2 + 1), rel=1e-12)


def test_append_monotonicity(dist):
    rng = np.random.default_rng(21)
    p = make_pattern("aba", dist)
    letters = rng.integers(0, 2, size=40).astype(np.int8)
    prev = 0
    for end in range(3, 41):
        cur = count_subsequences(Text(letters[:end], AB), p).exact
        assert cur >= prev
        prev = cur


def test_concatenation_recurrence(dist):
    # Z_{xy}(w) = sum_j Z_x(w[:j]) * Z_y(w[j:]) with empty-pattern count 1
    rng = np.random.default_rng(3)
    word = "abba"
    p = make_pattern(word, dist)
    for _ in range(20):
        x = random_binary_text(rng, int(rng.integers(4, 12)))
        y = random_binary_text(rng, int(rng.integers(4, 12)))
        xy = Text(np.concatenate([x.letters, y.letters]), AB)
        total = 0
        for j in range(len(word) + 1):
            left = (
                count_subsequences(x, make_pattern(word[:j], dist)).exact if j else 1
            )
            right = (
                count_subsequences(y, make_pattern(word[j:], dist)).exact
                if j < len(word)
                else 1
            )
            total += left * right
        assert count_subsequences(xy, p).exact == total


def test_brute_force_guard(dist):
    rng = np.random.default_rng(2)
    t = random_binary_text(rng, 40)
    p = make_pattern("ab" * 5, dist)
    assert math.comb(40, 10) > BRUTE_FORCE_LIMIT
    with pytest.raises(ValueError, match=str(BRUTE_FORCE_LIMIT)):
        brute_force_count(t, p)


def test_batched_ln_counts_matches_scalar(dist):
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 2, size=(6, 30)).astype(np.int8)
    rows[2] = 0  # all-a row: pattern with b gives a zero count
    word = (0, 1, 0)
    got = batched_ln_counts(rows, word)
    p = make_pattern("aba", dist)
    for k in range(rows.shape[0]):
        want = count_subsequences(Text(rows[k], AB), p)
        if want.exact == 0:
            assert got[k] == -math.inf
        else:
            assert got[k] == pytest.approx(math.log(want.exact), rel=1e-10)


def test_kernel_rejects_texts_that_are_not_2d():
    with pytest.raises(ValueError, match="batch, n"):
        batched_ln_counts(np.zeros(10, dtype=np.int8), (0, 1))
    with pytest.raises(ValueError, match="batch, n"):
        batched_ln_counts(np.zeros((2, 3, 4), dtype=np.int8), (0, 1))


def test_kernel_rejects_texts_that_are_not_integers():
    # half letters would compare unequal to every word letter: -inf, silently
    with pytest.raises(ValueError, match="integer dtype"):
        batched_ln_counts(np.zeros((2, 5)) + 0.5, (0, 1))
    texts = np.array([[0, 1, 0, 1, 1], [1, 1, 0, 0, 1]])
    want = batched_ln_counts(texts.astype(np.int8), (0, 1))
    for dtype in (np.uint8, np.int16, np.int64):
        assert batched_ln_counts(texts.astype(dtype), (0, 1)).tobytes() == want.tobytes()


def test_kernel_rejects_words_that_are_not_integers():
    # (0.6, 1.9) would be truncated to (0, 1) and counted as that word
    texts = np.array([[0, 1, 0, 1, 1], [1, 1, 0, 0, 1]], dtype=np.int8)
    for word in ((0.6, 1.9), (0.0, 1.0), np.array([[0.5, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="integers"):
            _float_counts(texts, word)
    want = batched_ln_counts(texts, (0, 1))
    assert batched_ln_counts(texts, np.array([0, 1], dtype=np.int8)).tobytes() == want.tobytes()
    matrix = np.array([[0, 1], [0, 1]], dtype=np.int8)
    assert batched_ln_counts(texts, matrix).tobytes() == want.tobytes()
    z, shift = _float_counts(texts, np.zeros((2, 0)))  # empty words: one occurrence each
    assert z.tolist() == [1.0, 1.0] and shift.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("word", [(0, -1), (0, 128), (300,)])
def test_kernel_rejects_word_letters_outside_int8_range(word):
    # -1 is the padding sentinel of a word matrix and never a letter
    with pytest.raises(ValueError, match="127"):
        batched_ln_counts(np.zeros((2, 5), dtype=np.int8), word)


def test_kernel_rejects_word_matrix_with_wrong_row_count():
    with pytest.raises(ValueError, match=r"shape \(3, 2\).*one row per text \(2\)"):
        _float_counts(np.zeros((2, 5), dtype=np.int8), np.zeros((3, 2), dtype=np.int8))


def test_kernel_rejects_padding_inside_a_word_and_negative_letters():
    with pytest.raises(ValueError, match="padded with -1"):
        _float_counts(np.zeros((1, 5), dtype=np.int8), np.array([[0, -1, 1]]))
    with pytest.raises(ValueError, match="nonnegative"):
        _float_counts(np.array([[0, -1, 1]]), np.array([[0, -1, -1]]))


def test_pattern_longer_than_text(dist):
    t = make_text("ab")
    assert count_subsequences(t, make_pattern("aba", dist)).exact == 0
