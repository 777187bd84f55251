"""Source model: alphabets, distributions, patterns, seeded sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import AB, binary_dist
from subseqstats import source_model
from subseqstats.simulation import BATCH_SIZE, ExperimentConfig, PatternSpec, _count_span, _trial_spans
from subseqstats.source_model import (
    Alphabet,
    Pattern,
    SourceDist,
    Text,
    _letter_sampler,
    _seed_sequence_words,
    batch_letters,
    derive_seed,
    derive_seeds,
    generate_text,
    proportion_distance,
    stream_generators,
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


def test_source_dist_sum_check_adds_left_to_right():
    # the same three numbers, 1e-12 past 1: added left to right, one order
    # lands on the far side of the tolerance and the other does not; a
    # compensated sum (Python 3.12's builtin) would accept both
    abc = Alphabet.from_string("abc")
    SourceDist(abc, (0.600000000001, 0.1, 0.3))
    with pytest.raises(ValueError) as err:
        SourceDist(abc, (0.1, 0.3, 0.600000000001))
    assert str(err.value) == "probabilities sum to 1.000000000001, not 1"


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
    # letter indices are integers: a float is refused, not truncated
    for word in ((0.7, 1.2), (0, 1.0), ("0", 1)):
        with pytest.raises(TypeError):
            Pattern.from_indices(d, word)
    numpy_letters = Pattern.from_indices(d, np.array([0, 1, 0], dtype=np.int8))
    assert numpy_letters == p and type(numpy_letters.word[0]) is int


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


def test_derive_seed_rejects_master_seeds_outside_64_bits():
    for master in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError):
            derive_seed(master, 0)
    assert derive_seed(2**64 - 1, 0) == derive_seed(2**64 - 1, 0)


@settings(max_examples=200, deadline=None)
@given(master=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**40), count=st.integers(0, 40))
@example(master=0, lo=0, count=5)
@example(master=2**64 - 1, lo=0, count=5)
@example(master=2**64 - 1, lo=2**33, count=3)
@example(master=7, lo=12, count=0)
def test_derive_seeds_equals_derive_seed(master, lo, count):
    # uint64 arithmetic on arrays wraps without a warning; any warning fails the test
    got = derive_seeds(master, lo, lo + count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [derive_seed(master, t) for t in range(lo, lo + count)]


def test_derive_seeds_rejects_what_derive_seed_rejects():
    # a bare np.uint64(master) would raise OverflowError instead
    for master in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError):
            derive_seeds(master, 0, 3)
    with pytest.raises(ValueError):
        derive_seeds(5, -1, 3)
    with pytest.raises(ValueError):
        derive_seeds(5, 4, 3)
    # stream indices lie in [0, 2^64); 2^64 would wrap to index 0
    with pytest.raises(ValueError):
        derive_seed(5, 2**64)
    for lo, hi in ((2**64 - 1, 2**64 + 1), (2**64, 2**64 + 1), (0, 2**70)):
        with pytest.raises(ValueError):
            derive_seeds(5, lo, hi)
    assert derive_seeds(1, 2**64 - 1, 2**64).tolist() == [derive_seed(1, 2**64 - 1)]
    assert derive_seeds(1, 2**64 - 3, 2**64).tolist() == [derive_seed(1, 2**64 - j) for j in (3, 2, 1)]


def test_seeds_that_are_not_integers_rejected():
    # a float seed would be truncated to an integer further down, silently;
    # numpy integer seeds are integers and give the same streams as Python ints
    d = binary_dist(0.5)
    for bad in (1.5, 3.7, np.float64(2.0)):
        with pytest.raises(TypeError):
            derive_seed(bad, 0)
        with pytest.raises(TypeError):
            derive_seeds(bad, 0, 4)
        with pytest.raises(TypeError):
            generate_text(d, 10, bad)
        with pytest.raises(TypeError):
            batch_letters(d, 10, np.array([1.0, bad]))
        with pytest.raises(TypeError):
            ExperimentConfig(d, PatternSpec.constant(0, 2), 10, 4, bad, "normal")
    with pytest.raises(TypeError):
        derive_seeds(5, 0.5, 3)
    for good in (np.int64(5), np.uint64(5), np.int8(5)):
        assert derive_seed(good, 0) == derive_seed(5, 0)
        assert derive_seeds(good, 0, 4).tolist() == derive_seeds(5, 0, 4).tolist()
        assert np.array_equal(generate_text(d, 10, good).letters, generate_text(d, 10, 5).letters)
        cfg = ExperimentConfig(d, PatternSpec.constant(0, 2), 10, 4, good, "normal")
        assert type(cfg.master_seed) is int and cfg.master_seed == 5
    assert np.array_equal(batch_letters(d, 10, np.array([5, 6])), batch_letters(d, 10, [5, 6]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=1)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**64 - 1)
def test_stream_state_matches_numpy_seeding(seed):
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert np.array_equal(_seed_sequence_words([seed])[:, 0], words)
    gen = next(stream_generators([seed]))
    want = np.random.PCG64(seed)
    assert gen.bit_generator.state == want.state
    assert np.array_equal(gen.random(64), np.random.Generator(want).random(64))


def test_streams_of_one_batch_do_not_share_state():
    seeds = [derive_seed(77, t) for t in range(3)]
    streams = stream_generators(seeds)
    first = next(streams)
    # an odd number of 32-bit draws leaves half a 64-bit output buffered
    first.integers(0, 2**32, size=3, dtype=np.uint32)
    first.random(5)
    for seed, gen in zip(seeds[1:], streams):
        want = np.random.Generator(np.random.PCG64(seed))
        assert np.array_equal(
            gen.integers(0, 2**32, size=3, dtype=np.uint32),
            want.integers(0, 2**32, size=3, dtype=np.uint32),
        )
        assert np.array_equal(gen.random(64), want.random(64))


def test_streams_of_one_call_are_independent():
    # every stream is its own Generator: drawn from in turn, across the
    # 256-seed chunks, each gives numpy's stream for its own seed
    seeds = [derive_seed(5, t) for t in range(300)]
    streams = list(stream_generators(seeds))
    wants = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    for size in (1, 7, 3):
        for gen, want in zip(streams, wants):
            assert np.array_equal(gen.random(size), want.random(size))


def test_stream_words_refuse_any_other_request():
    # numpy's PCG64 reads 4 uint64 words from the array's memory; any
    # other request means it seeds differently, so fail rather than misread
    gen = next(stream_generators([7]))
    words = gen.bit_generator.seed_seq
    assert np.array_equal(words.generate_state(4, np.uint64), _seed_sequence_words([7])[:, 0])
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (5, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            words.generate_state(n_words, dtype)


def test_stream_seeds_outside_64_bits_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            list(stream_generators([3, seed]))
        with pytest.raises(ValueError):
            generate_text(binary_dist(0.5), 10, seed)


def test_generate_text_deterministic():
    d = binary_dist(0.5)
    t1 = generate_text(d, 1000, 42)
    t2 = generate_text(d, 1000, 42)
    t3 = generate_text(d, 1000, 43)
    assert np.array_equal(t1.letters, t2.letters)
    assert not np.array_equal(t1.letters, t3.letters)


def test_batch_letters_matches_scalar_path():
    # three and five letters, both through the one compare-sum sampler
    for d in (
        SourceDist(Alphabet.from_string("abc"), (0.2, 0.5, 0.3)),
        SourceDist(Alphabet.from_string("abcde"), (0.05, 0.1, 0.15, 0.3, 0.4)),
    ):
        seeds = [derive_seed(9, t) for t in range(8)]
        block = batch_letters(d, 64, seeds)
        assert block.shape == (8, 64)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, generate_text(d, 64, seed).letters)


def _letters_of_stream(dist: SourceDist, n: int, seed) -> np.ndarray:
    """The sampler's letters of n uniforms from a fresh numpy PCG64 seeded with seed."""
    u = np.random.Generator(np.random.PCG64(int(seed))).random(n)
    return _letter_sampler(dist)(u, np.empty(n, dtype=np.int8))


_THREE = SourceDist(Alphabet.from_string("abc"), (0.2, 0.5, 0.3))
_FIVE = SourceDist(Alphabet.from_string("abcde"), (0.05, 0.1, 0.15, 0.3, 0.4))


@pytest.mark.parametrize("dist", [binary_dist(0.7), _THREE, _FIVE], ids=["two", "three", "five"])
@pytest.mark.parametrize(
    "n, streams",
    [
        (0, 3),  # no uniforms at all
        (1000, 65),  # exactly one block of 2^16 // 1000 = 65 rows
        (1000, 131),  # two full blocks and one row more
        (2**16, 2),  # one row fills a block
        (2**16 + 3, 3),  # a row longer than a block: one row per block
    ],
)
def test_batch_letters_rows_across_block_boundaries(dist, n, streams):
    seeds = derive_seeds(41, 0, streams)
    block = batch_letters(dist, n, seeds)
    assert block.dtype == np.int8 and block.shape == (streams, n)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, _letters_of_stream(dist, n, seed))


@settings(max_examples=40, deadline=None)
@given(
    cells=st.sampled_from((1, 5, 64, 999)),
    n=st.integers(0, 70),
    streams=st.integers(0, 30),
    five=st.booleans(),
)
def test_batch_letters_rows_for_any_block_size(cells, n, streams, five):
    # a smaller block puts every boundary case into a few cheap calls
    dist = _FIVE if five else _THREE
    seeds = derive_seeds(43, 0, streams)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(source_model, "_BLOCK_CELLS", cells)
        block = batch_letters(dist, n, seeds)
    assert block.shape == (streams, n)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, _letters_of_stream(dist, n, seed))


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


def test_five_letter_sampling_frequencies():
    # five letters, drawn by the compare-sum like every alphabet size
    al = Alphabet.from_string("abcde")
    d = SourceDist(al, (0.05, 0.1, 0.15, 0.3, 0.4))
    t = generate_text(d, 200_000, 11)
    freqs = np.bincount(t.letters, minlength=5) / t.length
    assert np.allclose(freqs, d.probs, atol=0.006)
    assert np.array_equal(t.letters, generate_text(d, 200_000, 11).letters)


# ---- the letter sampler and the a^m span counts ---------------------------------


# the 127 symbols of the largest alphabet; its compare-sum peaks at 126 in int8
_SYMBOLS = "".join(chr(0x100 + j) for j in range(127))
# alphabet sizes from two letters up to the int8 limit
_SIZES = (2, 3, 4, 5, 6, 8, 20, 40, 126, 127)


def _source(weights) -> SourceDist:
    k = len(weights)
    return SourceDist(Alphabet.from_string(_SYMBOLS[:k]), tuple(w / sum(weights) for w in weights))


# float CDFs that end below 1.0: a uniform at or above cum[k-1] still maps to k-1
_SHORT = [
    SourceDist(Alphabet.from_string(_SYMBOLS[:k]), (1.0 / k,) * (k - 1) + (1.0 / k - 1e-13,))
    for k in _SIZES
]


def _constant_counts(dist: SourceDist, n: int, trials: int, master: int, a: int) -> np.ndarray:
    """N_a of every trial of an a^m run, counted on the span driver as the simulation counts it."""
    cfg = ExperimentConfig(dist, PatternSpec.constant(a, 1), n, trials, master, "normal")
    pattern = cfg.pattern_spec.resolve(dist)
    return next(_trial_spans(_count_span, [((cfg, pattern), master, trials)], 1))


@st.composite
def _weights(draw):
    k = draw(st.sampled_from(_SIZES) | st.integers(2, 127))
    return draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(
    weights=_weights(),
    short=st.sampled_from([None, *_SHORT]),
    master=st.integers(0, 2**64 - 1),
    n=st.integers(1, 400),
    trials=st.integers(1, 12),
)
def test_count_matches_drawn_letters(weights, short, master, n, trials):
    dist = short or _source(weights)
    k = dist.alphabet.size
    letters = batch_letters(dist, n, derive_seeds(master, 0, trials))
    assert letters.dtype == np.int8 and letters.shape == (trials, n)
    assert np.all((letters >= 0) & (letters < k))
    for a in range(k):
        counts = _constant_counts(dist, n, trials, master, a)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.count_nonzero(letters == a, axis=1))


@pytest.mark.parametrize(
    "n, trials",
    [
        (600, 500),  # blocks of 2^16 // 600 = 109 rows, the last one short
        (2**16 + 3, 3),  # a row longer than a block: one row per block
        (8, BATCH_SIZE + 1),  # two spans, the second of one trial
    ],
)
def test_constant_counts_across_block_and_span_edges(n, trials):
    letters = batch_letters(_THREE, n, derive_seeds(29, 0, trials))
    for a in range(_THREE.alphabet.size):
        counts = _constant_counts(_THREE, n, trials, 29, a)
        assert np.array_equal(counts, np.count_nonzero(letters == a, axis=1))


@st.composite
def _uniforms_at_the_edges(draw):
    dist = draw(st.sampled_from(_SHORT))
    cum = np.cumsum(np.asarray(dist.probs))
    top = np.nextafter(1.0, 0.0)
    edges = [0.0, top, *cum, *np.nextafter(cum, 0.0), *np.minimum(np.nextafter(cum, 1.0), top)]
    u = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    return dist, cum, u


@settings(max_examples=100, deadline=None)
@given(case=_uniforms_at_the_edges())
def test_letters_and_counts_at_cdf_edges(case):
    # a^m counts are counts of these letters, so the letters carry the check
    dist, cum, u = case
    k = dist.alphabet.size
    assert cum[-1] < 1.0
    # the uniforms as one row of a block
    block = np.asarray(u, dtype=np.float64).reshape(1, -1)
    letters = _letter_sampler(dist)(block, np.empty(block.shape, dtype=np.int8))[0]
    assert letters.dtype == np.int8 and np.all((letters >= 0) & (letters < k))
    # inverse-CDF search with the top index clamped to the last letter
    want = np.minimum(np.searchsorted(cum, np.asarray(u), side="right"), k - 1)
    assert np.array_equal(letters, want)
