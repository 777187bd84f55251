"""Alphabet, source distribution, pattern and text types plus seeded generation.

Text letters are i.i.d. draws from a fixed distribution over a finite
alphabet.  Symbols are handled as integer indices internally; strings
appear only at construction and display time.  Generation is driven by a
per-stream seed so that a master seed plus a trial index always yields
the same text regardless of how trials are grouped into batches.  Each
stream is its own Generator over numpy's PCG64, seeded in C from the
words that a numpy port of ``SeedSequence`` computes for many seeds at
once; ``derive_seeds`` gives a span's stream seeds as one uint64 array.
Every uniform is read through ``stream_blocks``: streams fill the rows
of a reused block, and one sampler turns a whole block into letters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MAX_DENOMINATOR = 10**6
_GOLDEN64 = 0x9E3779B97F4A7C15
# a block of stream uniforms holds at most this many cells, or one stream if that is longer
_BLOCK_CELLS = 2**16


def left_sum(values) -> float:
    """Floats added left to right from 0.0: the bits of the builtin ``sum``
    up to Python 3.11, which from 3.12 on compensates float sums."""
    return reduce(operator.add, values, 0.0)


def derive_seed(master_seed: int, stream_index: int) -> int:
    """Map (master seed, stream index) to a 64-bit stream seed.

    SplitMix64 finalizer on master + index * golden-ratio increment.
    Distinct indices give well-spread seeds even for master seeds that
    differ by small amounts.  Arguments that are not integers, and master
    seeds and stream indices outside [0, 2^64), are rejected.
    """
    master_seed, stream_index = operator.index(master_seed), operator.index(stream_index)
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    if not 0 <= stream_index <= _MASK64:
        raise ValueError(f"stream index must lie in [0, 2^64), got {stream_index}")
    x = (master_seed + (stream_index + 1) * _GOLDEN64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_seed(master_seed, t)`` for t in [lo, hi), as a uint64 array.

    The same SplitMix64 steps on uint64 arrays, which wrap modulo 2^64
    without a warning (numpy scalars would warn).  Master seeds outside
    [0, 2^64), indices outside it and arguments that are not integers are
    rejected as ``derive_seed`` does.
    """
    master_seed, lo, hi = operator.index(master_seed), operator.index(lo), operator.index(hi)
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    if lo < 0 or hi > _MASK64 + 1:
        raise ValueError(f"stream indices [{lo}, {hi}) must lie in [0, 2^64)")
    if hi < lo:
        raise ValueError(f"stream index range [{lo}, {hi}) is reversed")
    # index 2^64 - 1 plus 1 wraps to 0, as in derive_seed
    x = np.arange(lo, hi, dtype=np.uint64) + np.uint64(1)
    x *= np.uint64(_GOLDEN64)
    x += np.uint64(master_seed)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")
        if len(self.symbols) > 127:
            raise ValueError("alphabet has more than 127 symbols; letters are int8 indices")

    @classmethod
    def from_string(cls, s: str) -> "Alphabet":
        return cls(tuple(s))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, ch: str) -> int:
        try:
            return self.symbols.index(ch)
        except ValueError:
            raise ValueError(f"symbol {ch!r} not in alphabet {''.join(self.symbols)!r}") from None

    def to_indices(self, s: str) -> tuple[int, ...]:
        return tuple(self.index(ch) for ch in s)

    def to_string(self, indices) -> str:
        return "".join(self.symbols[i] for i in indices)


@dataclass(frozen=True)
class SourceDist:
    """Letter distribution with all probabilities strictly inside (0, 1)."""

    alphabet: Alphabet
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != self.alphabet.size:
            raise ValueError("probs length must match alphabet size")
        if any(not (0.0 < p < 1.0) for p in self.probs):
            raise ValueError("each probability must lie strictly in (0, 1)")
        total = left_sum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "SourceDist":
        k = alphabet.size
        return cls(alphabet, tuple(1.0 / k for _ in range(k)))

    def ln_prob(self, word) -> float:
        """ln p_w: the log-probability that len(word) independent letters spell word."""
        return left_sum(math.log(self.probs[j]) for j in word)

    @property
    def min_prob(self) -> float:
        return min(self.probs)

    @property
    def b_const(self) -> float:
        """1/min_a p_a - 1, the scale constant in the variance bounds."""
        return 1.0 / self.min_prob - 1.0

    def rational_probs(self) -> tuple[Fraction, ...]:
        """Rational rendering of the probabilities for exact arithmetic.

        Each probability is rationalized independently, with denominators
        up to 10^6; the results must sum to exactly 1 or the rendering is
        rejected, since exact-route identities are meaningless under an
        inconsistent rationalization.
        """
        rats = tuple(Fraction(p).limit_denominator(_MAX_DENOMINATOR) for p in self.probs)
        if sum(rats) != 1:
            raise ValueError(
                "rationalized probabilities do not sum to 1 exactly; "
                "supply probabilities with small exact denominators"
            )
        return rats


@dataclass(frozen=True)
class Pattern:
    """Fixed pattern word over an alphabet.

    ``symbol_counts`` holds, per alphabet symbol, the number of pattern
    positions using it.  The match probability p_w depends on the source,
    so it is read from one with ``SourceDist.ln_prob(pattern.word)``.
    """

    alphabet: Alphabet
    word: tuple[int, ...]
    symbol_counts: tuple[int, ...]

    @classmethod
    def from_indices(cls, dist: SourceDist, word) -> "Pattern":
        word = tuple(operator.index(j) for j in word)
        if len(word) == 0:
            raise ValueError("pattern must be nonempty")
        k = dist.alphabet.size
        if any(not (0 <= j < k) for j in word):
            raise ValueError("pattern letter index out of alphabet range")
        return cls(dist.alphabet, word, tuple(word.count(a) for a in range(k)))

    @classmethod
    def from_string(cls, dist: SourceDist, s: str) -> "Pattern":
        return cls.from_indices(dist, dist.alphabet.to_indices(s))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_constant(self) -> bool:
        return len(set(self.word)) == 1

    def proportions(self) -> tuple[Fraction, ...]:
        """Per-symbol usage frequencies q_a = (# positions using a) / m."""
        m = self.length
        return tuple(Fraction(c, m) for c in self.symbol_counts)

    def to_string(self) -> str:
        return self.alphabet.to_string(self.word)


@dataclass(eq=False)
class Text:
    """Letter sequence as an int8 index array, optionally tagged with its alphabet."""

    letters: np.ndarray
    alphabet: Alphabet | None = None

    def __post_init__(self):
        arr = np.asarray(self.letters).astype(np.int8, copy=False)
        if not np.array_equal(arr, self.letters):
            raise ValueError("letter indices must be integers that fit int8")
        if arr.ndim != 1:
            raise ValueError("letters must be one-dimensional")
        if arr.size and arr.min() < 0:
            raise ValueError("letter indices must be nonnegative")
        if self.alphabet is not None and arr.size and arr.max() >= self.alphabet.size:
            raise ValueError("letter index out of alphabet range")
        arr.flags.writeable = False
        self.letters = arr

    @classmethod
    def from_string(cls, s: str, alphabet: Alphabet) -> "Text":
        return cls(np.array(alphabet.to_indices(s), dtype=np.int8), alphabet)

    @property
    def length(self) -> int:
        return int(self.letters.size)

    def to_string(self) -> str:
        if self.alphabet is None:
            raise ValueError("text has no alphabet attached")
        return self.alphabet.to_string(self.letters)


# ---- sampling --------------------------------------------------------


def _letter_sampler(dist: SourceDist):
    """The function ``letters(u, out)`` that turns a block of uniforms into letters.

    It writes the letter of every uniform of the float array u into the
    int8 array ``out`` of u's shape and returns it.  U gives letter a iff
    cum[a-1] <= U < cum[a] for the float CDF cum; the last letter also
    takes U >= cum[k-1], which rounding can leave below 1.  The letters
    are the compare-sum of U with cum[0], ..., cum[k-2]: k - 1 passes over
    the block, which beyond about 40 letters is slower than an alias step.
    """
    k = dist.alphabet.size
    cum = np.cumsum(np.asarray(dist.probs))

    def letters(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.greater_equal(u, cum[0], out=out.view(np.bool_))
        for c in cum[1 : k - 1]:
            out += u >= c
        return out

    return letters


def _hash_multipliers(init: int, mult: int, calls: int) -> np.ndarray:
    """The running multiplier of ``calls`` consecutive SeedSequence hashes, as a uint32 column."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)[:, None]


# 4 hashes fill SeedSequence's pool and 12 mix it; generate_state(4, uint64) hashes 8 words
_POOL_HASH = _hash_multipliers(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASH = _hash_multipliers(0x8B51F9DD, 0x58F38DED, 8)


def _hash(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """numpy's hashmix, one row per call: h[i] and h[i + 1] are call i's multipliers."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> np.uint32(16))


def _seed_array(seeds) -> np.ndarray:
    """Stream seeds as a uint64 array; non-integers and seeds outside [0, 2^64) are rejected."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    seeds = [operator.index(s) for s in seeds]
    if seeds and (min(seeds) < 0 or max(seeds) > _MASK64):
        raise ValueError("stream seeds must lie in [0, 2^64)")
    return np.array(seeds, dtype=np.uint64)


def _seed_sequence_words(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, one column per seed.

    A port of numpy's ``SeedSequence`` (O'Neill's seed_seq_fe hash) on
    uint32 arrays.  The entropy is the seed's two 32-bit words, low first
    (numpy's pad for a seed below 2^32, hashmix(0), equals a zero high
    word).  Seeds outside [0, 2^64) are rejected.
    """
    s64 = _seed_array(seeds)
    pool = np.zeros((4, len(s64)), dtype=np.uint32)
    pool[0] = s64 & 0xFFFFFFFF
    pool[1] = s64 >> 32
    pool = _hash(pool, _POOL_HASH[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hash(pool[src], _POOL_HASH[4 + 3 * src : 8 + 3 * src])
        mixed = pool[dst] * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = _hash(np.tile(pool, (2, 1)), _OUT_HASH).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)  # little-endian word pairs


class _StreamWords(ISeedSequence):
    """One stream's ``SeedSequence`` words, from which ``np.random.PCG64`` seeds itself."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 reads the array's memory as 4 uint64 words; refuse any other request
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def stream_generators(seeds):
    """Yield, for each seed in turn, its own Generator over ``np.random.PCG64(seed)``.

    The streams behind ``stream_blocks``, its one caller in the package.
    ``seeds`` is a uint64 array (``derive_seeds``) or any iterable of
    ints.  The ``SeedSequence`` words come from ``_seed_sequence_words``,
    256 seeds at a time, which keeps the word table small.
    """
    seeds = _seed_array(seeds)
    for lo in range(0, len(seeds), 256):
        for words in _seed_sequence_words(seeds[lo : lo + 256]).T.copy():  # C-contiguous rows
            yield np.random.Generator(np.random.PCG64(_StreamWords(words)))


def stream_blocks(seeds, k: int):
    """Yield (lo, block): row i of the float block holds the first k uniforms of stream lo + i.

    Streams fill the rows of one reused buffer of at most _BLOCK_CELLS
    cells (one row if k is larger), each with ``Generator.random(out=row)``,
    which gives the bits of ``random(k)``.  A block is overwritten by the
    next, so a caller reads it before asking for the next one.
    """
    seeds = _seed_array(seeds)
    rows = max(1, _BLOCK_CELLS // max(k, 1))
    buf = np.empty((min(rows, len(seeds)), k))
    streams = stream_generators(seeds)
    for lo in range(0, len(seeds), rows):
        block = buf[: len(seeds) - lo]
        for row, gen in zip(block, streams):
            gen.random(out=row)
        yield lo, block


def generate_text(dist: SourceDist, n: int, seed: int) -> Text:
    """Draw n i.i.d. letters; same (dist, n, seed) always gives the same text."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Text(batch_letters(dist, n, [seed])[0], dist.alphabet)


def batch_letters(dist: SourceDist, n: int, stream_seeds) -> np.ndarray:
    """Stack texts for several stream seeds into a (len(seeds), n) int8 array.

    Each row is generated from its own PCG64 stream, so the rows do not
    depend on how the seeds were grouped into batches.  The streams fill
    blocks of uniforms (``stream_blocks``), and each block becomes letters
    in one pass of the sampler over the whole block.
    """
    seeds = _seed_array(stream_seeds)
    letters = _letter_sampler(dist)
    out = np.empty((len(seeds), n), dtype=np.int8)
    for lo, block in stream_blocks(seeds, n):
        letters(block, out[lo : lo + len(block)])
    return out


def proportion_distance(pattern: Pattern, dist: SourceDist) -> float:
    """Euclidean distance between pattern letter proportions and source probs."""
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    q = pattern.proportions()
    return math.sqrt(left_sum((float(qa) - pa) ** 2 for qa, pa in zip(q, dist.probs)))
