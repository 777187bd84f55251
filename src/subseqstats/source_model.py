"""Alphabet, source distribution, pattern and text types plus seeded generation.

Text letters are i.i.d. draws from a fixed distribution over a finite
alphabet.  Symbols are handled as integer indices internally; strings
appear only at construction and display time.  Generation is driven by a
per-stream seed so that a master seed plus a trial index always yields
the same text regardless of how trials are grouped into batches.  The
streams of a batch share one Generator, set to each seed's PCG64 start
state, which a numpy port of ``SeedSequence`` computes.  One sampler
turns a stream's uniforms into letters, or into the count of one letter
without forming the letters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MAX_DENOMINATOR = 10**6


def left_sum(values) -> float:
    """Floats added left to right from 0.0: the bits of the builtin ``sum``
    up to Python 3.11, which from 3.12 on compensates float sums."""
    return reduce(operator.add, values, 0.0)


def derive_seed(master_seed: int, stream_index: int) -> int:
    """Map (master seed, stream index) to a 64-bit stream seed.

    SplitMix64 finalizer on master + index * golden-ratio increment.
    Distinct indices give well-spread seeds even for master seeds that
    differ by small amounts.  Master seeds outside [0, 2^64) are rejected.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    if stream_index < 0:
        raise ValueError("stream_index must be nonnegative")
    x = (master_seed + (stream_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
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
        word = tuple(int(j) for j in word)
        if len(word) == 0:
            raise ValueError("pattern must be nonempty")
        k = dist.alphabet.size
        if any(not (0 <= j < k) for j in word):
            raise ValueError("pattern letter index out of alphabet range")
        counts = [0] * k
        for j in word:
            counts[j] += 1
        return cls(dist.alphabet, word, tuple(counts))

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

# alphabets up to this size compare each uniform with the CDF; larger ones use an alias table
_SCAN_MAX = 4


def _alias_tables(probs):
    """Vose alias construction; deterministic for a fixed probs tuple."""
    k = len(probs)
    accept = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    scaled = [p * k for p in probs]
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        accept[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    for i in large:
        accept[i] = 1.0
        alias[i] = i
    for i in small:
        # only reachable through rounding; total mass is conserved
        accept[i] = 1.0
        alias[i] = i
    return accept, alias


class _Sampler(NamedTuple):
    draw: Callable[[np.random.Generator, int], np.ndarray]
    count: Callable[[np.random.Generator, int, int], int]


def _letter_sampler(dist: SourceDist) -> _Sampler:
    """Letters, or the count of one letter, from n uniforms of a stream.

    ``draw(rng, n)`` returns n int8 letters; ``count(rng, n, a)`` how many
    of them are a, from the same uniforms but forming no letter.  Up to
    ``_SCAN_MAX`` letters, U gives letter a iff cum[a-1] <= U < cum[a] for
    the float CDF cum; the last letter also takes U >= cum[k-1], which
    rounding can leave below 1.  Tables are built once per sampler.
    """
    k = dist.alphabet.size
    if k <= _SCAN_MAX:
        cum = np.cumsum(np.asarray(dist.probs))

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            u = rng.random(n)
            idx = (u >= cum[0]).view(np.int8)
            for c in cum[1 : k - 1]:
                idx += u >= c
            return idx

        def count(rng: np.random.Generator, n: int, a: int) -> int:
            u = rng.random(n)
            below = n if a == k - 1 else np.count_nonzero(u < cum[a])
            return below - (np.count_nonzero(u < cum[a - 1]) if a else 0)

    else:
        accept, alias = _alias_tables(dist.probs)

        def draw(rng: np.random.Generator, n: int) -> np.ndarray:
            v = rng.random(n) * k
            idx = v.astype(np.int64)
            np.minimum(idx, k - 1, out=idx)
            frac = v - idx
            return np.where(frac < accept[idx], idx, alias[idx]).astype(np.int8)

        def count(rng: np.random.Generator, n: int, a: int) -> int:
            return np.count_nonzero(draw(rng, n) == a)

    return _Sampler(draw, count)


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


def _seed_sequence_words(seeds: list) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, one column per seed.

    A port of numpy's ``SeedSequence`` (O'Neill's seed_seq_fe hash) on
    uint32 arrays.  The entropy is the seed's two 32-bit words, low first
    (numpy's pad for a seed below 2^32, hashmix(0), equals a zero high
    word).  Seeds outside [0, 2^64) are rejected.
    """
    if seeds and (min(seeds) < 0 or max(seeds) > _MASK64):
        raise ValueError("stream seeds must lie in [0, 2^64)")
    s64 = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
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


def stream_generators(seeds):
    """Yield a Generator in the start state of numpy's PCG64 seeded with each seed in turn.

    One Generator is reused, its state set before each yield, so a caller
    takes all of a stream's draws before the next.  States are computed
    256 seeds at a time, which keeps the state table small.
    """
    seeds = list(seeds)
    gen = np.random.default_rng(0)
    for lo in range(0, len(seeds), 256):
        words = _seed_sequence_words(seeds[lo : lo + 256]).tolist()
        for hi_state, lo_state, hi_seq, lo_seq in zip(*words):
            # PCG64's seeding: two LCG steps from state 0, initstate added after the first
            inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
            state = ((inc + (hi_state << 64 | lo_state)) * _PCG64_MULT + inc) & _MASK128
            gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            yield gen


def generate_text(dist: SourceDist, n: int, seed: int) -> Text:
    """Draw n i.i.d. letters; same (dist, n, seed) always gives the same text."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Text(batch_letters(dist, n, [seed])[0], dist.alphabet)


def batch_letters(dist: SourceDist, n: int, stream_seeds) -> np.ndarray:
    """Stack texts for several stream seeds into a (len(seeds), n) int8 array.

    Each row is generated from its own PCG64 stream, so the rows do not
    depend on how the seeds were grouped into batches.
    """
    seeds = list(stream_seeds)
    draw = _letter_sampler(dist).draw
    out = np.empty((len(seeds), n), dtype=np.int8)
    for row, rng in enumerate(stream_generators(seeds)):
        out[row] = draw(rng, n)
    return out


def proportion_distance(pattern: Pattern, dist: SourceDist) -> float:
    """Euclidean distance between pattern letter proportions and source probs."""
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    q = pattern.proportions()
    return math.sqrt(left_sum((float(qa) - pa) ** 2 for qa, pa in zip(q, dist.probs)))
