"""Mutual information of the i.i.d. deletion channel via occurrence counts.

A binary input of length n passes a memoryless channel that deletes each
letter independently with probability d.  The output is a subsequence of
the input, and the channel law is governed by occurrence counts:
P(output = z | input = x) = Z_x(z) * d^(n-|z|) * (1-d)^|z|, with Z_x(z)
the number of occurrences of z as a subsequence of x.  Grouping the
mutual information by output word gives

    I = sum_w d^(n-|w|) (1-d)^|w| * (E[Z ln Z] - E[Z] ln E[Z]),

with Z = Z_X(w) over the random input X and the convention 0 ln 0 = 0.
The module evaluates that identity from exact count tables and, as an
independent route, evaluates H(output) - H(output | input) by direct
subset enumeration of the channel law; both are exact up to float
rounding and must agree.  The Monte Carlo routes run on the span driver
of ``simulation``, trial t on the stream seed derived from
(master_seed, t), as every experiment does.
"""

from __future__ import annotations

import math
import operator
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .counting import _float_counts
from .moments import log_binomial
from .simulation import ExperimentConfig, PatternSpec, _trial_spans, collect_ln_counts
from .source_model import Pattern, SourceDist, _letter_sampler, left_sum, stream_blocks

# exact enumeration walks all 2^n inputs and their 2^n subsets
ENUM_N_LIMIT = 12


@dataclass(frozen=True)
class ChannelConfig:
    """Binary i.i.d. source of length n feeding a deletion channel."""

    dist: SourceDist
    n: int
    d: float

    def __post_init__(self):
        if self.dist.alphabet.size != 2:
            raise ValueError("deletion-channel analysis supports binary sources only")
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (0.0 < self.d < 1.0):
            raise ValueError("deletion probability d must lie strictly in (0, 1)")


def _check_enum(n: int) -> None:
    if n > ENUM_N_LIMIT:
        raise ValueError(
            f"exact channel enumeration supports n <= {ENUM_N_LIMIT}, got {n}"
        )


@lru_cache(maxsize=4)
def _count_tables(n: int):
    """For every binary input of length n, the map output -> occurrence count."""
    texts = list(product((0, 1), repeat=n))
    tables = []
    for x in texts:
        counts: dict = {}
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                z = tuple(x[i] for i in subset)
                counts[z] = counts.get(z, 0) + 1
        tables.append(counts)
    return texts, tables


def _text_probs(cfg: ChannelConfig, texts) -> np.ndarray:
    p0, p1 = cfg.dist.probs
    out = np.empty(len(texts))
    for idx, x in enumerate(texts):
        ones = sum(x)
        out[idx] = p1**ones * p0 ** (len(x) - ones)
    return out


def exact_mutual_information_via_counts(cfg: ChannelConfig) -> float:
    """I in nats through the count-moment identity, grouped by output word."""
    _check_enum(cfg.n)
    texts, tables = _count_tables(cfg.n)
    px = _text_probs(cfg, texts)
    e_z: dict = {}
    e_zlnz: dict = {}
    for p, counts in zip(px, tables):
        for z, cnt in counts.items():
            e_z[z] = e_z.get(z, 0.0) + p * cnt
            if cnt > 1:
                e_zlnz[z] = e_zlnz.get(z, 0.0) + p * cnt * math.log(cnt)
    g = [cfg.d ** (cfg.n - k) * (1.0 - cfg.d) ** k for k in range(cfg.n + 1)]
    total = 0.0
    for z, ez in e_z.items():
        total += g[len(z)] * (e_zlnz.get(z, 0.0) - ez * math.log(ez))
    return total


def exact_mutual_information_direct(cfg: ChannelConfig) -> float:
    """I in nats as H(output) - H(output | input), law built subset by subset."""
    _check_enum(cfg.n)
    n = cfg.n
    g = [cfg.d ** (n - k) * (1.0 - cfg.d) ** k for k in range(n + 1)]
    texts = list(product((0, 1), repeat=n))
    px = _text_probs(cfg, texts)
    h_out_given_in = 0.0
    p_out: dict = {}
    for p, x in zip(px, texts):
        law: dict = {}
        for k in range(n + 1):
            mass = g[k]
            for subset in combinations(range(n), k):
                z = tuple(x[i] for i in subset)
                law[z] = law.get(z, 0.0) + mass
        h_row = -left_sum(pz * math.log(pz) for pz in law.values())
        h_out_given_in += p * h_row
        for z, pz in law.items():
            p_out[z] = p_out.get(z, 0.0) + p * pz
    h_out = -left_sum(pz * math.log(pz) for pz in p_out.values())
    return h_out - h_out_given_in


def conditional_row_sums(cfg: ChannelConfig) -> np.ndarray:
    """Total conditional mass per input; every entry must be 1."""
    _check_enum(cfg.n)
    texts, tables = _count_tables(cfg.n)
    g = [cfg.d ** (cfg.n - k) * (1.0 - cfg.d) ** k for k in range(cfg.n + 1)]
    sums = np.empty(len(texts))
    for idx, counts in enumerate(tables):
        sums[idx] = left_sum(cnt * g[len(z)] for z, cnt in counts.items())
    return sums


@dataclass(frozen=True)
class McMoments:
    """Monte Carlo estimates of E[Z] and E[Z ln Z] for one output word.

    ``e_z_ln`` carries the first moment on the log scale (-inf when the
    estimate is zero), which stays meaningful when E[Z] itself would
    crowd the top of the double range.
    """

    trials: int
    e_z: float
    e_z_ln: float
    e_z_stderr: float
    e_z_ln_z: float
    e_z_ln_z_stderr: float


def mc_count_moment(
    dist: SourceDist, pattern: Pattern, n: int, trials: int, master_seed: int
) -> McMoments:
    """Estimate the two count moments by sampling texts.

    Meant for moderate n where the moments fit doubles.  The counts come
    from ``simulation.collect_ln_counts``, so trial t sees the same text
    as in every other experiment with this master seed.
    """
    cfg = ExperimentConfig(dist, PatternSpec.explicit(pattern.word), n, trials, master_seed, "normal")
    lnz = collect_ln_counts(cfg, pattern)
    z = np.exp(lnz)  # a zero count has ln Z = -inf and gives z = 0
    zl = z * np.where(np.isfinite(lnz), lnz, 0.0)
    mean_z = float(z.sum()) / trials
    mean_zl = float(zl.sum()) / trials
    var_z = max(float((z * z).sum()) / trials - mean_z**2, 0.0)
    var_zl = max(float((zl * zl).sum()) / trials - mean_zl**2, 0.0)
    return McMoments(
        trials=trials,
        e_z=mean_z,
        e_z_ln=math.log(mean_z) if mean_z > 0.0 else -math.inf,
        e_z_stderr=math.sqrt(var_z / trials),
        e_z_ln_z=mean_zl,
        e_z_ln_z_stderr=math.sqrt(var_zl / trials),
    )


@dataclass(frozen=True)
class McMutualInformation:
    trials: int
    mi: float
    stderr: float


@lru_cache(maxsize=8)
def _ln_binomials(n: int) -> np.ndarray:
    """ln C(n, k) for k = 0..n, read-only."""
    row = np.array([log_binomial(n, k) for k in range(n + 1)])
    row.flags.writeable = False
    return row


def _densities(cfg: ChannelConfig, seeds: np.ndarray) -> np.ndarray:
    """Information densities of the trials of ``seeds`` whose output is not
    empty, in trial order.  A stream's first n uniforms give its input's
    letters, the next n its deletion mask.  ln p_y is a running
    ``np.cumsum``, left to right in every Python version (``sum`` over
    floats is compensated from Python 3.12 on), and ln Z is ``math.log``
    per row.
    """
    n = cfg.n
    letters = _letter_sampler(cfg.dist)
    inputs = np.empty((len(seeds), n), dtype=np.int8)
    keep = np.empty((len(seeds), n), dtype=bool)
    for row, block in stream_blocks(seeds, 2 * n):
        letters(block[:, :n], inputs[row : row + len(block)])
        np.greater_equal(block[:, n:], cfg.d, out=keep[row : row + len(block)])
    del block  # free the block buffer before the kernel allocates its own
    ends = np.count_nonzero(keep, axis=1)
    words = np.full((len(inputs), ends.max()), -1, dtype=np.int8)
    # the kept letters in row-major order (compress: inputs[keep], at a quarter of the time)
    words[np.arange(words.shape[1]) < ends[:, None]] = inputs.compress(keep.ravel())
    z, shift = _float_counts(inputs, words)
    # ln p_y: the letter logs of each word added left to right, padding past its end
    ln_py = np.array([math.log(p) for p in cfg.dist.probs]).take(words)
    np.cumsum(ln_py, axis=1, out=ln_py)
    kept = np.flatnonzero(ends)  # an empty output carries zero information density
    size = ends[kept]
    ln_ez = _ln_binomials(n)[size] + ln_py[kept, size - 1]
    ln_z = np.fromiter(map(math.log, z[kept].tolist()), float, len(kept))
    return (ln_z + shift[kept]) - ln_ez


def mc_mutual_information(
    cfg: ChannelConfig, trials: int, master_seed: int, workers: int = 1
) -> McMutualInformation:
    """Monte Carlo estimate of I in nats, one (input, output) draw per trial.

    With P(z | x) = Z_x(z) d^(n-|z|) (1-d)^|z| and the output marginal
    P(z) = E[Z(z)] d^(n-|z|) (1-d)^|z|, the deletion weights cancel in
    the information density, leaving ln Z_x(z) - ln E[Z(z)] per sampled
    pair.  Each trial costs one count DP, so this route has no n cap.
    Trial t draws 2n uniforms from its own stream, its input's letters
    and then its deletion mask, on the span driver that runs every Monte
    Carlo of the package; the trials of a span share one kernel call, and
    with ``workers`` > 1 the spans run over a fork pool of that many
    processes.  The sums of the densities and of their squares are each
    one ``np.cumsum``, which adds in trial order, so the bits do not
    depend on ``workers``.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    with closing(_trial_spans(_densities, [((cfg,), master_seed, trials)], workers)) as spans:
        vals = next(spans)
    total = np.cumsum(np.concatenate(([0.0], vals)))[-1]
    total_sq = np.cumsum(np.concatenate(([0.0], vals * vals)))[-1]
    mean = float(total) / trials
    var = max(float(total_sq) / trials - mean * mean, 0.0)
    return McMutualInformation(trials, mean, math.sqrt(var / trials))


def nats_to_bits(value: float) -> float:
    return value / math.log(2.0)
