"""Deletion channel: identity equivalence, oracles, MC estimators."""

import itertools
import math
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AB, binary_dist, make_pattern
from subseqstats import simulation
from subseqstats.channel import (
    ChannelConfig,
    McMoments,
    McMutualInformation,
    _densities,
    conditional_row_sums,
    exact_mutual_information_direct,
    exact_mutual_information_via_counts,
    mc_count_moment,
    mc_mutual_information,
    nats_to_bits,
)
from subseqstats.counting import _float_counts, count_subsequences
from subseqstats.moments import expected_count, log_binomial
from subseqstats.simulation import BATCH_SIZE, _trial_spans
from subseqstats.source_model import Alphabet, Pattern, SourceDist, Text, derive_seed


def cfg_for(p0: float, n: int, d: float) -> ChannelConfig:
    return ChannelConfig(binary_dist(p0), n, d)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(SourceDist.uniform(Alphabet.from_string("abc")), 4, 0.5)
    with pytest.raises(ValueError):
        cfg_for(0.5, 0, 0.5)
    with pytest.raises(ValueError):
        cfg_for(0.5, 4, 0.0)
    with pytest.raises(ValueError):
        cfg_for(0.5, 4, 1.0)
    with pytest.raises(ValueError):
        exact_mutual_information_via_counts(cfg_for(0.5, 13, 0.5))
    with pytest.raises(TypeError):
        cfg_for(0.5, 6.5, 0.3)
    # numpy integers are integers
    assert type(cfg_for(0.5, np.int64(6), 0.3).n) is int


def test_single_letter_closed_form():
    # with n=1 the channel is an erasure: I = (1-d) H(source)
    for p0, d in ((0.5, 0.3), (0.7, 0.6)):
        h = -(p0 * math.log(p0) + (1 - p0) * math.log(1 - p0))
        want = (1.0 - d) * h
        assert exact_mutual_information_via_counts(cfg_for(p0, 1, d)) == pytest.approx(
            want, abs=1e-12
        )


def test_rows_sum_to_one():
    for p0 in (0.5, 0.7):
        for d in (0.2, 0.5, 0.8):
            sums = conditional_row_sums(cfg_for(p0, 6, d))
            assert np.allclose(sums, 1.0, atol=1e-12)


def test_two_formulas_agree():
    for p0, n, d in ((0.7, 4, 0.3), (0.5, 6, 0.5)):
        a = exact_mutual_information_via_counts(cfg_for(p0, n, d))
        b = exact_mutual_information_direct(cfg_for(p0, n, d))
        assert a == pytest.approx(b, abs=1e-9)


def test_monotone_in_deletion_rate():
    vals = [
        exact_mutual_information_via_counts(cfg_for(0.5, 6, d))
        for d in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_information_bounds():
    for p0, n, d in ((0.5, 5, 0.4), (0.7, 7, 0.2)):
        mi = exact_mutual_information_via_counts(cfg_for(p0, n, d))
        assert 0.0 <= mi <= n * math.log(2.0)


def test_units_conversion():
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0)


# ---- Monte Carlo moment estimator ------------------------------------------


def test_mc_moment_pattern_longer_than_text():
    dist = binary_dist(0.5)
    got = mc_count_moment(dist, make_pattern("aaa", dist), 2, 100, 1)
    assert got == McMoments(100, 0.0, -math.inf, 0.0, 0.0, 0.0)


def test_mc_moment_mean_matches_closed_form():
    dist = binary_dist(0.5)
    p = make_pattern("ab", dist)
    est = mc_count_moment(dist, p, 10, 1_000_000, 31)
    want = math.exp(expected_count(dist, p, 10))
    assert abs(est.e_z - want) <= 4.0 * est.e_z_stderr
    assert est.e_z_ln == pytest.approx(math.log(est.e_z))


def test_mc_moment_zlogz_matches_exhaustive():
    dist = binary_dist(0.5)
    p = make_pattern("ab", dist)
    n = 10
    want = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        t = Text(np.asarray(bits, dtype=np.int8), AB)
        z = count_subsequences(t, p).exact
        if z > 0:
            want += z * math.log(z) / 2**n
    est = mc_count_moment(dist, p, n, 1_000_000, 31)
    assert abs(est.e_z_ln_z - want) <= 4.0 * est.e_z_ln_z_stderr


# ---- Monte Carlo mutual information ----------------------------------------


def test_mc_mutual_information_matches_exact():
    cfg = cfg_for(0.5, 6, 0.5)
    exact = exact_mutual_information_via_counts(cfg)
    est = mc_mutual_information(cfg, 20_000, 7)
    assert abs(est.mi - exact) <= 4.0 * est.stderr
    cfg2 = cfg_for(0.7, 8, 0.3)
    exact2 = exact_mutual_information_via_counts(cfg2)
    est2 = mc_mutual_information(cfg2, 20_000, 7)
    assert abs(est2.mi - exact2) <= 4.0 * est2.stderr


def test_mc_mutual_information_beyond_enumeration_cap():
    # the sampling route has no n cap; just confirm it runs and is sane
    cfg = cfg_for(0.5, 40, 0.5)
    est = mc_mutual_information(cfg, 2000, 3)
    assert 0.0 < est.mi < 40 * math.log(2.0)


def _per_row_mutual_information(cfg: ChannelConfig, trials: int, master_seed: int) -> McMutualInformation:
    """Frozen copy of the per-trial Monte Carlo that the block draw replaced.

    Trial t takes n letters by the CDF compare, then n mask uniforms, from
    numpy's own PCG64 seeded with derive_seed(master_seed, t); densities
    are added one trial at a time.
    """
    n = cfg.n
    ln_p = np.array([math.log(p) for p in cfg.dist.probs])
    ln_binom = [log_binomial(n, k) for k in range(n + 1)]
    cum = np.cumsum(np.asarray(cfg.dist.probs))
    total = 0.0
    total_sq = 0.0
    for lo in range(0, trials, BATCH_SIZE):
        inputs, outputs = [], []
        for t in range(lo, min(lo + BATCH_SIZE, trials)):
            gen = np.random.Generator(np.random.PCG64(derive_seed(master_seed, t)))
            inputs.append((gen.random(n) >= cum[0]).view(np.int8))
            outputs.append(inputs[-1][gen.random(n) >= cfg.d])
        words = np.full((len(outputs), max(y.size for y in outputs)), -1, dtype=np.int8)
        for row, y in enumerate(outputs):
            words[row, : y.size] = y
        z, shift = _float_counts(np.stack(inputs), words)
        ln_py = np.cumsum(ln_p[words], axis=1)
        for row, y in enumerate(outputs):
            if y.size:
                ln_ez = ln_binom[y.size] + float(ln_py[row, y.size - 1])
                val = (math.log(z[row]) + float(shift[row])) - ln_ez
                total += val
                total_sq += val * val
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return McMutualInformation(trials, mean, math.sqrt(var / trials))


@settings(max_examples=60, deadline=None)
@given(
    p0=st.floats(0.01, 0.99),
    n=st.integers(1, 40),
    d=st.sampled_from((0.01, 0.3, 0.5, 0.9, 0.99)) | st.floats(0.01, 0.99),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
@example(p0=0.5, n=1, d=0.99, trials=5, seed=3)  # every output empty
@example(p0=0.5, n=1, d=0.99, trials=BATCH_SIZE + 3, seed=3)  # the second span's outputs all empty
@example(p0=0.7, n=3, d=0.3, trials=2 * BATCH_SIZE + 17, seed=2**64 - 1)  # sums carried over three spans
@example(p0=0.5, n=40, d=0.01, trials=300, seed=0)
def test_mc_mutual_information_bits_equal_per_row_oracle(p0, n, d, trials, seed):
    cfg = cfg_for(p0, n, d)
    got = mc_mutual_information(cfg, trials, seed)
    want = _per_row_mutual_information(cfg, trials, seed)
    assert got.trials == want.trials == trials
    assert (got.mi.hex(), got.stderr.hex()) == (want.mi.hex(), want.stderr.hex())


@pytest.mark.parametrize(
    "p0, n, d, trials, seed",
    [(0.5, 1, 0.99, BATCH_SIZE + 3, 3), (0.7, 3, 0.3, 2 * BATCH_SIZE + 17, 2**64 - 1), (0.5, 40, 0.01, 300, 0)],
)
def test_mc_mutual_information_bits_equal_per_row_oracle_at_two_workers(p0, n, d, trials, seed):
    cfg = cfg_for(p0, n, d)
    got = mc_mutual_information(cfg, trials, seed, workers=2)
    want = _per_row_mutual_information(cfg, trials, seed)
    assert (got.mi.hex(), got.stderr.hex()) == (want.mi.hex(), want.stderr.hex())


def test_channel_spans_join_alike_in_a_fork_pool(monkeypatch):
    built = []

    class RecordingPool(simulation.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            built.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    jobs = [((cfg_for(0.7, 24, 0.3),), 2**64 - 1, 2 * BATCH_SIZE + 17)]  # three spans
    with closing(_trial_spans(_densities, jobs, 1)) as spans:
        serial = next(spans)
    assert built == []
    with closing(_trial_spans(_densities, jobs, 2)) as spans:
        pooled = next(spans)
    assert built == [2]
    assert pooled.dtype == serial.dtype and pooled.tobytes() == serial.tobytes()


def test_mc_rejects_master_seeds_outside_64_bits():
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError):
            mc_mutual_information(cfg_for(0.5, 6, 0.5), 10, seed)


@pytest.mark.parametrize("trials", [100, BATCH_SIZE + 1])
def test_mc_rejects_a_fractional_worker_count(trials):
    # on one span and on two: 1.5 is not a worker count
    with pytest.raises(TypeError):
        mc_mutual_information(cfg_for(0.5, 6, 0.5), trials, 1, workers=1.5)


def test_mc_validation():
    cfg = cfg_for(0.5, 6, 0.5)
    with pytest.raises(ValueError):
        mc_mutual_information(cfg, 0, 1)
    with pytest.raises(ValueError, match="workers"):
        mc_mutual_information(cfg, 10, 1, workers=0)
    with pytest.raises(ValueError):
        mc_count_moment(binary_dist(0.5), make_pattern("ab", binary_dist(0.5)), 10, 0, 1)
    with pytest.raises(TypeError):
        mc_mutual_information(cfg, 10.0, 1)
    assert mc_mutual_information(cfg, np.int32(10), 1) == mc_mutual_information(cfg, 10, 1)
    abc = SourceDist.uniform(Alphabet.from_string("abc"))
    for word in ("cc", "ab", "ccccccccccccc"):  # the last is longer than the text
        with pytest.raises(ValueError, match="different alphabets"):
            mc_count_moment(binary_dist(0.5), Pattern.from_string(abc, word), 10, 100, 1)
