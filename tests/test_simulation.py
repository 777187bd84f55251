"""Monte Carlo engine: determinism, standardizations, regime diagnostics."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis, norm, skew

from conftest import ABC, binary_dist
from subseqstats import simulation
from subseqstats.simulation import (
    ExperimentConfig,
    auto_regime,
    _ln_count_atoms,
    PatternSpec,
    collect_ln_counts,
    ks_critical,
    ks_statistic,
    lasn_consistency_check,
    _skew_kurtosis,
    lognormal_parameters,
    normal_scale_factors,
    run_experiment,
    run_experiments,
    summarize_normal,
)
from subseqstats.source_model import Pattern, SourceDist


def make_cfg(**kw):
    defaults = dict(
        dist=binary_dist(0.5),
        pattern_spec=PatternSpec.explicit((0, 1)),
        n=50,
        trials=100,
        master_seed=1,
        regime="normal",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---- KS machinery ----------------------------------------------------------


def test_ks_statistic_on_ideal_sample():
    n = 4000
    ideal = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(ideal) < 0.5 / n + 1e-6
    assert ks_statistic(ideal + 0.5) > 0.15


def test_ks_critical_value():
    assert ks_critical(10_000) == pytest.approx(0.01358)
    for trials in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            ks_critical(trials)


@pytest.fixture(scope="module")
def binomial_lattice_sample():
    # T = (ln C(K, m) - a_n) / sqrt(b_n) with K ~ Binomial(n, 1/2) drawn
    # directly: the exact law of the log route for a^300 at n = 10^4
    n, m, trials = 10_000, 300, 100_000
    a_n, b_n = lognormal_parameters(n, m, 0.5)
    atoms = (_ln_count_atoms(n, m)[m:] - a_n) / math.sqrt(b_n)
    k = np.random.default_rng(1).binomial(n, 0.5, size=trials)
    return atoms[k - m], atoms, k, ks_critical(trials)


def test_lattice_ks_accepts_exact_lattice_law(binomial_lattice_sample):
    values, atoms, _, crit = binomial_lattice_sample
    lattice = ks_statistic(values, atoms)
    assert lattice < crit
    assert lattice <= ks_statistic(values)


def test_plain_ks_is_floored_by_the_largest_atom(binomial_lattice_sample):
    values, _, k, _ = binomial_lattice_sample
    largest_atom = np.unique(k, return_counts=True)[1].max() / k.size
    assert ks_statistic(values) >= 0.5 * largest_atom


def test_lattice_ks_rejects_a_shifted_lattice_law(binomial_lattice_sample):
    values, atoms, _, crit = binomial_lattice_sample
    # T has unit sd, so +0.02 moves the center by 0.02 sd
    assert ks_statistic(values + 0.02, atoms + 0.02) > crit


def test_lattice_ks_support_validation():
    with pytest.raises(ValueError, match="two points"):
        ks_statistic(np.zeros(5), np.zeros(3))


# ---- summary moments -------------------------------------------------------


@st.composite
def moment_samples(draw):
    """1-D float samples of 2 to 10^4 values: normal at any scale, constant,
    near-constant on a large offset, heavy-tailed, or lattice-valued like
    the a^m routes."""
    size = draw(st.integers(2, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "constant", "near_constant", "heavy", "lattice"]))
    if kind == "normal":
        return rng.standard_normal(size) * 10.0 ** draw(st.floats(-160, 60))
    if kind == "constant":
        return np.full(size, draw(st.floats(-1e12, 1e12)))
    if kind == "near_constant":
        offset = 10.0 ** draw(st.floats(0, 12))
        return offset + offset * 10.0 ** draw(st.floats(-18, -6)) * rng.standard_normal(size)
    if kind == "heavy":
        tail = draw(st.sampled_from(["cauchy", "pareto", "lognormal"]))
        if tail == "cauchy":
            return rng.standard_cauchy(size)
        if tail == "pareto":
            return rng.pareto(draw(st.floats(0.5, 3.0)), size)
        return rng.lognormal(0.0, draw(st.floats(0.5, 4.0)), size)
    # ln Z = ln C(N_a, m), N_a ~ Binomial(n, p), standardized by either route
    m = draw(st.integers(1, 40))
    n = draw(st.integers(6 * m, 2000))
    p = draw(st.floats(0.2, 0.8))
    dist = binary_dist(p)
    lnz = _ln_count_atoms(n, m)[rng.binomial(n, p, size)]
    if draw(st.booleans()):
        ln_ez, ln_scale = normal_scale_factors(dist, PatternSpec.constant(0, m).resolve(dist), n)
        return np.expm1(lnz - ln_ez) * math.exp(ln_ez - ln_scale)
    a_n, b_n = lognormal_parameters(n, m, p)
    used = lnz[np.isfinite(lnz)]
    assume(used.size >= 2)
    return (used - a_n) / math.sqrt(b_n)


@settings(max_examples=200, deadline=None)
@given(moment_samples())
def test_skew_kurtosis_bits_equal_scipy(x):
    with warnings.catch_warnings():
        # scipy warns of catastrophic cancellation on near-constant samples
        warnings.simplefilter("ignore")
        want = (float(skew(x)), float(kurtosis(x)))
    got = _skew_kurtosis(x)
    for g, w in zip(got, want):
        assert (math.isnan(g) and math.isnan(w)) or g.hex() == w.hex()


def test_constant_sample_summary_writes_null_moments(tmp_path):
    cfg = make_cfg()
    pattern = cfg.pattern_spec.resolve(cfg.dist)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = simulation._summarize(
            cfg, pattern, "normal", np.full(cfg.trials, 0.25), None, 0, 0.0, 0.0, tmp_path
        )
    assert math.isnan(summary.skewness) and math.isnan(summary.excess_kurtosis)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["skewness"] is None
    assert written["excess_kurtosis"] is None


def test_package_import_leaves_scipy_stats_unloaded():
    """The CLI, and every pool parent it forks, starts without scipy.stats
    or scipy.special.  A fresh interpreter: other test modules load both
    into this one."""
    src = Path(simulation.__file__).resolve().parents[1]
    code = (
        "import sys, subseqstats, subseqstats.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'special'])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


# ---- config validation -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(n=0)
    with pytest.raises(ValueError):
        make_cfg(trials=0)
    with pytest.raises(ValueError):
        make_cfg(regime="bogus")
    with pytest.raises(ValueError):
        make_cfg(standardization="bogus")
    with pytest.raises(ValueError):
        make_cfg(master_seed=-1)
    with pytest.raises(ValueError):
        make_cfg(master_seed=2**64 + 5)
    for bad in ({"n": 20.5}, {"trials": 10.0}, {"n": "20"}):
        with pytest.raises(TypeError):
            make_cfg(**bad)
    # numpy integers are integers
    cfg = make_cfg(n=np.int64(20), trials=np.int32(10), master_seed=np.uint64(3))
    assert (type(cfg.n), type(cfg.trials), type(cfg.master_seed)) == (int, int, int)
    assert cfg == make_cfg(n=20, trials=10, master_seed=3)


def test_collect_rejects_a_pattern_over_another_alphabet():
    cfg = make_cfg(n=10)
    for word in ("cc", "ab", "ccccccccccccc"):  # the last is longer than the text
        with pytest.raises(ValueError, match="different alphabets"):
            collect_ln_counts(cfg, Pattern.from_string(SourceDist.uniform(ABC), word))


def test_random_pattern_spec_deterministic():
    dist = binary_dist(0.5)
    a = PatternSpec.random(12, 7).resolve(dist)
    b = PatternSpec.random(12, 7).resolve(dist)
    c = PatternSpec.random(12, 8).resolve(dist)
    assert a.word == b.word
    assert a.word != c.word


def test_pattern_spec_refuses_letters_that_are_not_integers():
    dist = binary_dist(0.5)
    with pytest.raises(TypeError):
        PatternSpec.explicit((0.9, 1.9))
    with pytest.raises(TypeError):
        PatternSpec.constant(0.5, 3).resolve(dist)
    assert PatternSpec.explicit(np.array([0, 1], dtype=np.int8)).word == (0, 1)
    assert PatternSpec.constant(np.int64(1), 3).resolve(dist).word == (1, 1, 1)


# ---- determinism and worker invariance -------------------------------------


def test_collect_deterministic_and_worker_invariant():
    for spec in (PatternSpec.explicit((0, 1, 0)), PatternSpec.constant(0, 3)):
        cfg = make_cfg(pattern_spec=spec, n=40, trials=10_000)
        pat = spec.resolve(cfg.dist)
        one = collect_ln_counts(cfg, pat, workers=1)
        again = collect_ln_counts(cfg, pat, workers=1)
        threaded = collect_ln_counts(cfg, pat, workers=3)
        assert np.array_equal(one, again)
        assert np.array_equal(one, threaded)


def test_sample_files_identical_across_workers(tmp_path):
    cfg = make_cfg(n=60, trials=5000, master_seed=5)
    pat = cfg.pattern_spec.resolve(cfg.dist)
    for workers, sub in ((1, "w1"), (8, "w8")):
        lnz = collect_ln_counts(cfg, pat, workers=workers)
        summarize_normal(cfg, pat, lnz, tmp_path / sub)
    assert (tmp_path / "w1" / "samples.csv").read_bytes() == (
        tmp_path / "w8" / "samples.csv"
    ).read_bytes()
    assert (tmp_path / "w1" / "summary.json").read_bytes() == (
        tmp_path / "w8" / "summary.json"
    ).read_bytes()


def test_collect_pool_sized_to_spans(recorded_pools):
    cfg = make_cfg(n=20, trials=simulation.BATCH_SIZE + 1)  # two spans
    pat = cfg.pattern_spec.resolve(cfg.dist)
    serial = collect_ln_counts(cfg, pat, workers=1)
    assert recorded_pools == []
    assert np.array_equal(collect_ln_counts(cfg, pat, workers=3), serial)
    assert recorded_pools == [(2, "fork")]
    # an oversized request is capped before any process could start
    collect_ln_counts(cfg, pat, workers=10**6)
    assert recorded_pools[-1] == (2, "fork")


def test_collect_single_span_builds_no_pool(recorded_pools):
    for spec in (PatternSpec.explicit((0, 1, 0)), PatternSpec.constant(0, 3)):
        cfg = make_cfg(pattern_spec=spec, n=20, trials=simulation.BATCH_SIZE)
        collect_ln_counts(cfg, spec.resolve(cfg.dist), workers=8)
    assert recorded_pools == []


def test_collect_rejects_fewer_than_one_worker():
    cfg = make_cfg()
    pat = cfg.pattern_spec.resolve(cfg.dist)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            collect_ln_counts(cfg, pat, workers=workers)


@pytest.mark.parametrize("trials", [10, 2 * simulation.BATCH_SIZE + 1])
def test_run_experiments_rejects_a_fractional_worker_count(trials, recorded_pools):
    # one span and three: 1.5 workers is refused before any span runs
    cfg = make_cfg(n=20, trials=trials)
    with pytest.raises(TypeError):
        run_experiments((cfg,), workers=1.5)
    assert recorded_pools == []


# ---- normal route ----------------------------------------------------------


def test_normal_route_unbiasedness():
    cfg = make_cfg(
        pattern_spec=PatternSpec.explicit((0, 1, 0)), n=200, trials=20_000, master_seed=11
    )
    summary = run_experiment(cfg)["normal"]
    pat = cfg.pattern_spec.resolve(cfg.dist)
    ln_ez, ln_scale = normal_scale_factors(cfg.dist, pat, cfg.n)
    se = math.exp(ln_scale - ln_ez) / math.sqrt(cfg.trials)
    assert abs(summary.mean_rel_err) <= 4.0 * se
    assert summary.trials_used == cfg.trials
    assert summary.trials_skipped_zero == 0


def test_single_trial_has_no_ks():
    cfg = make_cfg(trials=1)
    summary = run_experiment(cfg)["normal"]
    assert summary.ks_stat is None
    assert not summary.pass_normality
    d = summary.to_dict()
    assert d["ks_stat"] is None
    assert d["var_rel_err"] is None  # undefined with one sample


def test_empirical_standardization_centers_sample():
    cfg = make_cfg(
        pattern_spec=PatternSpec.explicit((0, 1)),
        n=100,
        trials=5000,
        standardization="empirical",
        master_seed=4,
    )
    summary = run_experiment(cfg)["normal"]
    assert summary.emp_mean == pytest.approx(0.0, abs=1e-12)
    assert summary.emp_var == pytest.approx(1.0, rel=1e-9)


def test_empirical_standardization_rejects_one_kept_trial():
    for regime, m in (("normal", 2), ("lognormal", 60)):
        cfg = make_cfg(
            pattern_spec=PatternSpec.constant(0, m), n=20_000, trials=1, regime=regime,
            standardization="empirical",
        )
        with pytest.raises(ValueError, match="at least 2 kept trials"):
            run_experiment(cfg)


# ---- one runner, both routes -----------------------------------------------


def test_run_experiment_routes_share_one_sample(tmp_path):
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 30), n=5000, trials=300, master_seed=8,
        regime="lognormal",
    )
    both = run_experiment(cfg, ("lognormal", "normal"), tmp_path / "both")
    assert list(both) == ["lognormal", "normal"]
    for route in ("lognormal", "normal"):
        alone = run_experiment(replace(cfg, regime=route), out_dir=tmp_path / route)
        assert alone[route] == both[route]
        for name in ("samples.csv", "summary.json"):
            assert (tmp_path / route / name).read_bytes() == (
                tmp_path / "both" / route / name
            ).read_bytes()


def test_run_experiment_rejects_unknown_routes():
    for routes in ((), ("normal", "poisson")):
        with pytest.raises(ValueError, match="routes"):
            run_experiment(make_cfg(), routes)


def test_auto_regime_takes_normal_route_at_small_spread():
    # a^5 at n = 10^4 meets the gap condition, but b_n = 0.0025: both limits coincide
    dist = binary_dist(0.5)
    assert auto_regime(dist, PatternSpec.constant(0, 5).resolve(dist), 10_000) == "normal"
    assert auto_regime(dist, PatternSpec.constant(0, 300).resolve(dist), 10_000) == "lognormal"


# ---- log-normal route ------------------------------------------------------


def test_lognormal_route_small_scale_passes():
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 60),
        n=20_000,
        trials=4000,
        master_seed=913,
        regime="lognormal",
    )
    summary = run_experiment(cfg)["lognormal"]
    assert summary.pass_normality
    assert abs(summary.var_rel_err) < 0.10
    assert summary.trials_skipped_zero == 0
    assert summary.trials_used + summary.trials_skipped_zero == summary.trials


def test_lognormal_gap_precondition():
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 14),
        n=30,
        trials=50,
        regime="lognormal",
    )
    with pytest.raises(ValueError, match="sqrt"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "spec, match",
    [
        (PatternSpec.explicit((0, 1, 0)), "constant"),  # aba
        (PatternSpec.constant(0, 45), "sqrt"),  # gap n p_a - m = 5 < 10 sqrt(100)
    ],
)
def test_route_preconditions_fail_before_any_trial(monkeypatch, recorded_pools, spec, match):
    def never(*args, **kwargs):
        raise AssertionError("trials were counted for a route that refuses the instance")

    monkeypatch.setattr(simulation, "_count_span", never)
    cfg = make_cfg(pattern_spec=spec, n=100, trials=100_000, regime="lognormal")
    with pytest.raises(ValueError, match=match):
        run_experiment(cfg)
    with pytest.raises(ValueError, match=match):
        run_experiment(cfg, ("normal", "lognormal"), workers=2)
    # only the last config refuses: still nothing is counted and no pool is built
    fine = make_cfg(pattern_spec=PatternSpec.constant(0, 30), n=10_000, trials=100_000)
    with pytest.raises(ValueError, match=match):
        run_experiments([fine, replace(fine, master_seed=2), cfg], ("lognormal", "normal"), workers=2)
    assert recorded_pools == []


def test_run_experiments_matches_one_config_runs(tmp_path):
    cfgs = [make_cfg(n=60, trials=simulation.BATCH_SIZE + 1, master_seed=s) for s in (4, 5)]
    together = run_experiments(cfgs, out_dirs=[tmp_path / "a4", tmp_path / "a5"], workers=2)
    for cfg, summaries in zip(cfgs, together):
        sub = f"{cfg.master_seed}"
        assert run_experiment(cfg, out_dir=tmp_path / f"b{sub}") == summaries
        for name in ("samples.csv", "summary.json"):
            assert (tmp_path / f"a{sub}" / name).read_bytes() == (tmp_path / f"b{sub}" / name).read_bytes()
    with pytest.raises(ValueError, match="config"):
        run_experiments([])
    with pytest.raises(ValueError, match="out_dir"):
        run_experiments(cfgs, out_dirs=[tmp_path])


def test_lognormal_zero_skip_accounting(monkeypatch):
    # at n=30, m=10, p=1/2 about 5% of texts have too few a's, which
    # exceeds the 1% conforming limit; relax the gap gate to observe it
    monkeypatch.setattr(simulation, "LOGNORMAL_GAP_FACTOR", 0.0)
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 10),
        n=30,
        trials=2000,
        master_seed=3,
        regime="lognormal",
    )
    summary = run_experiment(cfg)["lognormal"]
    assert summary.trials_skipped_zero > 0
    assert summary.trials_used + summary.trials_skipped_zero == summary.trials
    assert not summary.skips_conforming
    assert not summary.pass_normality


def test_lognormal_requires_constant_pattern():
    cfg = make_cfg(pattern_spec=PatternSpec.explicit((0, 1)), regime="lognormal")
    with pytest.raises(ValueError, match="constant"):
        run_experiment(cfg)


def test_normal_route_must_fail_in_lognormal_regime():
    # fluctuations of ln Z are order 1 here, so the count-scale
    # standardization cannot look normal at any sample size
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 100),
        n=10_000,
        trials=4000,
        master_seed=101,
        regime="normal",
    )
    summary = run_experiment(cfg)["normal"]
    assert not summary.pass_normality
    assert summary.ks_stat > 5.0 * summary.ks_critical_5pct


# ---- parameterizations -----------------------------------------------------


def test_lognormal_parameter_forms_agree_for_small_m():
    n, m, p_a = 10_000, 20, 0.5
    _, b_n = lognormal_parameters(n, m, p_a)
    b_asym = (1.0 / p_a - 1.0) * m * m / n
    assert b_n == pytest.approx(b_asym, rel=0.02)


def test_lognormal_parameters_validation():
    with pytest.raises(ValueError):
        lognormal_parameters(100, 60, 0.5)  # m >= n p_a


# ---- two-standardization consistency ---------------------------------------


def test_lasn_equivalence_when_spread_is_small():
    rep = lasn_consistency_check(100_000, 30, 0.5, trials=1200, master_seed=913)
    assert rep.b_asym == pytest.approx(0.009, rel=1e-9)
    assert rep.equivalence_expected
    assert rep.pass_log_route and rep.pass_count_route

    rep9 = lasn_consistency_check(100_000, 30, 0.9, trials=1200, master_seed=913)
    assert rep9.equivalence_expected
    assert rep9.pass_log_route and rep9.pass_count_route


def test_lasn_divergence_when_spread_is_large():
    rep = lasn_consistency_check(10_000, 300, 0.5, trials=1200, master_seed=913)
    assert not rep.equivalence_expected
    assert rep.pass_log_route
    assert not rep.pass_count_route


def test_lasn_rejects_fewer_than_two_trials():
    with pytest.raises(ValueError, match="at least 2 trials"):
        lasn_consistency_check(2000, 5, 0.5, 1, 3)
