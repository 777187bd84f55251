"""Monte Carlo engine: determinism, standardizations, regime diagnostics."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from conftest import binary_dist
from subseqstats.simulation import (
    ExperimentConfig,
    _ln_count_atoms,
    PatternSpec,
    collect_ln_counts,
    ks_critical,
    ks_statistic,
    lasn_consistency_check,
    lognormal_parameters,
    normal_scale_factors,
    run_lognormal_experiment,
    run_normal_experiment,
    summarize_normal,
)


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


def test_random_pattern_spec_deterministic():
    dist = binary_dist(0.5)
    a = PatternSpec.random(12, 7).resolve(dist)
    b = PatternSpec.random(12, 7).resolve(dist)
    c = PatternSpec.random(12, 8).resolve(dist)
    assert a.word == b.word
    assert a.word != c.word


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


# ---- normal route ----------------------------------------------------------


def test_normal_route_unbiasedness():
    cfg = make_cfg(
        pattern_spec=PatternSpec.explicit((0, 1, 0)), n=200, trials=20_000, master_seed=11
    )
    summary = run_normal_experiment(cfg)
    pat = cfg.pattern_spec.resolve(cfg.dist)
    ln_ez, ln_scale = normal_scale_factors(cfg.dist, pat, cfg.n)
    se = math.exp(ln_scale - ln_ez) / math.sqrt(cfg.trials)
    assert abs(summary.mean_rel_err) <= 4.0 * se
    assert summary.trials_used == cfg.trials
    assert summary.trials_skipped_zero == 0


def test_normal_route_regime_mismatch():
    cfg = make_cfg(regime="lognormal")
    with pytest.raises(ValueError):
        run_normal_experiment(cfg)


def test_single_trial_has_no_ks():
    cfg = make_cfg(trials=1)
    summary = run_normal_experiment(cfg)
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
    summary = run_normal_experiment(cfg)
    assert summary.emp_mean == pytest.approx(0.0, abs=1e-12)
    assert summary.emp_var == pytest.approx(1.0, rel=1e-9)


# ---- log-normal route ------------------------------------------------------


def test_lognormal_route_small_scale_passes():
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 60),
        n=20_000,
        trials=4000,
        master_seed=913,
        regime="lognormal",
    )
    summary = run_lognormal_experiment(cfg)
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
        run_lognormal_experiment(cfg)


def test_lognormal_zero_skip_accounting():
    # at n=30, m=10, p=1/2 about 5% of texts have too few a's, which
    # exceeds the 1% conforming limit; relax the gap gate to observe it
    cfg = make_cfg(
        pattern_spec=PatternSpec.constant(0, 10),
        n=30,
        trials=2000,
        master_seed=3,
        regime="lognormal",
        gap_factor=0.0,
    )
    summary = run_lognormal_experiment(cfg)
    assert summary.trials_skipped_zero > 0
    assert summary.trials_used + summary.trials_skipped_zero == summary.trials
    assert not summary.skips_conforming
    assert not summary.pass_normality


def test_lognormal_requires_constant_pattern():
    cfg = make_cfg(pattern_spec=PatternSpec.explicit((0, 1)), regime="lognormal")
    with pytest.raises(ValueError, match="constant"):
        run_lognormal_experiment(cfg)


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
    summary = run_normal_experiment(cfg)
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
