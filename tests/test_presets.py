"""Preset plumbing plus the deterministic and fast-passing preset gates.

The two heavyweight presets whose gates intentionally report failure at
desk scale are exercised by the acceptance suite; here we cover the
dispatch machinery and the presets that pass.
"""

import json
import multiprocessing

import pytest

from subseqstats import simulation
from subseqstats.presets import PRESETS, TRIAL_PRESETS, run_preset


def test_registry_names():
    assert set(PRESETS) == {
        "t2a_normal",
        "tka_skewed",
        "tln_lognormal",
        "eaaa_dichotomy",
        "tllow_alternating",
        "tlrandom_scaling",
        "cor_random_normal",
    }


def test_unknown_preset_and_bad_override():
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset("nope")
    with pytest.raises(ValueError, match="overrides"):
        run_preset("tllow_alternating", bogus=1)
    # each kind of preset rejects the other kind's overrides
    for name, key, value in [
        ("t2a_normal", "n_max", 3),
        ("tllow_alternating", "trials", 5),
        ("tlrandom_scaling", "seeds", (1,)),
    ]:
        with pytest.raises(ValueError, match=key):
            run_preset(name, **{key: value})


def test_run_preset_forks_one_pool_for_all_seeds(recorded_pools):
    uneven = simulation.BATCH_SIZE + 1  # two spans per seed
    run_preset("t2a_normal", workers=2, trials=uneven, seeds=(1, 2, 3))
    assert recorded_pools == [(2, "fork")]
    run_preset("t2a_normal", workers=1, trials=uneven, seeds=(1, 2, 3))
    run_preset("t2a_normal", workers=2, trials=simulation.BATCH_SIZE, seeds=(1,))
    assert recorded_pools == [(2, "fork")]
    with pytest.raises(ValueError, match="workers"):
        run_preset("t2a_normal", workers=0, trials=uneven, seeds=(1,))
    assert recorded_pools == [(2, "fork")]


def test_summary_error_leaves_no_child(monkeypatch):
    summarize = simulation.summarize_normal
    calls = []

    def fails_on_second_seed(cfg, *args):
        calls.append(cfg.master_seed)
        if len(calls) == 2:
            raise RuntimeError("summary failed")
        return summarize(cfg, *args)

    monkeypatch.setattr(simulation, "summarize_normal", fails_on_second_seed)
    with pytest.raises(RuntimeError, match="summary failed"):
        run_preset("t2a_normal", workers=2, trials=simulation.BATCH_SIZE + 1, seeds=(1, 2, 3))
    assert calls == [1, 2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "name, trials, seeds",
    [
        ("t2a_normal", simulation.BATCH_SIZE + 1, (1, 2, 3)),
        ("tln_lognormal", 4097, (1, 2)),  # seed_<s>/<route>/ layout
    ],
)
def test_preset_files_identical_across_workers(tmp_path, name, trials, seeds):
    def files(workers):
        root = tmp_path / f"w{workers}"
        run_preset(name, out_dir=root, workers=workers, trials=trials, seeds=seeds)
        return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

    serial = files(1)
    assert "report.json" in serial
    # report.json plus samples.csv and summary.json per seed and route
    assert len(serial) == 1 + 2 * len(seeds) * len(TRIAL_PRESETS[name].routes)
    assert files(3) == serial


def test_alternating_bound_sweep_small(tmp_path):
    report = run_preset("tllow_alternating", out_dir=tmp_path, n_max=40)
    assert report.passed
    assert report.params["worst_ratio"] < 1.0
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["passed"] is True
    assert on_disk["preset"] == "tllow_alternating"


def test_random_pattern_scaling_preset():
    report = run_preset("tlrandom_scaling", patterns=200)
    assert report.passed
    ratios = report.params["ratios"]
    assert set(ratios) == {"n=400,m=20", "n=1600,m=40", "n=6400,m=80"}
    assert all(0.85 <= v <= 0.95 for v in ratios.values())


def test_random_pattern_scaling_rejects_fewer_than_two_patterns():
    # one pattern has no standard error, so the SE-unit gate would read nan
    for patterns in (0, 1):
        with pytest.raises(ValueError, match="at least 2 patterns"):
            run_preset("tlrandom_scaling", patterns=patterns)


def test_dichotomy_preset_full_scale():
    # log-scale standardization passes while the count-scale one fails,
    # on the same collected samples, for at least 4 of 5 seeds
    report = run_preset("eaaa_dichotomy", trials=10_000)
    assert report.passed, [g.to_dict() for g in report.gates]


def test_random_pattern_clt_preset_full_scale():
    report = run_preset("cor_random_normal", trials=5000)
    assert report.passed, [g.to_dict() for g in report.gates]
