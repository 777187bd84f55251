"""CLI: JSON contracts, file outputs, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from subseqstats.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_count_exact(capsys):
    code, doc = run_cli(capsys, ["count", "--text", "abab", "--pattern", "ab"])
    assert code == 0
    assert doc == {
        "n": 4,
        "m": 2,
        "count": "3",
        "ln_count": pytest.approx(math.log(3.0)),
    }


def test_count_float_mode_and_zero(capsys):
    code, doc = run_cli(
        capsys, ["count", "--text", "abab", "--pattern", "ab", "--mode", "float"]
    )
    assert code == 0
    assert doc["count"] is None
    assert doc["ln_count"] == pytest.approx(math.log(3.0))
    code, doc = run_cli(capsys, ["count", "--text", "bb", "--pattern", "ab"])
    assert doc["count"] == "0"
    assert doc["ln_count"] is None


def test_count_single_letter_text(capsys):
    code, doc = run_cli(capsys, ["count", "--text", "aaaa", "--pattern", "aa"])
    assert code == 0
    assert doc["count"] == "6"


def test_moments_includes_exact_companions(capsys):
    code, doc = run_cli(
        capsys,
        ["moments", "--n", "5", "--pattern", "ab", "--probs", "0.5,0.5"],
    )
    assert code == 0
    assert doc["expected_exact"] == "5/2"
    assert doc["expected"]["sign"] == 1
    assert doc["expected"]["ln_abs"] == pytest.approx(math.log(2.5))
    assert "sigma1_sq_exact" in doc


def test_decompose_echoes_rationalization(capsys):
    code, doc = run_cli(
        capsys,
        ["decompose", "--text", "abab", "--pattern", "ab", "--probs", "0.5,0.5"],
    )
    assert code == 0
    assert doc["levels"] == ["6", "4", "2"]
    assert doc["normalized_count"] == "12"
    assert doc["residual"] == "0"
    assert doc["rationalized_probs"] == ["1/2", "1/2"]


def test_simulate_writes_outputs_and_is_deterministic(tmp_path, capsys):
    argv = [
        "simulate",
        "--n", "50",
        "--pattern", "aba",
        "--probs", "0.5,0.5",
        "--trials", "400",
        "--seed", "21",
        "--regime", "normal",
    ]
    code, doc = run_cli(capsys, argv + ["--out", str(tmp_path / "one")])
    assert code == 0
    assert doc["regime"] == "normal"
    assert doc["trials"] == 400
    code, _ = run_cli(capsys, argv + ["--out", str(tmp_path / "two"), "--workers", "4"])
    assert code == 0
    for name in ("samples.csv", "summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()
    header, first = (tmp_path / "one" / "samples.csv").read_text().splitlines()[:2]
    assert header == "standardized_value"
    float(first)  # parses as a number


def test_workers_below_one_exit_2(tmp_path, capsys):
    simulate = ["simulate", "--n", "50", "--pattern", "aba", "--probs", "0.5,0.5",
                "--trials", "400", "--seed", "21", "--out", str(tmp_path / "sim")]
    preset = ["preset", "--name", "tllow_alternating"]
    for argv in (simulate, preset):
        assert main(argv + ["--workers", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "sim").exists()


def test_simulate_auto_regime_resolution(tmp_path, capsys):
    code, doc = run_cli(
        capsys,
        [
            "simulate",
            "--n", "10000",
            "--pattern", "const:a,300",
            "--probs", "0.5,0.5",
            "--trials", "100",
            "--seed", "5",
            "--regime", "auto",
            "--out", str(tmp_path / "ln"),
        ],
    )
    assert code == 0
    assert doc["regime"] == "lognormal"
    code, doc = run_cli(
        capsys,
        [
            "simulate",
            "--n", "200",
            "--pattern", "alt:4",
            "--probs", "0.5,0.5",
            "--trials", "100",
            "--seed", "5",
            "--regime", "auto",
            "--out", str(tmp_path / "alt"),
        ],
    )
    assert code == 0
    assert doc["regime"] == "normal"
    assert doc["pattern"] == "abab"


def test_simulate_auto_regime_respects_lognormal_gap(tmp_path, capsys):
    # b_n > 0.1, but n p_a - m = 45 is below 10 sqrt(n): the log-normal route
    # would refuse this instance, so auto takes the normal one
    code, doc = run_cli(
        capsys,
        [
            "simulate",
            "--n", "100",
            "--pattern", "const:a,5",
            "--probs", "0.5,0.5",
            "--trials", "50",
            "--seed", "1",
            "--regime", "auto",
            "--out", str(tmp_path),
        ],
    )
    assert code == 0
    assert doc["regime"] == "normal"


def test_simulate_empirical_rejects_zero_spread(tmp_path, capsys):
    # no text of length 3 among these 5 trials holds "aaa", so every Z is 0
    code, doc = run_cli(
        capsys,
        [
            "simulate",
            "--n", "3",
            "--pattern", "aaa",
            "--probs", "0.5,0.5",
            "--trials", "5",
            "--seed", "3",
            "--regime", "normal",
            "--standardization", "empirical",
            "--out", str(tmp_path / "out"),
        ],
    )
    assert (code, doc) == (2, None)
    assert not (tmp_path / "out").exists()


def test_channel_mi_methods_agree(capsys):
    base = ["channel-mi", "--n", "6", "--d", "0.5", "--probs", "0.5,0.5"]
    _, counts = run_cli(capsys, base)
    _, direct = run_cli(capsys, base + ["--method", "direct"])
    assert counts["mi"] == pytest.approx(direct["mi"], abs=1e-9)
    assert counts["units"] == "nats"
    assert "stderr" not in counts
    _, mc = run_cli(
        capsys, base + ["--method", "mc", "--trials", "5000", "--seed", "3"]
    )
    assert abs(mc["mi"] - counts["mi"]) <= 5.0 * mc["stderr"]
    _, bits = run_cli(capsys, base + ["--units", "bits"])
    assert bits["mi"] == pytest.approx(counts["mi"] / math.log(2.0))


def test_channel_mi_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["channel-mi", "--n", "6", "--d", "0.5", "--probs", "0.5,0.5",
              "--method", "mc", "--trials", "100"])
    assert err.value.code == 2


def test_channel_mi_mc_rejects_seeds_outside_64_bits(capsys):
    base = ["channel-mi", "--n", "20", "--d", "0.3", "--probs", "0.5,0.5", "--method", "mc",
            "--trials", "10", "--seed"]
    for seed in ("-1", str(2**64)):
        assert main(base + [seed]) == 2
    assert capsys.readouterr().out == ""


def test_preset_gate_exit_codes(tmp_path, capsys):
    code, doc = run_cli(
        capsys, ["preset", "--name", "tllow_alternating", "--out", str(tmp_path)]
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["gates"][0]["passed"] is True
    assert (tmp_path / "report.json").exists()


def test_preset_rejects_an_override_it_does_not_take(tmp_path, capsys):
    out = tmp_path / "D"
    code = main(["preset", "--name", "tllow_alternating", "--trials", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not (out / "report.json").exists()


def test_invalid_inputs_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["count", "--text", "abab"])  # missing --pattern
    with pytest.raises(SystemExit) as err:
        main(["moments", "--n", "5", "--pattern", "ab", "--probs", "bogus"])
    assert err.value.code == 2
    # probability vector inconsistent with the alphabet
    code = main(["moments", "--n", "5", "--pattern", "ab", "--probs", "0.5,0.6"])
    assert code == 2
    capsys.readouterr()


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "subseqstats.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    for name in ("count", "moments", "decompose", "simulate", "channel-mi", "preset"):
        assert name in out.stdout
