"""Frozen SHA-256 digests of seeded outputs.

Every case is a small pinned run whose output files (or stdout, for
``channel-mi``) must stay byte-identical across refactors of the letter
sampler, the count kernel and the summaries.  The moment layer is pinned
the same way, by the exact bits of sigma_1^2 / C(n-1, m-1)^2.  A change that alters one
of these digests changes program output; it re-pins the digest and says
why in CHANGES.md.
"""

import hashlib

import pytest

from subseqstats.cli import main
from subseqstats.moments import sigma1_sq_normalized
from subseqstats.presets import run_preset
from subseqstats.simulation import ExperimentConfig, PatternSpec, run_normal_experiment
from subseqstats.source_model import Alphabet, Pattern, SourceDist


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(out, *argv):
    assert main(["simulate", *argv, "--out", str(out)]) == 0


def _random_pattern(out):
    dist = SourceDist(Alphabet.from_string("abc"), (0.5, 0.3, 0.2))
    cfg = ExperimentConfig(dist, PatternSpec.random(12, 77), 1500, 3000, 5, "normal")
    run_normal_experiment(cfg, out_dir=out)


# name -> run writing samples.csv and summary.json into the given directory
SIMULATE_CASES = {
    "normal_aba": lambda out: _simulate(
        out, "--n", "2000", "--pattern", "aba", "--probs", "0.5,0.5",
        "--trials", "3000", "--seed", "11", "--regime", "normal",
    ),
    "lognormal_const": lambda out: _simulate(
        out, "--n", "2000", "--pattern", "const:a,30", "--probs", "0.5,0.5",
        "--trials", "3000", "--seed", "12", "--regime", "lognormal",
    ),
    "random_pattern": _random_pattern,
    "empirical_block": lambda out: _simulate(
        out, "--n", "1000", "--pattern", "aaaaabbbbb", "--probs", "0.7,0.3",
        "--trials", "2000", "--seed", "13", "--regime", "normal",
        "--standardization", "empirical",
    ),
    # counts near e^840 pass the 1e300 rescale many times per row
    "rescaled_alt200": lambda out: _simulate(
        out, "--n", "10000", "--pattern", "alt:200", "--probs", "0.5,0.5",
        "--trials", "64", "--seed", "14", "--regime", "normal",
    ),
}

SIMULATE_DIGESTS = {
    "normal_aba": (
        "0c20cfc6a13152e5fd47a4b4d350772b17fe96b5dce7c48577fe3e6a47d1f0b0",
        "1fa946b3c0adda8494e15087e692f159e3a21bf6928bf3487d5588cbdd19ece3",
    ),
    "lognormal_const": (
        "e745015af38081fafc9d589ff6df0c23c93e79d18f3775420013e85fe451466c",
        "fe6bb830f687b88670937a6a279c2e93239b9abc98d46565fac3326a75bfb7c4",
    ),
    "random_pattern": (
        "3a5267ad45b802c7308736bf8434a0a36c34069ec34ca6b0c8ae8da0fc426eda",
        "2fe93f1418e0eeca36d330a0ada1ca80cc90809989d5feb4239bf506aac520b0",
    ),
    "empirical_block": (
        "89096f18eb9312377583cdfddb96573a6c29ebf845d77dfcd063bede6acf0bad",
        "ed9f8d0243257ffc51d2bd65bf2657057c7047b31bffdd6b5352aabfacccb8d8",
    ),
    "rescaled_alt200": (
        "969d1b9af1634831ced3fdd5dada60498fcf53c1a5bffbd3b24cc408d0bef322",
        "9b8e0e2b2914ecf02e7c8e14591d69e03ddb2aec94c36c173b9dfa214f0bc2ff",
    ),
}

CHANNEL_CASES = {
    "uniform": "--n 200 --d 0.3 --probs 0.5,0.5 --trials 600 --seed 21".split(),
    "skewed": "--n 120 --d 0.6 --probs 0.7,0.3 --trials 600 --seed 22".split(),
}

CHANNEL_DIGESTS = {
    "uniform": "e7115999239c2388101e09370094c92c0f63b5628c2a0f03409ae9d091d848ea",
    "skewed": "672bc6fac42a6ecbf656b2de932fdce03b68cfb5b284f8e0c26e521d3e34a69d",
}


# report.json and each seed's samples.csv of a short t2a_normal run, in path order
PRESET_DIGEST = "c1be3513d7383f1db7d964f542c0ab767c5db99d9421b31d67ce5128c5c915a8"


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_digests(name, tmp_path, capsys):
    SIMULATE_CASES[name](tmp_path)
    capsys.readouterr()
    got = tuple(_sha((tmp_path / f).read_bytes()) for f in ("samples.csv", "summary.json"))
    assert got == SIMULATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CHANNEL_CASES))
def test_channel_mc_stdout_digest(name, capsys):
    capsys.readouterr()
    assert main(["channel-mi", "--method", "mc", *CHANNEL_CASES[name]]) == 0
    assert _sha(capsys.readouterr().out.encode()) == CHANNEL_DIGESTS[name]


def test_preset_report_digest(tmp_path):
    run_preset("t2a_normal", out_dir=tmp_path, trials=1500)
    files = [tmp_path / "report.json", *sorted(tmp_path.glob("seed_*/samples.csv"))]
    assert len(files) == 6
    assert _sha(b"".join(f.read_bytes() for f in files)) == PRESET_DIGEST


# every preset at a reduced size: name -> overrides
PRESET_CASES = {
    "t2a_normal": {"trials": 600, "seeds": (101, 149)},
    "tka_skewed": {"trials": 300, "seeds": (101, 211)},
    "tln_lognormal": {"trials": 800, "seeds": (101, 211)},
    "eaaa_dichotomy": {"trials": 400, "seeds": (101, 211)},
    "tllow_alternating": {"n_max": 24},
    "tlrandom_scaling": {"patterns": 40},
    "cor_random_normal": {"trials": 400, "seeds": (101, 211)},
}

# report.json, then for tln_lognormal both routes' samples.csv of each seed, in path order
PRESET_DIGESTS = {
    "t2a_normal": "aa45502c948f7b3df7403579927a1e9143c9a1ee22b13d7234c65d6a4cfa8b4b",
    "tka_skewed": "861be4e30f970860559b669e31a368e14d733a1f06e0a847f7828a1cabd93ef9",
    "tln_lognormal": "205ec2b87332f9c205a8199f893c49bde30091a9b99e9b91a1f8214725ad4fb2",
    "eaaa_dichotomy": "18c6ae4ef21f6a9f010e03b8ed03d11877ef2440bf79e0b74b6137bc89158eb6",
    "tllow_alternating": "0a550f7ed661ee626617843b3a62c0990a307ad29dfd691c3152179e5dd9ff6a",
    "tlrandom_scaling": "28fff71fc84b8699b2e49b1ad826184b6d8d38dca5d7a25390456dd8bed97167",
    "cor_random_normal": "6cfe47862979170ba76a8bca35b5be237f48d110e15f39141fbab4dc2beb2618",
}


@pytest.mark.parametrize("name", sorted(PRESET_CASES))
def test_every_preset_digest(name, tmp_path):
    run_preset(name, out_dir=tmp_path, **PRESET_CASES[name])
    files = [tmp_path / "report.json"]
    if name == "tln_lognormal":
        files += sorted(tmp_path.glob("seed_*/*/samples.csv"))
        assert len(files) == 5
    assert _sha(b"".join(f.read_bytes() for f in files)) == PRESET_DIGESTS[name]


_SKEWED = SourceDist(Alphabet.from_string("ab"), (0.7, 0.3))
_BIASED = SourceDist(Alphabet.from_string("ab"), (0.6, 0.4))
_THREE = SourceDist(Alphabet.from_string("abc"), (0.5, 0.3, 0.2))
_FIVE = SourceDist(Alphabet.from_string("abcde"), (0.35, 0.25, 0.2, 0.12, 0.08))

# name -> (dist, pattern, n); at p_a = 1/2 the a^m values are exactly n, so
# the constant pattern uses a skewed source
SIGMA1_CASES = {
    "a300_n10000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 300), 10_000),
    "a20b20_n4000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 20 + "b" * 20), 4000),
    "aba_n2000": (_BIASED, Pattern.from_string(_BIASED, "aba"), 2000),
    "random3_m12_n1500": (_THREE, PatternSpec.random(12, 77).resolve(_THREE), 1500),
    "random5_m60_n3000": (_FIVE, PatternSpec.random(60, 5).resolve(_FIVE), 3000),
    "m_equals_n": (_FIVE, Pattern.from_string(_FIVE, "edcbaabcde"), 10),
}

SIGMA1_HEX = {
    "a300_n10000": "0x1.0bdb6db6db8e2p+12",
    "a20b20_n4000": "0x1.24e5f51285e1ap+12",
    "aba_n2000": "0x1.bd8ea63e3d55ap+7",
    "random3_m12_n1500": "0x1.c52f86ee0a066p+9",
    "random5_m60_n3000": "0x1.4f2c57c54b072p+10",
    "m_equals_n": "0x1.bb0c30c30c30dp+5",
}


@pytest.mark.parametrize("name", sorted(SIGMA1_CASES))
def test_sigma1_normalized_bits(name):
    assert sigma1_sq_normalized(*SIGMA1_CASES[name]).hex() == SIGMA1_HEX[name]
