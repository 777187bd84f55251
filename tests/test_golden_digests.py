"""Frozen SHA-256 digests of seeded outputs.

Every case is a small pinned run whose output files (or stdout, for
``channel-mi``) must stay byte-identical across refactors of the letter
sampler, the count kernel and the summaries.  The moment layer is pinned
the same way, by the exact bits of sigma_1^2 / C(n-1, m-1)^2.  A change that alters one
of these digests changes program output; it re-pins the digest and says
why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from subseqstats import counting, simulation
from subseqstats.channel import ChannelConfig, mc_mutual_information
from subseqstats.cli import main
from subseqstats.moments import sigma1_sq_normalized
from subseqstats.presets import run_preset
from subseqstats.simulation import (
    ExperimentConfig,
    PatternSpec,
    collect_ln_counts,
    lasn_consistency_check,
    run_experiment,
)
from subseqstats.source_model import (
    Alphabet,
    Pattern,
    SourceDist,
    batch_letters,
    derive_seed,
    generate_text,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(out, *argv):
    assert main(["simulate", *argv, "--out", str(out)]) == 0


def _random_pattern(out):
    dist = SourceDist(Alphabet.from_string("abc"), (0.5, 0.3, 0.2))
    cfg = ExperimentConfig(dist, PatternSpec.random(12, 77), 1500, 3000, 5, "normal")
    run_experiment(cfg, out_dir=out)


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


# name -> argv of a deterministic subcommand; its stdout carries every log
# quantity as a float repr, so the digest pins their bits.  "ab" at n=2 has a
# zero lk_lower_bound, and the last two moments runs are past the exact limit
STDOUT_CASES = {
    "moments_ab_n2": "moments --n 2 --pattern ab --probs 0.5,0.5".split(),
    "moments_aabba_n300": "moments --n 300 --pattern aabba --probs 0.7,0.3".split(),
    "moments_abc_n400": "moments --n 400 --pattern abc --probs 0.5,0.3,0.2".split(),
    "moments_a300_n10000": ["moments", "--n", "10000", "--pattern", "a" * 300, "--probs", "0.7,0.3"],
    "moments_a20b20_n4000": ["moments", "--n", "4000", "--pattern", "a" * 20 + "b" * 20, "--probs", "0.7,0.3"],
    "count_exact": "count --text abacaba --pattern aba".split(),
    "count_float": "count --text abacaba --pattern aba --mode float".split(),
    "count_zero_exact": "count --text bbbb --pattern a".split(),
    "count_zero_float": "count --text bbbb --pattern a --mode float".split(),
}

STDOUT_DIGESTS = {
    "moments_ab_n2": "d631934e165d8860bf2081b685ff18ceb57d62c2d530ce05a5063b0096346bd1",
    "moments_aabba_n300": "8fdbaec32e51e5d60192adc8a93d72291a4ce7602f10ff359c3faa5d902c3671",
    "moments_abc_n400": "9cc3bac73167757ff90dbdd6051755fa22c7290423fed54e64ee99bc5aa4c1aa",
    "moments_a300_n10000": "a900f2cae563b13fec745ea5e682451f3708e408ed322258a2fdb48a778a4f98",
    "moments_a20b20_n4000": "606d99d0e8dd66033875cdebf5af66239f313ed712424f028575c9bd06ec4522",
    "count_exact": "c4a77ffc34380dd55e991fcba432f71d4b4928a02fafd41725a8eddb85432678",
    "count_float": "d5b1a7dab8a5c6fd24e596dc00dcebbd3ea3fed94b2ecda831d57b267dd24699",
    "count_zero_exact": "121788fc92263a334cd9d20cb6f4b10257227476c8e8b0b64b1472a7a81e9989",
    "count_zero_float": "8b17098273f0b3b25270609b3a87c03fbaddd91f69b4e82a4573fddd1b1b3081",
}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_cli_stdout_digest(name, capsys):
    capsys.readouterr()
    assert main(STDOUT_CASES[name]) == 0
    assert _sha(capsys.readouterr().out.encode()) == STDOUT_DIGESTS[name]


# name -> ((probs, n, d), trials, master seed, mi.hex(), stderr.hex()); at n=3,
# d=0.9 most outputs are empty, n=200, d=0.3 is the benchmark's channel shape,
# and n=1000 runs tiles of 88 rows on the kernel's greedy band
CHANNEL_MC_HEX = {
    "empty_outputs": (((0.3, 0.7), 3, 0.9), 500, 7, "0x1.bbde5e6559050p-5", "0x1.885379be5149ep-7"),
    "n200_d03": (((0.5, 0.5), 200, 0.3), 400, 23, "0x1.affd2350354cep+4", "0x1.3bd5374082e51p-2"),
    "n1000_d03": (((0.5, 0.5), 1000, 0.3), 400, 29, "0x1.00bd553efd6b4p+7", "0x1.704e689b57666p-1"),
    # 2 * 4096 + 17 trials: three spans whose densities join into one sum
    "three_spans": (((0.7, 0.3), 24, 0.3), 8209, 2**64 - 1, "0x1.139893edd6e8ap+2", "0x1.a70993e1abeb8p-6"),
}


@pytest.mark.parametrize("name", sorted(CHANNEL_MC_HEX))
def test_channel_mc_estimate_bits(name, workers=1):
    (probs, n, d), trials, seed, mi_hex, stderr_hex = CHANNEL_MC_HEX[name]
    cfg = ChannelConfig(SourceDist(Alphabet.from_string("ab"), probs), n, d)
    est = mc_mutual_information(cfg, trials, seed, workers)
    assert (est.mi.hex(), est.stderr.hex()) == (mi_hex, stderr_hex)


@pytest.mark.parametrize("name", sorted(CHANNEL_MC_HEX))
def test_channel_mc_estimate_bits_at_two_workers(name):
    # "three_spans" maps its spans over a two-process fork pool
    test_channel_mc_estimate_bits(name, workers=2)


@pytest.mark.parametrize("cells", [1, 2**12])
def test_channel_mc_estimate_bits_in_small_tiles(cells, monkeypatch):
    # each tile of the 400-row batch takes its own shortest output as e_min
    monkeypatch.setattr(counting, "_TILE_CELLS", cells)
    test_channel_mc_estimate_bits("n200_d03")


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("name", ["empty_outputs", "n200_d03"])
def test_channel_mc_estimate_bits_in_small_spans(name, batch, monkeypatch):
    # hundreds of spans: their densities must join in trial order
    monkeypatch.setattr(simulation, "BATCH_SIZE", batch)
    test_channel_mc_estimate_bits(name)


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
# the constant patterns use a skewed source.  At n=700 most rows of a^600 are
# cut by the support edges; the two-letter random pattern has blocks where
# no letter fills every slot
SIGMA1_CASES = {
    "a150_n10000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 150), 10_000),
    "a300_n10000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 300), 10_000),
    "a600_n10000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 600), 10_000),
    "a600_n700": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 600), 700),
    "random2_m200_n5000": (_BIASED, PatternSpec.random(200, 9).resolve(_BIASED), 5000),
    "a20b20_n4000": (_SKEWED, Pattern.from_string(_SKEWED, "a" * 20 + "b" * 20), 4000),
    "aba_n2000": (_BIASED, Pattern.from_string(_BIASED, "aba"), 2000),
    "random3_m12_n1500": (_THREE, PatternSpec.random(12, 77).resolve(_THREE), 1500),
    "random5_m60_n3000": (_FIVE, PatternSpec.random(60, 5).resolve(_FIVE), 3000),
    "m_equals_n": (_FIVE, Pattern.from_string(_FIVE, "edcbaabcde"), 10),
}

SIGMA1_HEX = {
    "a150_n10000": "0x1.0bdb6db6db8e2p+12",
    "a300_n10000": "0x1.0bdb6db6db8e2p+12",
    "a600_n10000": "0x1.0bdb6db6db8e2p+12",
    "a600_n700": "0x1.2bfffffffffe5p+8",
    "random2_m200_n5000": "0x1.255abd9ea9cd9p+8",
    "a20b20_n4000": "0x1.24e5f51285e1ap+12",
    "aba_n2000": "0x1.bd8ea63e3d55ap+7",
    "random3_m12_n1500": "0x1.c52f86ee0a066p+9",
    "random5_m60_n3000": "0x1.44ebe7853b445p+10",
    "m_equals_n": "0x1.bb0c30c30c30dp+5",
}


@pytest.mark.parametrize("name", sorted(SIGMA1_CASES))
def test_sigma1_normalized_bits(name):
    assert sigma1_sq_normalized(*SIGMA1_CASES[name]).hex() == SIGMA1_HEX[name]


_FOUR = SourceDist.uniform(Alphabet.from_string("abcd"))
_FOUR_SKEWED = SourceDist(Alphabet.from_string("abcd"), (0.1, 0.4, 0.2, 0.3))

# every alphabet size takes the one compare-sum sampler
LETTER_DIGESTS = {
    "ab": (_SKEWED, "88647dcc347215d999d60f1c1f58a62fbfcb17c40e144eb1d486b42bdf1ac84a"),
    "abc": (_THREE, "6c1ce214d7c778ec252ef3de08517335f8a7d4e069c451ba7d6b893a2c80174b"),
    "abcd": (_FOUR, "c7e750b44f486294c93780a3d4c778e2f4a49025f55d2cc2efe817f309ac560f"),
    "abcde": (_FIVE, "7c53d8d33e96075b0358dabbfe9eea279ec8ebbffe1f141583e977cfc900354f"),
}


@pytest.mark.parametrize("name", sorted(LETTER_DIGESTS))
def test_batch_letters_digest(name):
    dist, digest = LETTER_DIGESTS[name]
    block = batch_letters(dist, 700, [derive_seed(31, t) for t in range(24)])
    assert _sha(block.tobytes()) == digest


def test_generate_text_digest():
    text = generate_text(_THREE, 5000, 2024)
    assert _sha(text.letters.tobytes()) == (
        "a1a7d7f9539bf7718ef1572d3552dd12ee0616f3f5dfdf7b735d9acb5cc96f2f"
    )


# ln Z of a^40 for every symbol in turn: the first, inner and last letter ranges
CONSTANT_COUNT_DIGESTS = {
    "abc": (_THREE, "ea6b0a983628652977d6d43fd340b06d4888c28010c88450c82668212e3cfa50"),
    "abcd": (_FOUR_SKEWED, "b17336da66d2ccec1d966127c1d54ece50fb75ac98d502adcc890ec0dbda5c45"),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_COUNT_DIGESTS))
def test_constant_pattern_counts_digest(name):
    dist, digest = CONSTANT_COUNT_DIGESTS[name]
    blob = b""
    for a in range(dist.alphabet.size):
        spec = PatternSpec.constant(a, 40)
        cfg = ExperimentConfig(dist, spec, 600, 500, 41 + a, "lognormal")
        blob += collect_ln_counts(cfg, spec.resolve(dist)).tobytes()
    assert _sha(blob) == digest


# (n, m, p_a, trials, master seed) -> digest of the report's fields as sorted JSON
LASN_DIGESTS = {
    (100_000, 30, 0.5, 1200, 913): "be6c440391a32a5df3f21f34ef97806fda6475945b147ffb26505e06a7b6ed24",
    (10_000, 300, 0.5, 1200, 913): "ad73ad96a09bf0d80375aebec772b244a54cd3e0078fb360773c90655f41baa8",
    (2000, 5, 0.5, 300, 3): "4110543767df941a1abde1ccc088232d44465dc22e27e325eed9eb971f25447e",
}


@pytest.mark.parametrize("args", sorted(LASN_DIGESTS))
def test_lasn_report_digest(args):
    report = asdict(lasn_consistency_check(*args))
    assert _sha(json.dumps(report, sort_keys=True).encode()) == LASN_DIGESTS[args]


# a two-route preset writes seed_<s>/<route>/, a one-route preset seed_<s>/:
# name -> (overrides, every file written in path order, digest of their bytes)
PRESET_TREES = {
    "tln_lognormal": (
        {"trials": 400, "seeds": (101, 211)},
        [
            "report.json",
            *(f"seed_{s}/{r}/{f}" for s in (101, 211) for r in ("lognormal", "normal")
              for f in ("samples.csv", "summary.json")),
        ],
        "93c245d2dbc8bf301ba530e5d2a89732918d66d9519a238dc4ad12dbd1077853",
    ),
    "t2a_normal": (
        {"trials": 500, "seeds": (149,)},
        ["report.json", "seed_149/samples.csv", "seed_149/summary.json"],
        "5c0690c2ae11af5b259e039ccae2312c87fa285919e51892c95b408866742a26",
    ),
}


@pytest.mark.parametrize("name", sorted(PRESET_TREES))
def test_preset_output_tree(name, tmp_path):
    overrides, names, digest = PRESET_TREES[name]
    run_preset(name, out_dir=tmp_path, **overrides)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert [f.relative_to(tmp_path).as_posix() for f in files] == names
    assert _sha(b"".join(f.read_bytes() for f in files)) == digest
