"""Command-line interface.

Six subcommands: ``count``, ``moments``, ``decompose``, ``simulate``,
``channel-mi``, ``preset``.  Every invocation validates its inputs
before doing work, prints exactly one JSON document on stdout, and logs
to stderr.  Stochastic subcommands require an explicit ``--seed``.
``simulate``, ``channel-mi --method mc`` and the Monte Carlo presets run
their trial spans in up to ``--workers`` forked processes, one pool per
call shared by all seeds; the output bytes are independent of
``--workers``.
Exit status is 0 on success, 1 when a preset gate fails, 2 on invalid
input.

Conventions: probabilities parse as decimals and are re-rationalized
where exact arithmetic needs them; exact integer counts print as
decimal strings (arbitrary precision), exact rationals as "p/q"
strings; a count's ln prints as ``ln_count``, null for zero, and the
log quantities of ``moments`` as {sign, ln_abs} with ln_abs null for
zero.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .channel import (
    ChannelConfig,
    exact_mutual_information_direct,
    exact_mutual_information_via_counts,
    mc_mutual_information,
    nats_to_bits,
)
from .counting import count_subsequences
from .decomposition import decompose
from .moments import (
    EXACT_N_LIMIT,
    expected_count_exact,
    moment_report,
    sigma1_sq_exact,
)
from .presets import PRESETS, run_preset
from .simulation import ExperimentConfig, PatternSpec, auto_regime, run_experiment
from .source_model import Alphabet, Pattern, SourceDist, Text

log = logging.getLogger("subseqstats")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_WORKERS_HELP = (
    "processes for trial spans (default 1): one pool per call, shared by all seeds; "
    "output bytes are independent of it"
)


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        log.error(message)
        super().__init__(2)


def _parse_probs(raw: str) -> tuple[float, ...]:
    try:
        probs = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise SystemExit2(f"--probs must be comma-separated decimals, got {raw!r}")
    return probs


def _alphabet_for(probs, explicit: str | None) -> Alphabet:
    if explicit is not None:
        alphabet = Alphabet.from_string(explicit)
    else:
        alphabet = Alphabet.from_string(_LETTERS[: len(probs)])
    if alphabet.size != len(probs):
        raise SystemExit2(
            f"alphabet has {alphabet.size} symbols but --probs lists {len(probs)}"
        )
    return alphabet


def _inferred_alphabet(text: str, pattern: str, explicit: str | None) -> Alphabet:
    if explicit is not None:
        return Alphabet.from_string(explicit)
    symbols = sorted(set(text) | set(pattern))
    if len(symbols) < 2:
        # counting is pure symbol matching; pad with an unused filler
        filler = "a" if symbols != ["a"] else "b"
        symbols = sorted(set(symbols) | {filler})
    return Alphabet(tuple(symbols))


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_count(args) -> int:
    alphabet = _inferred_alphabet(args.text, args.pattern, None)
    text = Text.from_string(args.text, alphabet)
    uniform = SourceDist(alphabet, (1.0 / alphabet.size,) * alphabet.size)
    pattern = Pattern.from_string(uniform, args.pattern)
    result = count_subsequences(text, pattern, mode=args.mode)
    _emit(
        {
            "n": text.length,
            "m": pattern.length,
            "count": None if result.exact is None else str(result.exact),
            "ln_count": None if result.ln == -math.inf else result.ln,
        }
    )
    return 0


def _cmd_moments(args) -> int:
    probs = _parse_probs(args.probs)
    alphabet = _alphabet_for(probs, args.alphabet)
    dist = SourceDist(alphabet, probs)
    pattern = Pattern.from_string(dist, args.pattern)
    report = moment_report(dist, pattern, args.n).to_dict()
    if args.n <= EXACT_N_LIMIT:
        report["expected_exact"] = str(expected_count_exact(dist, pattern, args.n))
        report["sigma1_sq_exact"] = str(sigma1_sq_exact(dist, pattern, args.n))
    _emit(report)
    return 0


def _cmd_decompose(args) -> int:
    probs = _parse_probs(args.probs)
    alphabet = _inferred_alphabet(args.text, args.pattern, args.alphabet)
    if alphabet.size != len(probs):
        raise SystemExit2(
            f"inferred alphabet {''.join(alphabet.symbols)!r} has {alphabet.size} "
            f"symbols but --probs lists {len(probs)}; pass --alphabet to fix the order"
        )
    dist = SourceDist(alphabet, probs)
    text = Text.from_string(args.text, alphabet)
    pattern = Pattern.from_string(dist, args.pattern)
    report = decompose(text, dist, pattern).to_dict()
    report["rationalized_probs"] = [str(q) for q in dist.rational_probs()]
    _emit(report)
    return 0


def _parse_pattern_spec(raw: str, alphabet: Alphabet) -> PatternSpec:
    if raw.startswith("const:"):
        body = raw[len("const:") :]
        try:
            sym, m_str = body.split(",")
            return PatternSpec.constant(alphabet.index(sym), int(m_str))
        except ValueError as exc:
            raise SystemExit2(f"bad constant pattern spec {raw!r}: {exc}")
    if raw.startswith("alt:"):
        try:
            return PatternSpec.alternating(int(raw[len("alt:") :]))
        except ValueError as exc:
            raise SystemExit2(f"bad alternating pattern spec {raw!r}: {exc}")
    try:
        return PatternSpec.explicit(alphabet.to_indices(raw))
    except ValueError as exc:
        raise SystemExit2(f"bad pattern {raw!r}: {exc}")


def _cmd_simulate(args) -> int:
    probs = _parse_probs(args.probs)
    alphabet = _alphabet_for(probs, args.alphabet)
    dist = SourceDist(alphabet, probs)
    spec = _parse_pattern_spec(args.pattern, alphabet)
    regime = args.regime
    if regime == "auto":
        regime = auto_regime(dist, spec.resolve(dist), args.n)
    log.info("simulate: regime=%s n=%d trials=%d seed=%d", regime, args.n, args.trials, args.seed)
    cfg = ExperimentConfig(
        dist,
        spec,
        args.n,
        args.trials,
        args.seed,
        regime,
        standardization=args.standardization,
    )
    _emit(run_experiment(cfg, out_dir=Path(args.out), workers=args.workers)[regime].to_dict())
    return 0


def _cmd_channel_mi(args) -> int:
    if args.method != "mc" and (args.trials, args.seed, args.workers) != (None, None, None):
        raise SystemExit2(f"--method {args.method} is exact and takes no --trials, --seed or --workers")
    probs = _parse_probs(args.probs)
    alphabet = _alphabet_for(probs, None)
    cfg = ChannelConfig(SourceDist(alphabet, probs), args.n, args.d)
    stderr = None
    if args.method == "counts":
        mi = exact_mutual_information_via_counts(cfg)
    elif args.method == "direct":
        mi = exact_mutual_information_direct(cfg)
    else:
        if args.trials is None or args.seed is None:
            raise SystemExit2("--method mc requires --trials and --seed")
        workers = 1 if args.workers is None else args.workers
        est = mc_mutual_information(cfg, args.trials, args.seed, workers)
        mi, stderr = est.mi, est.stderr
    if args.units == "bits":
        mi = nats_to_bits(mi)
        stderr = None if stderr is None else nats_to_bits(stderr)
    doc = {"mi": mi, "method": args.method, "units": args.units}
    if stderr is not None:
        doc["stderr"] = stderr
    _emit(doc)
    return 0


def _cmd_preset(args) -> int:
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    log.info("preset %s starting", args.name)
    report = run_preset(args.name, out_dir=args.out, workers=args.workers, **overrides)
    for gate in report.gates:
        log.info(
            "gate %-45s value=%-12.6g threshold=%-10.6g %s",
            gate.name,
            gate.value,
            gate.threshold,
            "pass" if gate.passed else "FAIL",
        )
    _emit(report.to_dict())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseqstats",
        description="Subsequence-count statistics: exact counts, moments, "
        "orthogonal decomposition, distributional experiments, and the "
        "deletion-channel information identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count occurrences of a pattern as a subsequence")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("moments", help="expected count, sigma_1^2, and variance bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--alphabet", default=None)
    p.add_argument("--probs", required=True, help="comma-separated letter probabilities")
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("decompose", help="exact orthogonal decomposition of one text")
    p.add_argument("--text", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--alphabet", default=None)
    p.add_argument("--probs", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("simulate", help="seeded Monte Carlo distribution experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--pattern",
        required=True,
        help="literal word, const:<letter>,<m>, or alt:<m>",
    )
    p.add_argument("--alphabet", default=None)
    p.add_argument("--probs", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--regime", choices=("normal", "lognormal", "auto"), default="auto")
    p.add_argument(
        "--standardization", choices=("theoretical", "empirical"), default="theoretical"
    )
    p.add_argument("--out", required=True, help="directory for samples.csv + summary.json")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("channel-mi", help="deletion-channel mutual information")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--method", choices=("counts", "direct", "mc"), default="counts")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP + "; --method mc only")
    p.set_defaults(fn=_cmd_channel_mi)

    p = sub.add_parser("preset", help="run a named gated experiment")
    p.add_argument("--name", required=True, choices=sorted(PRESETS))
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.set_defaults(fn=_cmd_preset)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, ArithmeticError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
