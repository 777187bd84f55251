"""Benchmark of subseqstats: four workloads, end-to-end and per-layer metrics.

One run:
    python3 perfbench/run.py --workload clt_aba --seed 1 --seconds 20 --trace 0

runs whole rounds of the workload until --seconds have passed, checks the
outputs of every round, and prints one JSON object as its last line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Steadiness mode:
    python3 perfbench/run.py --steadiness [--seed 1000]

runs every workload of BENCHMARK.json in alternation, two sets of
STEADY_RUNS runs each, every run a fresh process with its own seed, and
compares the medians and quartiles of the two sets with the bounds in
BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# set-ups timed per run; setup_s is their median
SETUP_RUNS = 3
# runs of each workload in each of the steadiness mode's two sets
STEADY_RUNS = 5


def _import_program():
    """Import subseqstats from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import subseqstats
    except ImportError as exc:
        raise SystemExit(f"error: cannot import subseqstats from {ROOT / 'src'}: {exc}")
    if Path(subseqstats.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"error: subseqstats was imported from {subseqstats.__file__}")


def _time_setups(args) -> list[float]:
    """Wall time from process start to ready-to-measure, in fresh processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with code {probe.returncode}")
    return times


def run_once(args) -> dict:
    _import_program()
    from workloads import WORKLOADS

    out = OUT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, out)
    if args.setup_probe:
        print("ready", flush=True)
        return {}
    setups = [] if args.trace else _time_setups(args)
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    rounds = []
    try:
        start = time.perf_counter()
        while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
            traced = tracer is not None and len(rounds) % 2 == 0
            first_span = len(tracer.spans) if tracer else 0
            cpu0, t0 = time.process_time(), time.perf_counter()
            failed = False
            try:
                with tracer.installed() if traced else nullcontext():
                    workload.run_round(len(rounds))
            except Exception:
                # a round that raises is counted as failed, and the run goes on
                print(f"round {len(rounds)} failed:", file=sys.stderr)
                traceback.print_exc()
                failed = True
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            layers = None
            if traced and not failed:
                layers = layer_metrics(tracer.spans[first_span:], wall, cpu)
                layers["simulation.output_bytes"] = _tree_bytes(out / f"r{len(rounds)}")
            rounds.append({"failed": failed, "traced": traced, "wall": wall, "cpu": cpu,
                           "layers": layers})
        timed_wall = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in problems:
        print("CHECK FAILED:", line, file=sys.stderr)
    attempted = len(rounds) * workload.round_trials
    failed = sum(r["failed"] for r in rounds) * workload.round_trials
    if failed == attempted:
        raise SystemExit("error: every round failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        values = {
            "trials_per_s": (attempted - failed) / timed_wall,
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setups),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        values = _traced_metrics(rounds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} trials ({failed} failed) in {timed_wall:.2f} s, "
          f"cpu {sum(r['cpu'] for r in rounds):.2f} s, setups {[round(s, 3) for s in setups]}; "
          f"round walls {[round(r['wall'], 3) for r in rounds]}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


def _traced_metrics(rounds) -> dict:
    """Per-layer figures per round, the median over the traced rounds.

    Rounds alternate traced and untraced; trace.overhead is the traced
    rounds' median wall time over the untraced rounds', minus 1.  Failed
    rounds are left out of both.
    """
    traced = [r for r in rounds if r["traced"] and not r["failed"]]
    plain = [r for r in rounds if not r["traced"] and not r["failed"]]
    if not traced or not plain:
        raise SystemExit("error: a traced run needs a traced and an untraced round that completed")
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    walls = [statistics.median(r["wall"] for r in rs) for rs in (traced, plain)]
    out["trace.overhead"] = walls[0] / walls[1] - 1.0
    return out


def steadiness(args) -> int:
    """Runs every workload in alternation, two sets of STEADY_RUNS runs, and compares the sets.

    A metric passes when the quartile spread of all its runs, as a share of
    their median, and the shift of set 2's median from set 1's, either way,
    are both within its bound.  The share of failed trials must be the same
    in the two sets, and every run's checks must pass.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = {w: ([], []) for w in names}
    seed = args.seed
    for s in range(2):
        for _ in range(STEADY_RUNS):
            for w in names:
                seed += 1
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                began = time.perf_counter()
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
                if done.returncode != 0:
                    print(f"{w} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                    return 1
                res = json.loads(done.stdout.strip().splitlines()[-1])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed} ({time.perf_counter() - began:.1f} s): "
                      + json.dumps(res), flush=True)
    ok = True
    report = {}
    print("\nworkload metric: set 1 median [q1, q3], set 2 median [q1, q3] | "
          "spread of all runs | shift of set 2 from set 1 | bound")
    for w in names:
        for name, m in bounds.items():
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            first, second = (statistics.quantiles(v, n=4) for v in sets)
            pooled = statistics.quantiles(sets[0] + sets[1], n=4)
            spread = (pooled[2] - pooled[0]) / pooled[1]
            shift = (second[1] - first[1]) / first[1]
            good = spread <= m["bound"] and abs(shift) <= m["bound"]
            ok &= good
            report[f"{w}.{name}"] = {"sets": [first, second], "pooled": pooled, "spread": spread,
                                     "shift": shift, "bound": m["bound"], "ok": good}
            cells = " ".join(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (first, second))
            print(f"{w} {name}: {cells} | {spread:.3f} | {shift:+.3f} | {m['bound']}"
                  f"{'' if good else '  OUT OF BOUND'}")
        failed = [sum(r["failed"] for r in runs) for runs in results[w]]
        attempted = [sum(r["attempted"] for r in runs) for runs in results[w]]
        same_share = failed[0] * attempted[1] == failed[1] * attempted[0]
        wrong = sum(not r["correct"] for runs in results[w] for r in runs)
        print(f"{w}: failed trials {failed[0]}/{attempted[0]} and {failed[1]}/{attempted[1]}"
              f"{'' if same_share else ' (shares differ)'}, runs with failed checks {wrong}")
        ok &= same_share and wrong == 0
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps({"results": results, "report": report}, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["clt_aba", "block_m40", "const_sweep", "channel_mc"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", action="store_true",
                        help="run every workload in alternation and compare two sets of runs")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")
    result = run_once(args)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
