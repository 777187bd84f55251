"""The benchmark's workloads: inputs from a seed, one round of work, output checks.

A round is a fixed amount of work a user would start as one run of the
program: one preset call, one sweep over m, or one Monte Carlo estimate.
Every round of a workload does the same operations on fresh master seeds
drawn from the benchmark seed, and begins with a cold moment cache, as
a new process would.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from subseqstats import channel, moments, presets, simulation
from subseqstats.source_model import Alphabet, Pattern, SourceDist, derive_seed, generate_text

_AB = Alphabet.from_string("ab")
_SIGMA1 = moments.sigma1_sq_normalized  # the cached original; tracing may replace the name

# trial indices recounted exactly in every seed's output
_RECOUNT = (0, 1, -1)


def _read_values(path: Path) -> np.ndarray:
    lines = path.read_text().split("\n")
    if lines[0] != "standardized_value":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([float(v) for v in lines[1:] if v])


class _Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out = out_dir
        # (round index, that round's inputs and results) of every round that completed
        self.rounds: list = []

    def seeds(self, k: int) -> list[int]:
        return self.rng.sample(range(1, 2**31), k)

    @property
    def round_trials(self) -> int:
        """Trials one round attempts."""
        raise NotImplementedError

    def run_round(self, r: int) -> None:
        """Run round r, writing its outputs under out/r<r>."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the outputs of every round run so far."""
        raise NotImplementedError


class PresetWorkload(_Workload):
    """One ``run_preset`` call per round, five master seeds, outputs written."""

    preset = ""
    n = 0
    word: tuple[int, ...] = ()
    probs: tuple[str, ...] = ()
    workers = 1
    trials = 0

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.exact_probs = tuple(Fraction(p) for p in self.probs)
        self.dist = SourceDist(_AB, tuple(float(p) for p in self.exact_probs))
        self.pattern = Pattern.from_indices(self.dist, self.word)

    @property
    def round_trials(self):
        return 5 * self.trials

    def run_round(self, r):
        seeds = self.seeds(5)
        _SIGMA1.cache_clear()
        presets.run_preset(
            self.preset, out_dir=self.out / f"r{r}", workers=self.workers,
            trials=self.trials, seeds=tuple(seeds),
        )
        self.rounds.append((r, seeds))

    def check(self):
        n, m = self.n, len(self.word)
        s1n = checks.sigma1_normalized(n, self.word, self.exact_probs)
        problems = checks.close_problems(
            f"{self.name} sigma_1^2", _SIGMA1(self.dist, self.pattern, n), s1n, 1e-9
        )
        ez = checks.expected_count(n, self.word, self.exact_probs)
        pooled = []
        for r, seeds in self.rounds:
            for seed in seeds:
                label = f"{self.name} round {r} seed {seed}"
                values = _read_values(self.out / f"r{r}" / f"seed_{seed}" / "samples.csv")
                if values.size != self.trials:
                    problems.append(f"{label}: {values.size} samples, expected {self.trials}")
                expected = []
                for t in _RECOUNT:
                    text = generate_text(self.dist, n, derive_seed(seed, t % self.trials))
                    z = checks.dp_count(text.letters, self.word)
                    expected.append(checks.standardized(z, n, m, ez, s1n))
                problems += checks.recount_problems(label, values, expected)
                pooled.append(values)
        return problems + checks.mean_problems(self.name, np.concatenate(pooled))


class CltAba(PresetWorkload):
    """The t2a_normal shape: aba at n = 2000, p = (1/2, 1/2), pool of two threads."""

    name = "clt_aba"
    preset = "t2a_normal"
    n = 2000
    word = (0, 1, 0)
    probs = ("1/2", "1/2")
    workers = 2
    trials = 8192  # two batches per seed, so both pool threads get work


class BlockM40(PresetWorkload):
    """The tka_skewed shape: a^20 b^20 at n = 4000, p = (0.7, 0.3), one thread."""

    name = "block_m40"
    preset = "tka_skewed"
    n = 4000
    word = (0,) * 20 + (1,) * 20
    probs = ("7/10", "3/10")
    workers = 1
    trials = 512


class ConstSweep(_Workload):
    """a^m at n = 10^4, p = 1/2, m / sqrt(n) = 0.3, 1.5 and 6: moments, counts, both routes."""

    name = "const_sweep"
    n = 10_000
    ms = (30, 150, 600)
    trials = 4096
    # the Z-mean check needs a light tail: log-scale spread m / sqrt(n) at most this
    mean_check_spread = 0.7

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.dist = SourceDist(_AB, (0.5, 0.5))
        self.specs = {m: simulation.PatternSpec.constant(0, m) for m in self.ms}
        self.patterns = {m: spec.resolve(self.dist) for m, spec in self.specs.items()}

    @property
    def round_trials(self):
        return len(self.ms) * self.trials

    def run_round(self, r):
        seeds = self.seeds(len(self.ms))
        reports = []
        _SIGMA1.cache_clear()
        for m, seed in zip(self.ms, seeds):
            pattern = self.patterns[m]
            reports.append(moments.moment_report(self.dist, pattern, self.n))
            cfg = simulation.ExperimentConfig(
                self.dist, self.specs[m], self.n, self.trials, seed, "lognormal"
            )
            lnz = simulation.collect_ln_counts(cfg, pattern, workers=1)
            sub = self.out / f"r{r}" / f"m{m}"
            simulation.summarize_normal(cfg, pattern, lnz, sub / "normal")
            simulation.summarize_lognormal(cfg, pattern, lnz, sub / "lognormal")
        self.rounds.append((r, seeds, reports))

    def check(self):
        n, p = self.n, Fraction(1, 2)
        problems = []
        for k, m in enumerate(self.ms):
            s1n = checks.sigma1_normalized(n, (0,) * m, (p, 1 - p))
            problems += checks.close_problems(f"a^{m} sigma_1^2 closed form", s1n, n * (1 / p - 1), 1e-9)
            problems += checks.close_problems(
                f"a^{m} sigma_1^2", _SIGMA1(self.dist, self.patterns[m], n), s1n, 1e-9
            )
            ez = checks.expected_count(n, (0,) * m, (p, 1 - p))
            ln_ez = checks.ln_fraction(ez)
            ln_s1 = math.log(s1n) + 2 * math.log(math.comb(n - 1, m - 1))
            a_n, b_n = checks.log_route_parameters(n, m, float(p))
            normal, ks = [], []
            for r, seeds, reports in self.rounds:
                seed, report = seeds[k], reports[k]
                label = f"a^{m} round {r} seed {seed}"
                problems += checks.close_problems(
                    f"{label} moment_report ln E[Z]", report.expected.ln_value(), ln_ez, 1e-12
                )
                problems += checks.close_problems(
                    f"{label} moment_report ln sigma_1^2", report.sigma1_sq.ln_value(), ln_s1, 1e-12
                )
                sub = self.out / f"r{r}" / f"m{m}"
                s_values = _read_values(sub / "normal" / "samples.csv")
                t_values = _read_values(sub / "lognormal" / "samples.csv")
                s_expect, t_expect = [], []
                for t in _RECOUNT:
                    text = generate_text(self.dist, n, derive_seed(seed, t % self.trials))
                    # for a^m the count is C(#a, m); the DP tests show they agree
                    z = math.comb(int(np.count_nonzero(text.letters == 0)), m)
                    s_expect.append(checks.standardized(z, n, m, ez, s1n))
                    t_expect.append(checks.log_route_value(z, n, m, float(p)))
                problems += checks.recount_problems(label + " normal route", s_values, s_expect)
                problems += checks.recount_problems(label + " log route", t_values, t_expect)
                k_values, off = checks.lattice_k(t_values * math.sqrt(b_n) + a_n, n, m)
                if off:
                    problems.append(f"{label}: {off} ln Z values off the lattice ln C(k, m)")
                if s_values.size != self.trials or k_values.size != self.trials:
                    problems.append(f"{label}: sample sizes {s_values.size}, {k_values.size}")
                normal.append(s_values)
                ks.append(k_values)
            problems += checks.binomial_problems(f"a^{m}", np.concatenate(ks), n, float(p))
            if m / math.sqrt(n) <= self.mean_check_spread:
                problems += checks.mean_problems(f"a^{m}", np.concatenate(normal))
        return problems


class ChannelMc(_Workload):
    """Monte Carlo deletion-channel information at n = 200, d = 0.3, uniform binary source."""

    name = "channel_mc"
    n = 200
    d = 0.3
    trials = 400
    # companion run small enough for exact enumeration
    small_n = 8
    small_trials = 20_000

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.cfg = channel.ChannelConfig(SourceDist(_AB, (0.5, 0.5)), self.n, self.d)
        self.small = channel.ChannelConfig(self.cfg.dist, self.small_n, self.d)
        self.small_seed = self.seeds(1)[0]

    @property
    def round_trials(self):
        return self.trials

    def run_round(self, r):
        seed = self.seeds(1)[0]
        est = channel.mc_mutual_information(self.cfg, self.trials, seed)
        self.rounds.append((r, seed, est))

    def check(self):
        problems = []
        for r, seed, est in self.rounds:
            problems += checks.channel_range_problems(f"round {r} seed {seed}", est.mi, self.n, self.d)
        est = channel.mc_mutual_information(self.small, self.small_trials, self.small_seed)
        exact = channel.exact_mutual_information_via_counts(self.small)
        problems += checks.agreement_problems(f"n={self.small_n} companion", est.mi, est.stderr, exact)
        return problems


WORKLOADS = {w.name: w for w in (CltAba, BlockM40, ConstSweep, ChannelMc)}
