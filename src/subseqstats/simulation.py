"""Seeded Monte Carlo experiments for the count distribution dichotomy.

Two standardizations of the occurrence count Z are sampled over random
texts.  The normal route looks at S = (Z - E[Z]) / (p_w sigma_1), fully
in log space: S = expm1(ln Z - ln E[Z]) * exp(ln E[Z] - ln(p_w sigma_1)),
so no intermediate ever leaves double range.  The log-normal route, for
constant patterns a^m with m well below n p_a, looks at
T = (ln Z - ln C(n p_a, m)) / sqrt(b_n) with
b_n = n * ln(1 - m/(n p_a))^2 * p_a (1 - p_a).  ``run_experiment``
collects ln Z once and summarizes it on each route it is asked for.

For a^m the count is Z = C(N_a, m) with N_a ~ Binomial(n, p_a), so both
routes take at most n + 1 values.  Their KS statistics are then taken on
that lattice, between consecutive atoms, so that they measure the law
and not the jumps every discrete sample has against a continuous CDF.

Trial t always draws its text from the stream seed derived from
(master_seed, t), batches have a fixed size, and samples are written
sorted, so a run's output bytes depend only on its configuration.  For
a^m a trial counts N_a in its row of a reused block of letters.
One span driver runs every Monte Carlo of the package, the channel's
included: it alone forms the spans of BATCH_SIZE trials and derives
their stream seeds, and it maps the spans over up to ``workers`` forked
processes: one pool per call, shared by all seeds (``run_experiments``
takes every config of a multi-seed run), and each seed is summarized
while later spans still count.  Spans join in order, so the bytes are
independent of ``workers``.

A summary's skewness and excess kurtosis follow scipy's formulas, computed
here in numpy, so their bytes do not depend on the installed scipy version.
"""

from __future__ import annotations

import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .counting import batched_ln_counts
from .moments import expected_count, log_binomial, sigma1_sq_normalized
from .source_model import (
    Alphabet,
    Pattern,
    SourceDist,
    _letter_sampler,
    batch_letters,
    derive_seed,
    derive_seeds,
    generate_text,
    stream_blocks,
)

BATCH_SIZE = 4096
KS_COEFF_5PCT = 1.358

# more than this fraction of zero-count trials marks a log-normal run non-conforming
ZERO_SKIP_LIMIT = 0.01

# the log-normal parameterization needs n p_a - m >= LOGNORMAL_GAP_FACTOR * sqrt(n)
LOGNORMAL_GAP_FACTOR = 10.0

# at or below this log-scale spread of a^m the log-normal and normal limits coincide
EQUIVALENCE_SPREAD = 0.1

ROUTES = ("normal", "lognormal")


@dataclass(frozen=True)
class PatternSpec:
    """Pattern choice for an experiment: explicit word or a generator tag."""

    kind: str
    word: tuple[int, ...] | None = None
    symbol: int = 0
    m: int = 0
    pattern_seed: int = 0

    @classmethod
    def explicit(cls, word) -> "PatternSpec":
        return cls(kind="explicit", word=tuple(operator.index(j) for j in word))

    @classmethod
    def constant(cls, symbol: int, m: int) -> "PatternSpec":
        return cls(kind="constant", symbol=symbol, m=m)

    @classmethod
    def alternating(cls, m: int) -> "PatternSpec":
        return cls(kind="alternating", m=m)

    @classmethod
    def random(cls, m: int, pattern_seed: int) -> "PatternSpec":
        return cls(kind="random", m=m, pattern_seed=pattern_seed)

    def resolve(self, dist: SourceDist) -> Pattern:
        if self.kind == "explicit":
            if not self.word:
                raise ValueError("explicit pattern spec has no word")
            return Pattern.from_indices(dist, self.word)
        if self.kind not in ("constant", "alternating", "random"):
            raise ValueError(f"unknown pattern spec kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("pattern length must be at least 1")
        if self.kind == "constant":
            return Pattern.from_indices(dist, (self.symbol,) * self.m)
        if self.kind == "alternating":  # every alphabet has at least two symbols
            return Pattern.from_indices(dist, tuple(j % 2 for j in range(self.m)))
        drawn = generate_text(dist, self.m, derive_seed(self.pattern_seed, 0))
        return Pattern.from_indices(dist, drawn.letters)


@dataclass(frozen=True)
class ExperimentConfig:
    dist: SourceDist
    pattern_spec: PatternSpec
    n: int
    trials: int
    master_seed: int
    regime: str
    standardization: str = "theoretical"

    def __post_init__(self):
        for name in ("n", "trials", "master_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must lie in [0, 2^64)")
        if self.regime not in ROUTES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.standardization not in ("theoretical", "empirical"):
            raise ValueError(f"unknown standardization {self.standardization!r}")


@dataclass
class SimSummary:
    """Empirical diagnostics of one standardized-count experiment."""

    regime: str
    n: int
    m: int
    pattern: str
    standardization: str
    trials: int
    master_seed: int
    trials_used: int
    trials_skipped_zero: int
    skips_conforming: bool
    emp_mean: float
    emp_var: float
    skewness: float
    excess_kurtosis: float
    ks_stat: float | None
    ks_critical_5pct: float
    mean_rel_err: float
    var_rel_err: float
    pass_normality: bool

    def to_dict(self) -> dict:
        """Fields by name; non-finite floats become None (JSON null)."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }


def ks_statistic(values: np.ndarray, support: np.ndarray | None = None) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF.

    ``support`` lists the points a lattice-valued sample can take.  When it
    is given, the empirical CDF is compared with Phi only at the midpoints
    between consecutive support points, F(mid) = #(values < mid) / N: the
    continuity-corrected distance P(T <= t_k) vs Phi((t_k + t_{k+1}) / 2).
    It never exceeds the plain statistic, so the same critical value stays
    valid, and it does not charge the sample for the jumps every lattice
    law has against a continuous one.
    """
    from scipy.special import ndtr  # imported here: it is most of the package's start-up

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("need at least one value")
    if support is not None:
        atoms = np.unique(np.asarray(support, dtype=np.float64))
        if atoms.size < 2:
            raise ValueError("lattice support needs at least two points")
        mid = 0.5 * atoms[:-1] + 0.5 * atoms[1:]
        below = np.searchsorted(x, mid, side="left") / n
        return float(np.abs(below - ndtr(mid)).max())
    cdf = ndtr(x)
    up = np.arange(1, n + 1) / n - cdf
    down = cdf - np.arange(0, n) / n
    return float(max(up.max(), down.max()))


def ks_critical(trials: int) -> float:
    """Asymptotic 5% two-sided critical value, for at least one trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return KS_COEFF_5PCT / math.sqrt(trials)


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Sample skewness and excess kurtosis of a 1-D float sample, both NaN
    when its spread is lost in rounding (a constant sample).

    The biased central moments m2, m3, m4 about the mean, each formed by
    the same products, in the same order, as scipy's ``skew`` and
    ``kurtosis`` (scipy 1.17, defaults bias=True, fisher=True) form them,
    so the values carry the same bits.
    """
    mean = x.mean(keepdims=True)
    d = x - mean
    d2 = d**2
    m2, m3, m4 = d2.mean(), (d2 * d).mean(), (d2**2).mean()
    with np.errstate(all="ignore"):
        if m2 <= (np.finfo(np.float64).eps * mean[0]) ** 2:
            return math.nan, math.nan
        return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


def _ln_binom_of_counts(counts: np.ndarray, m: int) -> np.ndarray:
    """ln C(counts, m) elementwise, -inf where counts < m."""
    from scipy.special import gammaln  # imported here: it is most of the package's start-up

    out = np.full(counts.shape, -np.inf)
    ok = counts >= m
    if ok.any():
        c = counts[ok].astype(np.float64)
        out[ok] = gammaln(c + 1.0) - math.lgamma(m + 1) - gammaln(c - m + 1.0)
    return out


def _ln_count_atoms(n: int, m: int) -> np.ndarray:
    """ln C(k, m) for k = 0..n: every value ln Z takes for the pattern a^m."""
    return _ln_binom_of_counts(np.arange(n + 1), m)


def _empirical_map(x: np.ndarray, atoms: np.ndarray | None):
    """Recenter a sample by its mean and sd; map its support the same way."""
    if x.size < 2:
        raise ValueError("empirical standardization needs at least 2 kept trials")
    mu, sd = x.mean(), x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("empirical standardization needs a sample with nonzero spread")
    return (x - mu) / sd, None if atoms is None else (atoms - mu) / sd


def _count_span(cfg: ExperimentConfig, pattern: Pattern, seeds: np.ndarray) -> np.ndarray:
    """Raw counts of the trials of ``seeds``: N_a for a^m, ln Z otherwise.

    For a^m each block of ``stream_blocks`` becomes letters in one reused int8
    buffer, and N_a is counted row by row (a whole-block axis count is slower).
    """
    if not pattern.is_constant:
        return batched_ln_counts(batch_letters(cfg.dist, cfg.n, seeds), pattern.word)
    letters, a = _letter_sampler(cfg.dist), pattern.word[0]
    counts = np.empty(len(seeds), dtype=np.int64)
    buf = None
    for first, block in stream_blocks(seeds, cfg.n):  # only the last block can be shorter
        buf = np.empty(block.shape, dtype=np.int8) if buf is None else buf[: len(block)]
        for i, row in enumerate(letters(block, buf), first):
            counts[i] = np.count_nonzero(row == a)
    return counts


def _trial_spans(span, jobs, workers: int):
    """Yield, per (args, master_seed, trials) of ``jobs`` and in job order,
    the arrays ``span(*args, seeds)`` of its spans of BATCH_SIZE trials,
    joined; trial t runs on the stream seed derived from (master_seed, t).
    ``span`` must be a module-level function, so that a pool can send it.

    With ``workers`` > 1 and more than one span in all, the spans of every
    job are mapped over one pool of up to ``workers`` processes forked for
    this generator (fork: the children need not import the package and
    numpy again; do not use it from a process whose other threads hold
    locks).  A job is yielded as soon as its last span is in, while later
    spans keep running.  Spans join in order, so the output does not
    depend on ``workers``.  Close the generator to shut its pool down.
    """
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    spans = [
        (*args, derive_seeds(master_seed, lo, min(lo + BATCH_SIZE, trials)))
        for args, master_seed, trials in jobs
        for lo in range(0, trials, BATCH_SIZE)
    ]
    pool = None
    if workers > 1 and len(spans) > 1:
        pool = ProcessPoolExecutor(min(workers, len(spans)), mp_context=get_context("fork"))
    try:
        parts = (map if pool is None else pool.map)(span, *zip(*spans))
        for _, _, trials in jobs:
            yield np.concatenate([next(parts) for _ in range(0, trials, BATCH_SIZE)])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def collect_ln_counts(cfg: ExperimentConfig, pattern: Pattern, workers: int = 1) -> np.ndarray:
    """ln Z per trial (-inf for zero counts): one config on the span
    driver.  For a^m, Z = C(N_a, m) is formed here from the spans' N_a,
    so the forked children never call scipy.  Bytes independent of
    ``workers`` (for many seeds, ``run_experiments`` shares one pool).
    """
    if pattern.alphabet != cfg.dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    job = ((cfg, pattern), cfg.master_seed, cfg.trials)
    with closing(_trial_spans(_count_span, [job], workers)) as counts:
        raw = next(counts)
    return _ln_binom_of_counts(raw, pattern.length) if pattern.is_constant else raw


def _summarize(
    cfg, pattern, regime, values, atoms, skipped, mean_rel_err, var_rel_err, out_dir
) -> SimSummary:
    """Moments, KS verdict and output files of one route's standardized sample.

    ``values`` are the trials the route kept and ``atoms`` their lattice
    support (None off a lattice); ``skipped`` zero-count trials were dropped.
    """
    size = values.size
    conforming = skipped / cfg.trials <= ZERO_SKIP_LIMIT
    crit = ks_critical(max(size, 1))
    ks = ks_statistic(values, atoms) if size >= 2 else None
    skewness, excess_kurtosis = _skew_kurtosis(values) if size >= 2 else (math.nan, math.nan)
    summary = SimSummary(
        regime=regime,
        n=cfg.n,
        m=pattern.length,
        pattern=pattern.to_string(),
        standardization=cfg.standardization,
        trials=cfg.trials,
        master_seed=cfg.master_seed,
        trials_used=int(size),
        trials_skipped_zero=skipped,
        skips_conforming=conforming,
        emp_mean=float(values.mean()) if size else math.nan,
        emp_var=float(values.var(ddof=1)) if size >= 2 else math.nan,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        ks_stat=ks,
        ks_critical_5pct=crit,
        mean_rel_err=mean_rel_err,
        var_rel_err=var_rel_err,
        pass_normality=(ks is not None and ks < crit and conforming),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["standardized_value"]
        lines.extend(repr(float(v)) for v in np.sort(values))
        (out / "samples.csv").write_text("\n".join(lines) + "\n")
        (out / "summary.json").write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return summary


def normal_scale_factors(dist: SourceDist, pattern: Pattern, n: int) -> tuple[float, float]:
    """(ln E[Z], ln(p_w sigma_1)) for the normal-route standardization."""
    ln_ez = expected_count(dist, pattern, n)
    s1n = sigma1_sq_normalized(dist, pattern, n)
    if s1n <= 0.0:
        raise ValueError("sigma_1 is zero for this instance; nothing to standardize")
    ln_sigma1 = 0.5 * math.log(s1n) + log_binomial(n - 1, pattern.length - 1)
    return ln_ez, dist.ln_prob(pattern.word) + ln_sigma1


def summarize_normal(
    cfg: ExperimentConfig, pattern: Pattern, lnz: np.ndarray, out_dir=None
) -> SimSummary:
    """Diagnostics for S = (Z - E[Z]) / (p_w sigma_1) from collected ln counts."""
    ln_ez, ln_scale = normal_scale_factors(cfg.dist, pattern, cfg.n)
    factor = math.exp(ln_ez - ln_scale)
    # expm1 maps ln Z = -inf (zero count) to -1, so zero-count trials stay valid
    s_theo = np.expm1(lnz - ln_ez) * factor
    # a^m counts are C(N_a, m): S lives on the images of k = 0..n
    atoms = None
    if pattern.is_constant:
        atoms = np.expm1(_ln_count_atoms(cfg.n, pattern.length) - ln_ez) * factor
    values = s_theo
    if cfg.standardization == "empirical":
        values, atoms = _empirical_map(s_theo, atoms)
    return _summarize(
        cfg, pattern, "normal", values, atoms, 0,
        float(np.expm1(lnz - ln_ez).mean()),
        float(np.var(s_theo, ddof=1) - 1.0) if cfg.trials >= 2 else math.nan,
        out_dir,
    )


def lognormal_parameters(n: int, m: int, p_a: float) -> tuple[float, float]:
    """(a_n, b_n): centering ln C(n p_a, m) and spread n ln(1 - m/(n p_a))^2 p_a (1 - p_a)."""
    np_a = n * p_a
    if not (m < np_a):
        raise ValueError("log-normal route needs m < n p_a")
    a_n = math.lgamma(np_a + 1.0) - math.lgamma(m + 1) - math.lgamma(np_a - m + 1.0)
    b_n = n * math.log1p(-m / np_a) ** 2 * p_a * (1.0 - p_a)
    return a_n, b_n


def lognormal_route(dist: SourceDist, pattern: Pattern, n: int) -> tuple[float, float]:
    """(a_n, b_n) of the log-normal route; ValueError unless the pattern is
    a^m with m < n p_a and n p_a - m >= LOGNORMAL_GAP_FACTOR sqrt(n)."""
    if not pattern.is_constant:
        raise ValueError("log-normal route requires a constant pattern a^m")
    m, p_a = pattern.length, dist.probs[pattern.word[0]]
    a_n, b_n = lognormal_parameters(n, m, p_a)
    if n * p_a - m < LOGNORMAL_GAP_FACTOR * math.sqrt(n):
        raise ValueError(
            f"log-normal route needs n p_a - m >= {LOGNORMAL_GAP_FACTOR} sqrt(n); "
            f"got gap {n * p_a - m:.1f} vs {LOGNORMAL_GAP_FACTOR * math.sqrt(n):.1f}"
        )
    return a_n, b_n


def summarize_lognormal(
    cfg: ExperimentConfig, pattern: Pattern, lnz: np.ndarray, out_dir=None
) -> SimSummary:
    """Diagnostics for T = (ln Z - a_n) / sqrt(b_n) from collected ln counts."""
    n, m = cfg.n, pattern.length
    a_n, b_n = lognormal_route(cfg.dist, pattern, n)
    keep = np.isfinite(lnz)
    used = lnz[keep]
    t_theo = (used - a_n) / math.sqrt(b_n)
    atoms = (_ln_count_atoms(n, m)[m:] - a_n) / math.sqrt(b_n)
    values = t_theo
    if cfg.standardization == "empirical":
        values, atoms = _empirical_map(t_theo, atoms)
    return _summarize(
        cfg, pattern, "lognormal", values, atoms, int(lnz.size - used.size),
        (float(used.mean()) - a_n) / abs(a_n) if used.size else math.nan,
        float(used.var(ddof=1)) / b_n - 1.0 if used.size >= 2 else math.nan,
        out_dir,
    )


def auto_regime(dist: SourceDist, pattern: Pattern, n: int) -> str:
    """The route ``--regime auto`` takes: log-normal when that route applies
    to the instance and its spread b_n exceeds EQUIVALENCE_SPREAD."""
    try:
        _, b_n = lognormal_route(dist, pattern, n)
    except ValueError:
        return "normal"
    return "lognormal" if b_n > EQUIVALENCE_SPREAD else "normal"


def _checked_routes(cfg: ExperimentConfig, routes) -> tuple[Pattern, tuple[str, ...]]:
    """(pattern, routes) of one config once every route's preconditions hold."""
    routes = (cfg.regime,) if routes is None else tuple(routes)
    if not routes or set(routes) - set(ROUTES):
        raise ValueError(f"routes must be drawn from {ROUTES}, got {routes}")
    pattern = cfg.pattern_spec.resolve(cfg.dist)
    if cfg.n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    for route in routes:
        check = normal_scale_factors if route == "normal" else lognormal_route
        check(cfg.dist, pattern, cfg.n)
    return pattern, routes


def run_experiments(
    cfgs, routes=None, out_dirs=None, workers: int = 1
) -> list[dict[str, SimSummary]]:
    """Collect ln Z for each config and summarize it on each of ``routes``.

    ``routes`` defaults to each config's ``(cfg.regime,)``.  Every route's
    preconditions are checked for every config before the first span.
    All configs' spans then go through one span driver: with ``workers``
    > 1, one pool per call, shared by all seeds, and config k is
    summarized while later configs' spans keep counting.  Config k writes
    to ``out_dirs[k]``: one route writes there, with more route r writes
    to ``out_dirs[k]/r``.  Bytes independent of ``workers``.
    """
    cfgs = tuple(cfgs)
    out_dirs = (None,) * len(cfgs) if out_dirs is None else tuple(out_dirs)
    if not cfgs or len(out_dirs) != len(cfgs):
        raise ValueError("need at least one config and one out_dir per config")
    plans = [(cfg, *_checked_routes(cfg, routes), out_dir) for cfg, out_dir in zip(cfgs, out_dirs)]
    jobs = [((cfg, pattern), cfg.master_seed, cfg.trials) for cfg, pattern, _, _ in plans]
    results = []
    with closing(_trial_spans(_count_span, jobs, workers)) as counts:
        for (cfg, pattern, cfg_routes, out_dir), raw in zip(plans, counts):
            lnz = _ln_binom_of_counts(raw, pattern.length) if pattern.is_constant else raw
            summaries = {}
            for route in cfg_routes:
                sub = out_dir
                if out_dir is not None and len(cfg_routes) > 1:
                    sub = Path(out_dir) / route
                summarize = summarize_normal if route == "normal" else summarize_lognormal
                summaries[route] = summarize(cfg, pattern, lnz, sub)
            results.append(summaries)
    return results


def run_experiment(
    cfg: ExperimentConfig, routes=None, out_dir=None, workers: int = 1
) -> dict[str, SimSummary]:
    """Collect ln Z once and summarize it on each of ``routes``, in order:
    ``run_experiments`` for one config.

    ``routes`` defaults to ``(cfg.regime,)``.  Every route's preconditions
    are checked before the first trial.  One route writes its files to
    ``out_dir``; with more, route r writes to ``out_dir/r``.
    """
    return run_experiments((cfg,), routes, (out_dir,), workers)[0]


@dataclass(frozen=True)
class LasnReport:
    """Agreement of the two standardizations on one constant-pattern instance.

    When b_asym = (1/p_a - 1) m^2 / n is at most EQUIVALENCE_SPREAD the
    log route and the count route standardize to the same limit, so both
    KS statistics should clear the same critical value.
    """

    n: int
    m: int
    p_a: float
    trials: int
    b_asym: float
    equivalence_expected: bool
    ks_log_route: float
    ks_count_route: float
    ks_critical_5pct: float
    pass_log_route: bool
    pass_count_route: bool
    trials_skipped_zero: int


def lasn_consistency_check(
    n: int, m: int, p_a: float, trials: int, master_seed: int
) -> LasnReport:
    """Run both standardizations on shared constant-pattern samples."""
    if not (0.0 < p_a < 1.0):
        raise ValueError("p_a must lie strictly in (0, 1)")
    if trials < 2:
        raise ValueError("a KS statistic needs at least 2 trials")
    dist = SourceDist(Alphabet.from_string("ab"), (p_a, 1.0 - p_a))
    cfg = ExperimentConfig(dist, PatternSpec.constant(0, m), n, trials, master_seed, "lognormal")
    log_route, count_route = run_experiment(cfg, ("lognormal", "normal")).values()
    crit = ks_critical(trials)
    b_asym = (1.0 / p_a - 1.0) * m * m / n
    return LasnReport(
        n=n,
        m=m,
        p_a=p_a,
        trials=trials,
        b_asym=b_asym,
        equivalence_expected=b_asym <= EQUIVALENCE_SPREAD,
        ks_log_route=log_route.ks_stat,
        ks_count_route=count_route.ks_stat,
        ks_critical_5pct=crit,
        pass_log_route=log_route.ks_stat < crit,
        pass_count_route=count_route.ks_stat < crit,
        trials_skipped_zero=log_route.trials_skipped_zero,
    )
