"""Seeded Monte Carlo experiments for the count distribution dichotomy.

Two standardizations of the occurrence count Z are sampled over random
texts.  The normal route looks at S = (Z - E[Z]) / (p_w sigma_1), fully
in log space: S = expm1(ln Z - ln E[Z]) * exp(ln E[Z] - ln(p_w sigma_1)),
so no intermediate ever leaves double range.  The log-normal route, for
constant patterns a^m with m well below n p_a, looks at
T = (ln Z - ln C(n p_a, m)) / sqrt(b_n) with
b_n = n * ln(1 - m/(n p_a))^2 * p_a (1 - p_a).

For a^m the count is Z = C(N_a, m) with N_a ~ Binomial(n, p_a), so both
routes take at most n + 1 values.  Their KS statistics are then taken on
that lattice, between consecutive atoms, so that they measure the law
and not the jumps every discrete sample has against a continuous CDF.

Trial t always draws its text from the stream seed derived from
(master_seed, t), batches have a fixed size, and samples are written
sorted, so a run's output bytes depend only on its configuration.
Trials run on one thread: a thread pool over batches measured slower
than the serial loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln, ndtr
from scipy.stats import kurtosis, skew

from .counting import batched_ln_counts
from .moments import expected_count, log_binomial, sigma1_sq_normalized
from .source_model import (
    Alphabet,
    Pattern,
    SourceDist,
    batch_letters,
    derive_seed,
    generate_text,
)

BATCH_SIZE = 4096
KS_COEFF_5PCT = 1.358

# more than this fraction of zero-count trials marks a log-normal run non-conforming
ZERO_SKIP_LIMIT = 0.01

# the log-normal parameterization needs n p_a - m >= gap_factor * sqrt(n)
LOGNORMAL_GAP_FACTOR = 10.0


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
        return cls(kind="explicit", word=tuple(int(j) for j in word))

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
        if self.kind == "constant":
            if self.m < 1:
                raise ValueError("pattern length must be at least 1")
            return Pattern.from_indices(dist, (self.symbol,) * self.m)
        if self.kind == "alternating":
            if self.m < 1:
                raise ValueError("pattern length must be at least 1")
            if dist.alphabet.size < 2:
                raise ValueError("alternating pattern needs two symbols")
            return Pattern.from_indices(dist, tuple(j % 2 for j in range(self.m)))
        if self.kind == "random":
            if self.m < 1:
                raise ValueError("pattern length must be at least 1")
            drawn = generate_text(dist, self.m, derive_seed(self.pattern_seed, 0))
            return Pattern.from_indices(dist, drawn.letters)
        raise ValueError(f"unknown pattern spec kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dist: SourceDist
    pattern_spec: PatternSpec
    n: int
    trials: int
    master_seed: int
    regime: str
    standardization: str = "theoretical"
    gap_factor: float = LOGNORMAL_GAP_FACTOR

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.regime not in ("normal", "lognormal"):
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
    """Asymptotic 5% two-sided critical value."""
    return KS_COEFF_5PCT / math.sqrt(trials)


def _ln_binom_of_counts(counts: np.ndarray, m: int) -> np.ndarray:
    """ln C(counts, m) elementwise, -inf where counts < m."""
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
    mu, sd = x.mean(), x.std(ddof=1)
    return (x - mu) / sd, None if atoms is None else (atoms - mu) / sd


def collect_ln_counts(cfg: ExperimentConfig, pattern: Pattern, workers: int = 1) -> np.ndarray:
    """ln Z per trial (-inf for zero counts), in fixed spans of BATCH_SIZE trials.

    ``workers`` is accepted for compatibility and has no effect.
    """
    out = np.empty(cfg.trials)
    for lo in range(0, cfg.trials, BATCH_SIZE):
        hi = min(lo + BATCH_SIZE, cfg.trials)
        seeds = [derive_seed(cfg.master_seed, t) for t in range(lo, hi)]
        letters = batch_letters(cfg.dist, cfg.n, seeds)
        if pattern.is_constant:
            counts = np.count_nonzero(letters == pattern.word[0], axis=1)
            out[lo:hi] = _ln_binom_of_counts(counts, pattern.length)
        else:
            out[lo:hi] = batched_ln_counts(letters, pattern.word)
    return out


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
        skewness=float(skew(values)) if size >= 2 else math.nan,
        excess_kurtosis=float(kurtosis(values)) if size >= 2 else math.nan,
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
    ln_ez = expected_count(dist, pattern, n).ln_value()
    s1n = sigma1_sq_normalized(dist, pattern, n)
    if s1n <= 0.0:
        raise ValueError("sigma_1 is zero for this instance; nothing to standardize")
    ln_sigma1 = 0.5 * math.log(s1n) + log_binomial(n - 1, pattern.length - 1).ln_value()
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


def run_normal_experiment(cfg: ExperimentConfig, out_dir=None) -> SimSummary:
    """Sample S = (Z - E[Z]) / (p_w sigma_1) and test it against N(0, 1)."""
    if cfg.regime != "normal":
        raise ValueError("config regime is not 'normal'")
    pattern = cfg.pattern_spec.resolve(cfg.dist)
    if cfg.n < pattern.length:
        raise ValueError("text length n must be at least the pattern length")
    return summarize_normal(cfg, pattern, collect_ln_counts(cfg, pattern), out_dir)


def lognormal_parameters(n: int, m: int, p_a: float) -> tuple[float, float]:
    """(a_n, b_n): centering ln C(n p_a, m) and spread n ln(1 - m/(n p_a))^2 p_a (1 - p_a)."""
    np_a = n * p_a
    if not (m < np_a):
        raise ValueError("log-normal route needs m < n p_a")
    a_n = math.lgamma(np_a + 1.0) - math.lgamma(m + 1) - math.lgamma(np_a - m + 1.0)
    b_n = n * math.log1p(-m / np_a) ** 2 * p_a * (1.0 - p_a)
    return a_n, b_n


def summarize_lognormal(
    cfg: ExperimentConfig, pattern: Pattern, lnz: np.ndarray, out_dir=None
) -> SimSummary:
    """Diagnostics for T = (ln Z - a_n) / sqrt(b_n) from collected ln counts."""
    if not pattern.is_constant:
        raise ValueError("log-normal route requires a constant pattern a^m")
    n, m = cfg.n, pattern.length
    p_a = cfg.dist.probs[pattern.word[0]]
    a_n, b_n = lognormal_parameters(n, m, p_a)
    if n * p_a - m < cfg.gap_factor * math.sqrt(n):
        raise ValueError(
            f"log-normal route needs n p_a - m >= {cfg.gap_factor} sqrt(n); "
            f"got gap {n * p_a - m:.1f} vs {cfg.gap_factor * math.sqrt(n):.1f}"
        )
    keep = np.isfinite(lnz)
    used = lnz[keep]
    t_theo = (used - a_n) / math.sqrt(b_n)
    atoms = (_ln_count_atoms(n, m)[m:] - a_n) / math.sqrt(b_n)
    values = t_theo
    if cfg.standardization == "empirical" and used.size >= 2:
        values, atoms = _empirical_map(t_theo, atoms)
    return _summarize(
        cfg, pattern, "lognormal", values, atoms, int(lnz.size - used.size),
        (float(used.mean()) - a_n) / abs(a_n) if used.size else math.nan,
        float(used.var(ddof=1)) / b_n - 1.0 if used.size >= 2 else math.nan,
        out_dir,
    )


def run_lognormal_experiment(cfg: ExperimentConfig, out_dir=None) -> SimSummary:
    """Sample T = (ln Z - ln C(n p_a, m)) / sqrt(b_n) for a constant pattern."""
    if cfg.regime != "lognormal":
        raise ValueError("config regime is not 'lognormal'")
    pattern = cfg.pattern_spec.resolve(cfg.dist)
    return summarize_lognormal(cfg, pattern, collect_ln_counts(cfg, pattern), out_dir)


@dataclass(frozen=True)
class LasnReport:
    """Agreement of the two standardizations on one constant-pattern instance.

    When b_asym = (1/p_a - 1) m^2 / n is small the log route and the
    count route standardize to the same limit, so both KS statistics
    should clear the same critical value.
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
    pattern = cfg.pattern_spec.resolve(dist)
    lnz = collect_ln_counts(cfg, pattern)
    log_route = summarize_lognormal(cfg, pattern, lnz)
    count_route = summarize_normal(cfg, pattern, lnz)
    crit = ks_critical(trials)
    b_asym = (1.0 / p_a - 1.0) * m * m / n
    return LasnReport(
        n=n,
        m=m,
        p_a=p_a,
        trials=trials,
        b_asym=b_asym,
        equivalence_expected=b_asym <= 0.1,
        ks_log_route=log_route.ks_stat,
        ks_count_route=count_route.ks_stat,
        ks_critical_5pct=crit,
        pass_log_route=log_route.ks_stat < crit,
        pass_count_route=count_route.ks_stat < crit,
        trials_skipped_zero=log_route.trials_skipped_zero,
    )
