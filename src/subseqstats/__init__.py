"""Statistics of pattern occurrences as subsequences of random texts.

The package computes exact occurrence counts, exact and log-space
moments, the orthogonal (projection) decomposition of the normalized
count, seeded Monte Carlo experiments for the normal and log-normal
regimes, and the deletion-channel mutual-information identity.
"""

from .counting import CountValue, brute_force_count, constant_pattern_count, count_subsequences
from .decomposition import DecompositionReport, decompose, identity_checks, v_level
from .moments import (
    MomentReport,
    expected_count,
    expected_count_exact,
    moment_report,
    residual_bound,
    sigma1_sq,
    sigma1_sq_exact,
    xi_bound,
)
from .simulation import (
    ExperimentConfig,
    PatternSpec,
    SimSummary,
    auto_regime,
    lasn_consistency_check,
    run_experiment,
    run_experiments,
)
from .source_model import Alphabet, Pattern, SourceDist, Text, derive_seed, derive_seeds, generate_text

__all__ = [
    "Alphabet",
    "CountValue",
    "DecompositionReport",
    "ExperimentConfig",
    "MomentReport",
    "Pattern",
    "PatternSpec",
    "SimSummary",
    "SourceDist",
    "Text",
    "auto_regime",
    "brute_force_count",
    "constant_pattern_count",
    "count_subsequences",
    "decompose",
    "derive_seed",
    "derive_seeds",
    "expected_count",
    "expected_count_exact",
    "generate_text",
    "identity_checks",
    "lasn_consistency_check",
    "moment_report",
    "residual_bound",
    "run_experiment",
    "run_experiments",
    "sigma1_sq",
    "sigma1_sq_exact",
    "v_level",
    "xi_bound",
]

__version__ = "0.1.0"
