"""Acceptance suite: fourteen gated criteria, one verdict line each.

Each test prints (and records for the terminal summary) a single line
"[acceptance NN] PASS/FAIL <name> (<detail>)" and then asserts the
verdict.  Criterion 10 encodes normal gates that the finite-sample
distribution at its pinned scale cannot meet; it runs faithfully at full
scale and reports its failure rather than weakening the gate, with the
computed log-scale spread and the variance inflation it predicts stated
in the failure detail.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, AB, binary_dist, make_pattern
from subseqstats.channel import (
    ChannelConfig,
    exact_mutual_information_direct,
    exact_mutual_information_via_counts,
)
from subseqstats.counting import count_subsequences
from subseqstats.decomposition import identity_checks, v_level
from subseqstats.moments import (
    binomial_exact,
    hg_sign_bias,
    sigma1_sq_exact,
    sigma1_sq_normalized,
)
from subseqstats.presets import (
    preset_t2a_normal,
    preset_tka_skewed,
    preset_tllow_alternating,
    preset_tln_lognormal,
    preset_tlrandom_scaling,
)
from subseqstats.simulation import (
    ExperimentConfig,
    PatternSpec,
    collect_ln_counts,
    summarize_lognormal,
    summarize_normal,
)
from subseqstats.source_model import SourceDist, Text, proportion_distance


def record(index: int, name: str, passed: bool, detail: str = ""):
    line = f"[acceptance {index:02d}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def all_binary_texts_array(n: int) -> np.ndarray:
    ids = np.arange(2**n, dtype=np.uint32)
    return ((ids[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)


# ---------------------------------------------------------------------------


def test_01_counting_matches_subset_enumeration():
    t0 = time.time()
    mismatches = 0
    checked = 0
    for n in range(1, 13):
        texts = all_binary_texts_array(n)
        rows = [Text(texts[k], AB) for k in range(texts.shape[0])]
        dist = binary_dist(0.5)
        for m in range(1, min(4, n) + 1):
            combos = list(itertools.combinations(range(n), m))
            words = list(itertools.product((0, 1), repeat=m))
            oracle = {w: np.zeros(texts.shape[0], dtype=np.int64) for w in words}
            for combo in combos:
                sub = texts[:, combo]
                for w in words:
                    oracle[w] += np.all(sub == np.asarray(w, dtype=np.int8), axis=1)
            for w in words:
                pat = make_pattern("".join("ab"[v] for v in w), dist)
                lib = np.fromiter(
                    (count_subsequences(t, pat).exact for t in rows),
                    dtype=np.int64,
                    count=len(rows),
                )
                checked += len(rows)
                mismatches += int(np.count_nonzero(lib != oracle[w]))
    elapsed = time.time() - t0
    record(
        1,
        "exact counting agrees with exhaustive subset enumeration",
        mismatches == 0 and elapsed < 120.0,
        f"{checked} text/pattern pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_02_decomposition_exact_and_orthogonal():
    t0 = time.time()
    n = 8
    dist = binary_dist(0.5)
    weight = Fraction(1, 2**n)
    bad_residual = 0
    worst_cross = Fraction(0)
    for word in ("aba", "ab", "aaa"):
        pat = make_pattern(word, dist)
        m = pat.length
        levels_by_text = []
        for bits in itertools.product((0, 1), repeat=n):
            t = Text(np.asarray(bits, dtype=np.int8), AB)
            levels = [v_level(t, dist, pat, ell) for ell in range(m + 1)]
            z = count_subsequences(t, pat).exact
            z_star = Fraction(z) * 2**m  # uniform binary: 1/p_w = 2^m
            if sum(levels) != z_star:
                bad_residual += 1
            levels_by_text.append(levels)
        # orthogonality: all first and mixed second moments vanish
        for ell in range(1, m + 1):
            mean = sum(weight * lv[ell] for lv in levels_by_text)
            if mean != 0:
                worst_cross += abs(mean)
        for ell in range(m + 1):
            for k in range(ell + 1, m + 1):
                cross = sum(weight * lv[ell] * lv[k] for lv in levels_by_text)
                if cross != 0:
                    worst_cross += abs(cross)
    elapsed = time.time() - t0
    record(
        2,
        "decomposition sums to the normalized count and levels are orthogonal",
        bad_residual == 0 and worst_cross == 0 and elapsed < 300.0,
        f"3 patterns x 256 texts, exact rationals, {elapsed:.1f}s",
    )


def test_03_slot_coefficient_identities():
    bad = 0
    checked = 0
    for n in range(1, 13):
        for m in range(1, min(5, n) + 1):
            for ell in range(1, m + 1):
                rep = identity_checks(n, m, ell)
                checked += 1
                if not rep.all_ok:
                    bad += 1
    record(
        3,
        "pinned-slot coefficient sum identities hold exactly",
        bad == 0,
        f"{checked} (n, m, level) triples",
    )


def test_04_first_level_variance_and_residual_bound():
    t0 = time.time()
    configs = [
        (binary_dist(0.5), "ab"),
        (binary_dist(0.5), "aba"),
        (SourceDist(AB, (1.0 / 3.0, 2.0 / 3.0)), "ab"),
        (SourceDist(AB, (1.0 / 3.0, 2.0 / 3.0)), "aba"),
    ]
    var_bad = 0
    bound_bad = 0
    bound_checked = 0
    for dist, word in configs:
        pat = make_pattern(word, dist)
        m = pat.length
        rats = dist.rational_probs()
        b = 1 / min(rats) - 1
        p_w = Fraction(1)
        for j in pat.word:
            p_w *= rats[int(j)]
        for n in range(m + 1, 11):
            var1 = Fraction(0)
            var_rest = Fraction(0)
            v0 = Fraction(binomial_exact(n, m))
            for bits in itertools.product((0, 1), repeat=n):
                t = Text(np.asarray(bits, dtype=np.int8), AB)
                pt = Fraction(1)
                for x in bits:
                    pt *= rats[x]
                v1 = v_level(t, dist, pat, 1)
                z_star = count_subsequences(t, pat).exact / p_w
                var1 += pt * v1 * v1
                var_rest += pt * (z_star - v0 - v1) ** 2
            if var1 != sigma1_sq_exact(dist, pat, n):
                var_bad += 1
            if Fraction(m * m) <= Fraction(n) / b:  # m <= sqrt(n / B)
                bound_checked += 1
                if var_rest > b * b * m * m * binomial_exact(n - 1, m - 1) ** 2:
                    bound_bad += 1
    elapsed = time.time() - t0
    record(
        4,
        "exhaustive Var(V_1) equals sigma_1^2 and the residual bound holds",
        var_bad == 0 and bound_bad == 0,
        f"4 configs, n up to 10, {bound_checked} residual checks, {elapsed:.1f}s",
    )


def test_05_variance_bound_suite_on_grid():
    rng = np.random.default_rng(20250823)
    upper_bad = 0
    lower_bad = 0
    for _ in range(200):
        p0 = float(rng.uniform(0.15, 0.85))
        dist = binary_dist(p0)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 501))
        word = "".join("ab"[int(v)] for v in rng.integers(0, 2, size=m))
        pat = make_pattern(word, dist)
        s1n = sigma1_sq_normalized(dist, pat, n)
        upper = dist.b_const * n
        lower = n * proportion_distance(pat, dist) ** 2
        if s1n > upper * (1 + 1e-9):
            upper_bad += 1
        if s1n < lower * (1 - 1e-9) - 1e-9:
            lower_bad += 1
    record(
        5,
        "variance upper and lower bounds hold on a 200-instance grid",
        upper_bad == 0 and lower_bad == 0,
        f"violations: {upper_bad} upper, {lower_bad} lower",
    )


def test_06_constant_pattern_closed_form():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(200):
        p0 = float(rng.uniform(0.15, 0.85))
        dist = binary_dist(p0)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 501))
        pat = make_pattern("a" * m, dist)
        got = sigma1_sq_normalized(dist, pat, n)
        want = n * (1.0 / p0 - 1.0)
        worst = max(worst, abs(got / want - 1.0))
    record(
        6,
        "constant-pattern variance closed form n (1/p_a - 1) C^2",
        worst <= 1e-10,
        f"worst relative error {worst:.2e}",
    )


def test_07_alternating_bound_sweep():
    t0 = time.time()
    report = preset_tllow_alternating(n_max=100)
    elapsed = time.time() - t0
    record(
        7,
        "alternating-pattern variance bound for all n <= 100, m <= n/2",
        report.passed and elapsed < 60.0,
        f"worst ratio {report.params['worst_ratio']:.4f} at "
        f"{report.params['worst_at']}, {elapsed:.1f}s",
    )


def test_08_hypergeometric_sign_bias_exhaustive():
    t0 = time.time()
    bad = 0
    checked = 0
    for n in range(1, 41):
        for k in range(n + 1):
            for l in range(n + 1):
                bias, bound = hg_sign_bias(n, k, l)
                checked += 1
                if abs(bias) > bound + 1e-12:
                    bad += 1
    elapsed = time.time() - t0
    record(
        8,
        "sign bias of every hypergeometric with n <= 40 obeys exp(-2 Var)",
        bad == 0,
        f"{checked} (n, k, l) triples, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# statistical criteria: fixed seeds, 10^5 trials where stated

# the slowest presets spread their trial spans over this many processes;
# their output bytes do not depend on it
CPUS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="session")
def t2a_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("t2a")
    t0 = time.time()
    report = preset_t2a_normal(out_dir=out, trials=100_000, workers=CPUS)
    return report, out, time.time() - t0


def test_09_normal_regime_desk_scale(t2a_run):
    report, _, elapsed = t2a_run
    gates = {g.name: g for g in report.gates}
    ks = gates["KS passes out of 5 (need >= 4)"]
    var = gates["max |emp var / theory - 1|"]
    record(
        9,
        "count CLT at n=2000, w=aba: variance within 5% and KS on >= 4/5 seeds",
        report.passed and elapsed < 600.0,
        f"KS passes {ks.value:.0f}/5, worst var err {var.value:.3%}, {elapsed:.0f}s",
    )


def test_10_skewed_block_pattern_normal_gates():
    report = preset_tka_skewed(trials=100_000, workers=CPUS)
    gates = {g.name: g for g in report.gates}
    ks = gates["KS passes out of 5 (need >= 4)"]
    var = gates["max |emp var / theory - 1|"]
    skew = max(s["skewness"] for s in report.seed_summaries)
    # first-projection relative variance Var(Z) / E[Z]^2 = sigma1n (m/n)^2;
    # a log-normal count with that log-scale spread s has its variance
    # inflated by (e^{s^2} - 1) / s^2 - 1 over the first projection
    dist = binary_dist(0.7)
    pat = make_pattern("a" * 20 + "b" * 20, dist)
    n, m = report.params["n"], pat.length
    s_sq = sigma1_sq_normalized(dist, pat, n) * (m / n) ** 2
    inflation = math.expm1(s_sq) / s_sq - 1.0
    record(
        10,
        "normal gates for the block pattern a^20 b^20 at n=4000, p=(0.7,0.3)",
        report.passed,
        f"KS passes {ks.value:.0f}/5, worst var err {var.value:.1%} vs predicted "
        f"inflation {inflation:.1%}, sample skewness up to {skew:.2f}: ln Z has "
        f"spread s = {math.sqrt(s_sq):.2f} at m/sqrt(n) = {m / math.sqrt(n):.2f}, "
        f"so the count is still visibly log-normal; Tka is a limit for "
        f"m = o(sqrt n) and gives no finite-n gate to replace this one",
    )


def test_11_lognormal_regime_desk_scale():
    report = preset_tln_lognormal(trials=100_000)
    gates = {g.name: g for g in report.gates}
    ks = gates["ln Z KS passes out of 5 (need >= 4)"]
    var = gates["max |emp var(ln Z) / b_n - 1|"]
    fails = gates["normal route KS failures out of 5 (need >= 4)"]
    logs = [s for s in report.seed_summaries if s["regime"] == "lognormal"]
    norms = [s for s in report.seed_summaries if s["regime"] == "normal"]
    record(
        11,
        "log-normal regime a^300 at n=10^4: ln Z KS on >= 4/5 seeds, "
        "variance within 10%, count-scale KS must fail",
        report.passed,
        f"ln Z lattice KS passes {ks.value:.0f}/5 (stat/crit "
        + ", ".join(f"{s['ks_stat']:.5f}/{s['ks_critical_5pct']:.5f}" for s in logs)
        + f"), var err {var.value:.3%} within 10%, normal-route failures "
        f"{fails.value:.0f}/5 (KS "
        + ", ".join(f"{s['ks_stat']:.3f}" for s in norms)
        + ")",
    )


def test_12_random_pattern_formula_and_band():
    t0 = time.time()
    report = preset_tlrandom_scaling(patterns=2000, master_seed=424242)
    elapsed = time.time() - t0
    dev = report.gates[0].value
    ratios = report.params["ratios"]
    record(
        12,
        "random-pattern variance formula within 3 SE and scaling band [0.85, 0.95]",
        report.passed,
        f"|mean - formula| = {dev:.2f} SE at (200, 16); ratios "
        + ", ".join(f"{k}: {v:.4f}" for k, v in ratios.items())
        + f", {elapsed:.0f}s",
    )


def test_13_channel_identity_equivalence():
    t0 = time.time()
    worst = 0.0
    checked = 0
    for p0 in (0.5, 0.7):
        for n in range(1, 9):
            for d in (0.1, 0.3, 0.5, 0.7, 0.9):
                cfg = ChannelConfig(binary_dist(p0), n, d)
                a = exact_mutual_information_via_counts(cfg)
                b = exact_mutual_information_direct(cfg)
                worst = max(worst, abs(a - b))
                assert 0.0 <= a <= n * math.log(2.0) + 1e-12
                checked += 1
    elapsed = time.time() - t0
    record(
        13,
        "count-moment identity equals direct mutual information to 1e-9",
        worst <= 1e-9 and elapsed < 300.0,
        f"{checked} (p, n, d) configs, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_14_worker_count_invariance(t2a_run, tmp_path):
    _, t2a_dir, _ = t2a_run
    mismatched = []

    def files_equal(d1, d2):
        for name in ("samples.csv", "summary.json"):
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                return False
        return True

    # full-size witness: the n=2000 CLT experiment, seed 101, rerun at 8 workers
    dist = binary_dist(0.5)
    spec = PatternSpec.explicit((0, 1, 0))
    cfg = ExperimentConfig(dist, spec, 2000, 100_000, 101, "normal")
    pat = spec.resolve(dist)
    redo = tmp_path / "t2a_w8"
    summarize_normal(cfg, pat, collect_ln_counts(cfg, pat, workers=8), redo)
    if not files_equal(t2a_dir / "seed_101", redo):
        mismatched.append("t2a full size")

    # breadth: one multi-batch run per remaining stochastic experiment family
    families = [
        (
            "skewed block",
            ExperimentConfig(
                binary_dist(0.7), PatternSpec.explicit((0,) * 20 + (1,) * 20),
                4000, 9000, 101, "normal",
            ),
            summarize_normal,
        ),
        (
            "lognormal a^300",
            ExperimentConfig(
                binary_dist(0.5), PatternSpec.constant(0, 300), 10_000, 9000, 101, "lognormal",
            ),
            summarize_lognormal,
        ),
        (
            "dichotomy a^200",
            ExperimentConfig(
                binary_dist(0.5), PatternSpec.constant(0, 200), 40_000, 9000, 101, "lognormal",
            ),
            summarize_lognormal,
        ),
        (
            "random pattern",
            ExperimentConfig(
                binary_dist(0.5), PatternSpec.random(12, 101), 12_000, 9000, 101,
                "normal", standardization="empirical",
            ),
            summarize_normal,
        ),
    ]
    for label, fam_cfg, summarize in families:
        fam_pat = fam_cfg.pattern_spec.resolve(fam_cfg.dist)
        dirs = []
        for workers in (1, 8):
            sub = tmp_path / f"{label.replace(' ', '_')}_w{workers}"
            lnz = collect_ln_counts(fam_cfg, fam_pat, workers=workers)
            summarize(fam_cfg, fam_pat, lnz, sub)
            dirs.append(sub)
        if not files_equal(*dirs):
            mismatched.append(label)
    record(
        14,
        "sample files are bit-identical at 1 and 8 workers",
        not mismatched,
        "full-size CLT witness plus 4 reduced-trial families"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
