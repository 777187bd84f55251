"""Orthogonal decomposition of the normalized subsequence count.

The normalized count Z* = Z / p_w splits exactly into levels
Z* = sum_{l=0}^m V_l, where V_l collects the interactions of exactly l
text positions.  Each V_l is a sum over position sets beta and slot sets
gamma of an integer coefficient c(beta, gamma) times a product of
centered letter scores phi_a(x) = 1{x=a}/p_a - 1.  Level 0 is the
constant C(n, m); the levels are mutually uncorrelated under the source.
Everything in this module runs in exact rational arithmetic, so the
telescoping residual Z* - sum_l V_l must be exactly zero on every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .counting import count_subsequences
from .source_model import Pattern, SourceDist, Text

# level enumeration is refused when C(n, l) * C(m, l) exceeds this
ENUM_LIMIT = 10_000_000


def phi(dist: SourceDist, a: int, x: int) -> Fraction:
    """Centered letter score phi_a(x) = 1{x=a}/p_a - 1, exactly rational."""
    k = dist.alphabet.size
    if not (0 <= a < k) or not (0 <= x < k):
        raise ValueError("symbol index out of alphabet range")
    probs = dist.rational_probs()
    if x == a:
        return 1 / probs[a] - 1
    return Fraction(-1)


def coeff_c_general(beta, gamma, n: int, m: int) -> int:
    """Occurrence slots threading slot set gamma through position set beta.

    beta and gamma are equal-length strictly increasing tuples inside
    [1, n] and [1, m]; with boundary sentinels appended, the count is the
    product over consecutive gaps of C(position gap - 1, slot gap - 1).
    """
    beta = tuple(beta)
    gamma = tuple(gamma)
    if len(beta) != len(gamma):
        raise ValueError("beta and gamma must have equal length")
    if not (0 <= m <= n):
        raise ValueError("need 0 <= m <= n")
    for seq, top, name in ((beta, n, "beta"), (gamma, m, "gamma")):
        if any(seq[t] >= seq[t + 1] for t in range(len(seq) - 1)):
            raise ValueError(f"{name} must be strictly increasing")
        if seq and not (1 <= seq[0] and seq[-1] <= top):
            raise ValueError(f"{name} entries out of range")
    b = (0,) + beta + (n + 1,)
    g = (0,) + gamma + (m + 1,)
    prod = 1
    for k in range(1, len(b)):
        prod *= math.comb(b[k] - b[k - 1] - 1, g[k] - g[k - 1] - 1)
        if prod == 0:
            return 0
    return prod


def _phi_table(dist: SourceDist, text: Text) -> list[list[Fraction]]:
    """phi_a(x_i) for every symbol a and text position i (1-based i maps to i-1)."""
    probs = dist.rational_probs()
    letters = text.letters.tolist()
    table = []
    for a in range(dist.alphabet.size):
        hit = 1 / probs[a] - 1
        miss = Fraction(-1)
        table.append([hit if x == a else miss for x in letters])
    return table


def _check_enumeration(n: int, m: int, ell: int) -> None:
    """Refuse a level whose C(n, ell) * C(m, ell) pairs of sets exceed ENUM_LIMIT."""
    work = math.comb(n, ell) * math.comb(m, ell)
    if work > ENUM_LIMIT:
        raise ValueError(
            f"C({n}, {ell}) * C({m}, {ell}) = {work} exceeds the enumeration "
            f"limit of {ENUM_LIMIT}"
        )


def v_level(text: Text, dist: SourceDist, pattern: Pattern, ell: int) -> Fraction:
    """Level-ell projection V_ell of the normalized count, exactly rational."""
    if pattern.alphabet != dist.alphabet:
        raise ValueError("pattern and distribution use different alphabets")
    n, m = text.length, pattern.length
    if not (0 <= ell <= m):
        raise ValueError("level must lie in [0, pattern length]")
    if ell == 0:
        return Fraction(math.comb(n, m))
    _check_enumeration(n, m, ell)
    table = _phi_table(dist, text)
    word = pattern.word
    total = Fraction(0)
    for gamma in combinations(range(1, m + 1), ell):
        rows = [table[word[j - 1]] for j in gamma]
        for beta in combinations(range(1, n + 1), ell):
            c = coeff_c_general(beta, gamma, n, m)
            if c == 0:
                continue
            prod = Fraction(c)
            for row, i in zip(rows, beta):
                prod *= row[i - 1]
            total += prod
    return total


@dataclass(frozen=True)
class DecompositionReport:
    """Exact level split of the normalized count for one text."""

    n: int
    m: int
    pattern: str
    count: int
    normalized_count: Fraction
    levels: tuple[Fraction, ...]
    residual: Fraction

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pattern": self.pattern,
            "count": str(self.count),
            "normalized_count": str(self.normalized_count),
            "levels": [str(v) for v in self.levels],
            "residual": str(self.residual),
        }


def decompose(text: Text, dist: SourceDist, pattern: Pattern) -> DecompositionReport:
    """Split Z* into its levels and report the telescoping residual."""
    z = count_subsequences(text, pattern, mode="exact").exact
    probs = dist.rational_probs()
    pw = Fraction(1)
    for j in pattern.word:
        pw *= probs[j]
    z_star = z / pw
    levels = tuple(v_level(text, dist, pattern, ell) for ell in range(pattern.length + 1))
    return DecompositionReport(
        n=text.length,
        m=pattern.length,
        pattern=pattern.to_string(),
        count=z,
        normalized_count=z_star,
        levels=levels,
        residual=z_star - sum(levels),
    )


@dataclass(frozen=True)
class IdentityCheckReport:
    """Both marginal sums of c(beta, gamma) against their closed forms.

    Summing over position sets must give C(n, m) for every slot set;
    summing over slot sets must give C(n-ell, m-ell) for every position set.
    """

    n: int
    m: int
    ell: int
    position_sum_target: int
    slot_sum_target: int
    position_sums_ok: bool
    slot_sums_ok: bool
    checked_slot_sets: int
    checked_position_sets: int

    @property
    def all_ok(self) -> bool:
        return self.position_sums_ok and self.slot_sums_ok


def identity_checks(n: int, m: int, ell: int) -> IdentityCheckReport:
    """Verify the two marginal-sum identities by direct enumeration."""
    if not (0 <= ell <= m <= n):
        raise ValueError("need 0 <= ell <= m <= n")
    _check_enumeration(n, m, ell)
    pos_target = math.comb(n, m)
    slot_target = math.comb(n - ell, m - ell)
    slot_sets = list(combinations(range(1, m + 1), ell))
    pos_sets = list(combinations(range(1, n + 1), ell))
    pos_ok = all(
        sum(coeff_c_general(beta, gamma, n, m) for beta in pos_sets) == pos_target
        for gamma in slot_sets
    )
    slot_ok = all(
        sum(coeff_c_general(beta, gamma, n, m) for gamma in slot_sets) == slot_target
        for beta in pos_sets
    )
    return IdentityCheckReport(
        n=n,
        m=m,
        ell=ell,
        position_sum_target=pos_target,
        slot_sum_target=slot_target,
        position_sums_ok=pos_ok,
        slot_sums_ok=slot_ok,
        checked_slot_sets=len(slot_sets),
        checked_position_sets=len(pos_sets),
    )
