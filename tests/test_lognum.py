"""Nonnegative log-space numbers against exact rational arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from subseqstats.lognum import LogNum


def from_fraction(fr: Fraction) -> LogNum:
    if fr == 0:
        return LogNum.zero()
    return LogNum.from_int(fr.numerator) * LogNum.from_ln(-math.log(fr.denominator))


def test_constructors_round_trip():
    assert LogNum.zero().is_zero
    assert LogNum.one().to_float() == 1.0
    assert LogNum.from_int(0).is_zero
    assert LogNum.from_float(0.0).is_zero
    assert LogNum.from_int(3).to_float() == pytest.approx(3.0, rel=1e-15)
    assert LogNum.from_float(2.5).to_float() == pytest.approx(2.5, rel=1e-15)
    assert LogNum.from_ln(math.log(7.0)).to_float() == pytest.approx(7.0, rel=1e-15)
    assert LogNum(0, 5.0) == LogNum.zero()  # a zero's ln is normalized away


def test_from_int_handles_huge_integers():
    v = LogNum.from_int(10**500)
    assert v.ln_value() == pytest.approx(500 * math.log(10), abs=1e-9)
    assert v.to_float() == math.inf  # collapses rather than raising


def test_negative_inputs_rejected():
    for build in (
        lambda: LogNum.from_int(-3),
        lambda: LogNum.from_float(-2.5),
        lambda: LogNum(-1, 0.0),
        lambda: LogNum(2, 0.0),
        lambda: LogNum.from_float(math.inf),
        lambda: LogNum.from_float(math.nan),
        lambda: LogNum.from_ln(math.nan),
    ):
        with pytest.raises(ValueError):
            build()


def test_arithmetic_matches_rational_oracle():
    rng = random.Random(0)
    for _ in range(300):
        x = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        got = from_fraction(x) * from_fraction(y)
        if x * y == 0:
            assert got.is_zero
        else:
            assert got.sign == 1
            assert got.to_float() == pytest.approx(float(x * y), rel=1e-12)


def test_pow_int():
    two = LogNum.from_int(2)
    assert two.pow_int(10).to_float() == pytest.approx(1024.0, rel=1e-12)
    assert two.pow_int(0).to_float() == 1.0
    assert LogNum.zero().pow_int(0).to_float() == 1.0
    assert LogNum.zero().pow_int(3).is_zero
    with pytest.raises(ValueError):
        two.pow_int(-1)


def test_ln_value_edges():
    assert LogNum.zero().ln_value() == -math.inf
    assert LogNum.one().ln_value() == 0.0
    assert LogNum.from_int(10**6).ln_value() == pytest.approx(6 * math.log(10), rel=1e-15)
