"""Nonnegative log-space reals.

Binomial counts C(n, m), normalized occurrence counts and their variances
overflow doubles long before the text lengths of interest, so every
quantity that can get that large is carried as a pair (sign, ln x).  The
quantities the projection method needs (E[Z] = C(n, m) p_w, sigma_1^2,
the level and residual bounds) are nonnegative products of binomials and
probabilities, so the type only multiplies, raises to integer powers and
reads the log.  A negative input is rejected rather than represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LogNum:
    """A nonnegative real stored as (sign, ln of the value).

    ``sign`` is 0 for zero and 1 otherwise.  For sign 0 the stored
    ``ln_abs`` is meaningless and normalized to 0.0.
    """

    sign: int
    ln_abs: float

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise ValueError(f"sign must be 0 or 1, got {self.sign}")
        if self.sign == 0 and self.ln_abs != 0.0:
            object.__setattr__(self, "ln_abs", 0.0)
        if self.sign != 0 and math.isnan(self.ln_abs):
            raise ValueError("ln_abs must not be NaN for a nonzero value")

    @classmethod
    def zero(cls) -> "LogNum":
        return cls(0, 0.0)

    @classmethod
    def one(cls) -> "LogNum":
        return cls(1, 0.0)

    @classmethod
    def from_float(cls, x: float) -> "LogNum":
        if math.isinf(x) or math.isnan(x) or x < 0.0:
            raise ValueError(f"cannot represent {x}")
        return cls.zero() if x == 0.0 else cls(1, math.log(x))

    @classmethod
    def from_int(cls, k: int) -> "LogNum":
        if k < 0:
            raise ValueError(f"cannot represent {k}")
        # math.log takes arbitrary-size ints without overflow
        return cls.zero() if k == 0 else cls(1, math.log(k))

    @classmethod
    def from_ln(cls, ln_abs: float) -> "LogNum":
        return cls(1, ln_abs)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Collapse to a double; overflows to +inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        try:
            return math.exp(self.ln_abs)
        except OverflowError:
            return math.inf

    def ln_value(self) -> float:
        """ln of the value; -inf for zero."""
        return -math.inf if self.sign == 0 else self.ln_abs

    def __mul__(self, other: "LogNum") -> "LogNum":
        if self.sign == 0 or other.sign == 0:
            return LogNum.zero()
        return LogNum(1, self.ln_abs + other.ln_abs)

    def pow_int(self, k: int) -> "LogNum":
        if k < 0:
            raise ValueError("negative powers not supported")
        return LogNum.one() if k == 0 else LogNum(self.sign, self.ln_abs * k)
