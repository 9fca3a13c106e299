"""Closed intervals with outward rounding (Moore, *Interval Analysis*, 1966).

An ``Enclosure`` holds closed intervals [lo, hi], one per array entry, or
one pair of floats.  Each operation computes its ends in float arithmetic
and then moves each end one float outward (``np.nextafter``).  Float +, -,
*, / and sqrt are correctly rounded and monotone, so a result encloses the
exact operation on every choice of reals from its operands, and also the
correctly rounded float operation on every choice of floats from them: an
interval computation that repeats a float computation's operations, in its
order, encloses that computation's result.  This holds through gradual
underflow; an end that overflows becomes infinite and encloses everything
beyond it.

Integer powers are products of the ends, so they enclose the exact power
and the correctly rounded square.  numpy's ``**`` of a float by an integer
other than 1, 2 and -1 goes through the C library's ``pow``, which is
assumed within one ulp of the exact power, so an enclosure of its result
needs that much allowance; the annulus proof in ``foliation`` allows 1e-12
times the sum of the terms' magnitudes.  cos and sin are enclosed by their
hull [-1, 1] (``TRIG_HULL``), which holds every value numpy's cos and sin
return at a finite argument, however the argument was rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TRIG_HULL", "Enclosure"]


@dataclass(frozen=True)
class Enclosure:
    """Closed intervals [lo, hi], one per array entry; a float operand is the
    interval holding only itself."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def of(x: "Enclosure | float") -> "Enclosure":
        return x if isinstance(x, Enclosure) else Enclosure(x, x)

    @staticmethod
    def _outward(lo, hi) -> "Enclosure":
        return Enclosure(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))

    def contains_zero(self) -> np.ndarray:
        return (self.lo <= 0.0) & (0.0 <= self.hi)

    def __add__(self, other):
        o = Enclosure.of(other)
        return Enclosure._outward(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, other):
        o = Enclosure.of(other)
        return Enclosure._outward(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return Enclosure.of(other) - self

    def __mul__(self, other):
        o = Enclosure.of(other)
        ends = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure._outward(np.minimum.reduce(ends), np.maximum.reduce(ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient's ends are quotients of ends where the divisor does
        not contain 0; where it does, the quotient is the whole line."""
        o = Enclosure.of(other)
        # the quotients by a divisor that contains 0 are replaced below, and
        # one that overflows is an infinite end
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ends = tuple(np.divide(a, b) for a in (self.lo, self.hi) for b in (o.lo, o.hi))
        whole = o.contains_zero()
        return Enclosure._outward(
            np.where(whole, -np.inf, np.minimum.reduce(ends)),
            np.where(whole, np.inf, np.maximum.reduce(ends)),
        )

    def __rtruediv__(self, other):
        return Enclosure.of(other) / self

    def __pow__(self, n: int) -> "Enclosure":
        """x ** n for an integer n, from repeated products of each end.

        An odd power is monotone, so its ends are the powers of the ends.  An
        even power of an interval that contains 0 starts at exactly 0, and
        otherwise runs between the powers of the end nearer 0 and the one
        farther from it.  A negative power is 1 over the positive one and
        raises ``ValueError`` where the interval contains 0 (a pole).
        """
        if n < 0:
            if np.any(self.contains_zero()):
                raise ValueError(f"negative power {n} of an interval that contains 0")
            return 1.0 / self ** (-n)
        if n == 0:
            one = np.ones_like(self.lo, dtype=float)
            return Enclosure(one, one)
        a, b = Enclosure.of(self.lo), Enclosure.of(self.hi)
        pa, pb = a, b
        for _ in range(n - 1):
            pa, pb = pa * a, pb * b
        if n % 2:
            return Enclosure(pa.lo, pb.hi)
        up = self.lo >= 0.0
        down = self.hi <= 0.0
        # never below 0, which also keeps an underflowing end from going negative
        lo = np.maximum(np.where(up, pa.lo, np.where(down, pb.lo, 0.0)), 0.0)
        hi = np.where(up, pb.hi, np.where(down, pa.hi, np.maximum(pa.hi, pb.hi)))
        return Enclosure(lo, hi)

    def sqrt(self) -> "Enclosure":
        # of a quantity known to be nonnegative, so a negative lower end means 0
        return Enclosure._outward(np.sqrt(np.maximum(self.lo, 0.0)), np.sqrt(self.hi))


TRIG_HULL = Enclosure(-1.0, 1.0)  # every value of cos or sin
