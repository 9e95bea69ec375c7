"""Outward-rounded interval arithmetic.

Every rigorous bound in this package is a supremum of a nonlinear expression
over a box of parameters, evaluated by replacing each real operation with its
interval extension.  The contract is containment soundness: for intervals
``a``, ``b`` and any x in a, y in b, ``op(x, y)`` lies inside ``op(a, b)`` as
an exact float comparison.

Rounding policy
---------------
Directed rounding is emulated by post-operation one-ulp nudging: after each
elementary operation the lower endpoint is moved one float down and the upper
one float up.  This is portable and strictly conservative; the envelopes
downstream tolerate the slack because they are upper bounds by construction.
Scalars step with ``math.nextafter``.  Arrays step with ``next_up`` /
``next_down``, which add +-1 to the int64 view of each float (the sign of the
pattern picks the direction, and -0.0 is first folded onto +0.0).  That is
bit-identical to ``np.nextafter`` toward +-inf, without a libm call per
element: +inf (-inf for ``next_down``) and every NaN pass through unchanged,
the largest finite float steps to infinity and the least subnormal to a
signed zero.

``exp`` is the one elementary function whose result is not correctly rounded.
Both interval routes -- ``Interval.exp`` here and the vectorized kernel in
``envelope`` -- call the single helper ``exp_outward``.  It evaluates
``np.exp`` (whichever SIMD loop numpy dispatches to on the running CPU; it is
the same loop for scalars and arrays) and widens each endpoint by two ulps.
That covers an ``np.exp`` error below one ulp on top of our own rounding step;
the bound is checked against a 200-bit mpmath reference in
``tests/test_interval.py``.

Only the operations the envelope formulas need are provided; this is not a
general-purpose interval library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INF = math.inf


class DivisionByZeroInterval(ZeroDivisionError):
    """Raised when dividing by an interval that contains zero."""


class DomainError(ValueError):
    """Raised when an operation's domain excludes the whole input interval."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def next_up(x):
    """The next float above each element of ``x``: ``np.nextafter(x, inf)``.

    Takes floats or arrays and returns numpy types (a numpy scalar for
    scalar or 0-d input).  The work is done on a 1-d view so that no numpy
    scalar arithmetic (which warns on int64 overflow) is involved.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    r = flat + 0.0  # folds -0.0 onto +0.0
    b = r.view(np.int64)
    b += (b >> 63) | 1  # away from zero when positive, toward it when negative
    # +inf would step to NaN and a NaN payload to another NaN, -inf or -0.0
    np.copyto(r, flat, where=~(flat < _INF))
    return r.reshape(x.shape)[()]


def next_down(x):
    """The next float below each element of ``x``: ``np.nextafter(x, -inf)``."""
    return -next_up(-np.asarray(x, dtype=float))


def exp_outward(lo, hi):
    """Outward-rounded enclosure (lo', hi') of exp over [lo, hi].

    ``lo`` and ``hi`` are floats or arrays of the same shape; the result has
    numpy types.  ``np.exp`` is assumed to err by less than one ulp, so two
    ulps of widening per endpoint keep it sound.  Arguments past the double
    overflow threshold saturate at +inf without a warning (still sound); the
    lower endpoint is clamped at 0.
    """
    with np.errstate(over="ignore"):
        elo, ehi = np.exp(lo), np.exp(hi)
    for _ in range(2):
        elo, ehi = next_down(elo), next_up(ehi)
    return np.maximum(elo, 0.0), ehi


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi] with lo <= hi.

    Endpoints are floats; ``hi`` may be +inf transiently (overflow of an
    intermediate) but ``lo`` is always finite for the expressions we build.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    # -- predicates --------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def _widened(self) -> "Interval":
        return Interval(_down(self.lo), _up(self.hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)._widened()

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)._widened()

    def __neg__(self) -> "Interval":
        # Negation of floats is exact: no widening.
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        ps = (self.lo * other.lo, self.lo * other.hi,
              self.hi * other.lo, self.hi * other.hi)
        return Interval(min(ps), max(ps))._widened()

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise DivisionByZeroInterval(
                f"divisor interval [{other.lo}, {other.hi}] contains 0")
        qs = (self.lo / other.lo, self.lo / other.hi,
              self.hi / other.lo, self.hi / other.hi)
        return Interval(min(qs), max(qs))._widened()

    def sqr(self) -> "Interval":
        """x^2 over the interval; tighter than self*self when 0 is inside."""
        a, b = abs(self.lo), abs(self.hi)
        m, M = min(a, b), max(a, b)
        hi = M * M  # plain multiply (pow() can differ by an ulp)
        lo = 0.0 if self.lo <= 0.0 <= self.hi else m * m
        return Interval(lo, _up(hi)) if lo == 0.0 else Interval(_down(lo), _up(hi))

    def sqrt(self) -> "Interval":
        """Square root; a lower endpoint that is negative rounding noise is
        clamped to 0.  Raises DomainError when the whole interval is negative.
        """
        if self.hi < 0.0:
            raise DomainError(f"sqrt of negative interval [{self.lo}, {self.hi}]")
        lo = 0.0 if self.lo <= 0.0 else max(0.0, _down(math.sqrt(self.lo)))
        return Interval(lo, _up(math.sqrt(self.hi)))

    def exp(self) -> "Interval":
        # The same np.exp as the vectorized kernel (see exp_outward), so both
        # routes give bit-identical endpoints.
        lo, hi = exp_outward(self.lo, self.hi)
        return Interval(float(lo), float(hi))

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def scale(self, c: float) -> "Interval":
        """Multiplication by a scalar constant."""
        return self * Interval.point(c)
