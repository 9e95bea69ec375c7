"""Outward-rounded interval arithmetic on arrays.

Every rigorous bound in this package is a supremum of a nonlinear expression
over a box of parameters, evaluated by replacing each real operation with its
interval extension.  An interval array is a pair ``(lo, hi)`` of float arrays
(or scalars) that broadcast against each other.  The contract is containment
soundness: for interval arrays ``a``, ``b`` and any x in a, y in b,
``op(x, y)`` lies inside ``op(a, b)`` elementwise, as an exact float
comparison.

Rounding policy
---------------
This module is the only one that rounds.  Directed rounding is emulated by
post-operation one-ulp nudging: after each elementary operation the lower
endpoint is moved one float down and the upper one float up.  This is
portable and strictly conservative; the envelopes downstream tolerate the
slack because they are upper bounds by construction.  The step is
``next_up`` / ``next_down``, which add +-1 to the int64 view of each float
(the sign of the pattern picks the direction, and -0.0 is first folded onto
+0.0).  That is bit-identical to ``np.nextafter`` toward +-inf, without a
libm call per element: +inf (-inf for ``next_down``) and every NaN pass
through unchanged, the largest finite float steps to infinity and the least
subnormal to a signed zero.  The interval ops step the fresh result of
their own operation in place (a fold, a shift, an or and an add per
element); the elements that pass through are set aside before the step and
put back after it, only when there are any.  ``next_up`` and ``next_down``
step a copy and never write into their argument; ``up`` is that step of a
fresh result, for a caller that forms an upper endpoint alone.  Negation,
``v_abs`` and halving are exact and are not widened.

``exp`` is the one elementary function whose result is not correctly rounded.
Every exp goes through ``exp_outward`` (or ``exp_up``, its upper endpoint
alone).  It evaluates ``np.exp`` (whichever
SIMD loop numpy dispatches to on the running CPU) and widens each endpoint by
two ulps.  ``np.exp`` returns floats >= +0.0, whose int64 views are ordered
like the floats, so the widening is one +-2 step on that view: clamped at
+0.0 below, saturating at +inf above, NaNs unchanged.  That has the bits of
two rounds of ``next_down`` / ``next_up`` and a clamp of the lower endpoint
at 0.  Two ulps cover an ``np.exp`` error below one ulp on top of our own
rounding step; the bound is checked against a 200-bit mpmath reference in
``tests/test_interval.py``, where a scalar interval class serves as the
containment oracle for these array operations.

Only the operations the envelope formulas need are provided; this is not a
general-purpose interval library.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf


def _step(b):
    """Move each float of the int64 view ``b`` one float away from zero when
    positive and toward it when negative, in place."""
    s = b >> 63
    s |= 1
    b += s


def next_up(x):
    """The next float above each element of ``x``: ``np.nextafter(x, inf)``.

    Takes floats or arrays and returns numpy types (a numpy scalar for
    scalar or 0-d input); ``x`` itself is never written.  The work is done
    on a 1-d copy so that no numpy scalar arithmetic (which warns on int64
    overflow) is involved.
    """
    x = np.asarray(x, dtype=float)
    return up(x.flatten()).reshape(x.shape)[()]


def next_down(x):
    """The next float below each element of ``x``: ``np.nextafter(x, -inf)``."""
    x = np.asarray(x, dtype=float)
    return _down(x.flatten()).reshape(x.shape)[()]


def up(r):
    """``next_up(r)`` for a result ``r`` that nothing else reads: an array
    is stepped in place.  It forms an op's upper endpoint alone."""
    if not (isinstance(r, np.ndarray) and r.ndim):
        return next_up(r)
    # +inf would step to NaN and a NaN payload to another NaN, -inf or -0.0
    finite = r < _INF
    kept = None if finite.all() else r[~finite]
    r += 0.0  # folds -0.0 onto +0.0
    _step(r.view(np.int64))
    if kept is not None:
        r[~finite] = kept
    return r


def _down(r):
    """``next_down(r)``, in place like ``up``: the step of ``up`` on -r,
    negated back."""
    if not (isinstance(r, np.ndarray) and r.ndim):
        return next_down(r)
    finite = r > -_INF
    kept = None if finite.all() else r[~finite]
    np.subtract(0.0, r, out=r)  # -r, with -0.0 and +0.0 both onto +0.0
    _step(r.view(np.int64))
    np.negative(r, out=r)
    if kept is not None:
        r[~finite] = kept
    return r


#: int64 view of +inf, the largest pattern of a float >= +0.0 that is no NaN
_INF_BITS = np.array(_INF).view(np.int64)[()]


def _widened_exp(x, ulps: int):
    """``np.exp(x)`` (each element >= +0.0 or NaN) moved ``ulps`` floats:
    clamped at +0.0 below, saturating at +inf above (without an overflow
    warning), NaNs unchanged.  On floats >= +0.0 the int64 view is monotone
    and one float is one unit, so this is ``abs(ulps)`` rounds of
    ``next_up`` or ``next_down`` followed by the clamp at 0, bit for bit."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        e = np.exp(x.reshape(-1))
    number = e <= _INF
    kept = None if number.all() else e[~number]
    b = e.view(np.int64)
    b += ulps
    if ulps < 0:
        np.maximum(b, 0, out=b)
    else:
        np.minimum(b, _INF_BITS, out=b)
    if kept is not None:
        e[~number] = kept
    return e.reshape(x.shape)[()]


def exp_outward(lo, hi):
    """Outward-rounded enclosure (lo', hi') of exp over [lo, hi].

    ``lo`` and ``hi`` are floats or arrays of the same shape; the result has
    numpy types.  ``np.exp`` is assumed to err by less than one ulp, so two
    ulps of widening per endpoint keep it sound.  Arguments past the double
    overflow threshold saturate at +inf without a warning (still sound); the
    lower endpoint is clamped at 0.
    """
    return _widened_exp(lo, -2), _widened_exp(hi, 2)


def exp_up(x):
    """``exp_outward(x, x)[1]``, the upper endpoint alone: one exp."""
    return _widened_exp(x, 2)


def v_add(a, b):
    return _down(a[0] + b[0]), up(a[1] + b[1])


def v_sub(a, b):
    return _down(a[0] - b[1]), up(a[1] - b[0])


def v_neg(a):
    return -a[1], -a[0]


def v_mul(a, b):
    p1, p2 = a[0] * b[0], a[0] * b[1]
    p3, p4 = a[1] * b[0], a[1] * b[1]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _down(lo), up(hi)


def v_mul_nonneg(a, e):
    """a * e for an interval e with 0 <= e[0]: two products per endpoint.

    Bit-identical to ``v_mul(a, e)`` for finite endpoints.  For x >= 0 the
    map y -> y x is non-decreasing, and rounding to nearest is monotone, so
    fl(a0 x) <= fl(a1 x) for x = e0 and x = e1.  The least of v_mul's four
    rounded products is therefore min(fl(a0 e0), fl(a0 e1)) and the greatest
    max(fl(a1 e0), fl(a1 e1)).  The values are equal; the float picked can
    differ only in the sign of a zero, which ``next_down``/``next_up`` fold
    onto +0.0 before stepping, so the endpoints have the same bits.  A
    factor with c[1] <= 0 is the negation of one with 0 <= -c[1]:
    ``v_neg(v_mul_nonneg(a, v_neg(c)))`` has the bits of ``v_mul(c, a)``,
    since fl(-p) = -fl(p) and next_down(-x) = -next_up(x).  By the same
    argument a scalar ``a`` of any sign picks one product per endpoint:
    fl(a0 e0) if a0 >= 0, else fl(a0 e1); fl(a1 e1) if a1 >= 0, else
    fl(a1 e0).
    """
    if np.ndim(a[0]):
        lo = np.minimum(a[0] * e[0], a[0] * e[1])
        hi = np.maximum(a[1] * e[0], a[1] * e[1])
    else:
        lo = a[0] * (e[0] if a[0] >= 0 else e[1])
        hi = a[1] * (e[1] if a[1] >= 0 else e[0])
    return _down(lo), up(hi)


def v_div(a, b):
    """a / b for a divisor interval b with 0 < b[0] <= b[1].

    Division is monotone in each argument, so each endpoint is one quotient
    picked by the sign of the dividend's endpoint.
    """
    lo = np.where(a[0] >= 0, a[0] / b[1], a[0] / b[0])
    hi = np.where(a[1] >= 0, a[1] / b[0], a[1] / b[1])
    return _down(lo), up(hi)


def v_abs(a):
    lo_abs = np.abs(a[0])
    hi_abs = np.abs(a[1])
    straddle = (a[0] <= 0) & (a[1] >= 0)
    return (np.where(straddle, 0.0, np.minimum(lo_abs, hi_abs)),
            np.maximum(lo_abs, hi_abs))


def v_sqr(a):
    """x^2; tighter than v_mul(a, a) when 0 is inside (lower endpoint 0)."""
    m, M = v_abs(a)
    return np.where(m > 0, _down(m * m), 0.0), up(M * M)


def v_sqrt(a):
    lo = np.sqrt(np.maximum(a[0], 0.0))
    hi = np.sqrt(np.maximum(a[1], 0.0))
    return np.maximum(_down(lo), 0.0), up(hi)


def v_exp_neg_half(n2):
    """exp(-n2/2) for a nonnegative interval array n2.

    Halving is exact; the exp is ``exp_outward``.
    """
    return exp_outward(-0.5 * n2[1], -0.5 * n2[0])
