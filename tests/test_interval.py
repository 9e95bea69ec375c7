"""Soundness fuzzing for the scalar interval arithmetic."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deconv2d.interval import (
    DivisionByZeroInterval,
    DomainError,
    Interval,
    exp_outward,
    iv_arith,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def ivs(a, b):
    return Interval(min(a, b), max(a, b))


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return ivs(a, b)


def sample_in(rng, iv):
    if iv.lo == iv.hi:
        return iv.lo
    x = rng.uniform(iv.lo, iv.hi)
    return min(max(x, iv.lo), iv.hi)


def test_spec_examples():
    assert iv_arith("add", ivs(1, 2), ivs(3, 4)).contains(4)
    assert iv_arith("add", ivs(1, 2), ivs(3, 4)).contains(6)
    m = iv_arith("mul", ivs(-1, 2), ivs(3, 4))
    assert m.contains(-4) and m.contains(8)
    e = iv_arith("exp", Interval.point(0.0))
    assert e.lo <= 1.0 <= e.hi
    s = iv_arith("sqr", ivs(-3, 2))
    assert s.lo == 0.0 and s.contains(9.0)


def test_division_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        iv_arith("div", ivs(1, 2), ivs(-1, 1))


def test_sqrt_domain():
    with pytest.raises(DomainError):
        ivs(-4, -1).sqrt()
    # negative rounding noise is clamped, not fatal
    assert ivs(-1e-30, 4).sqrt().lo == 0.0


BIN_OPS = ["add", "sub", "mul", "div", "max", "min"]
UN_OPS = ["neg", "sqr", "sqrt", "exp", "abs"]

SCALAR = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "max": max,
    "min": min,
    "neg": lambda x: -x,
    "sqr": lambda x: x * x,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "abs": abs,
}


def test_fuzz_containment_soundness():
    """10^6 random (op, interval(s), point sample) containment checks."""
    rng = random.Random(20260823)
    trials = 0
    while trials < 10**6:
        op = rng.choice(BIN_OPS + UN_OPS)
        lo = rng.uniform(-50, 50)
        a = ivs(lo, lo + abs(rng.gauss(0, 5)))
        x = sample_in(rng, a)
        if op in UN_OPS:
            if op == "sqrt" and a.hi < 0:
                continue
            if op == "sqrt":
                a = ivs(abs(a.lo), abs(a.hi))
                x = sample_in(rng, a)
            res = iv_arith(op, a)
            val = SCALAR[op](x)
        else:
            lo2 = rng.uniform(-50, 50)
            b = ivs(lo2, lo2 + abs(rng.gauss(0, 5)))
            if op == "div" and b.lo <= 0 <= b.hi:
                continue
            y = sample_in(rng, b)
            res = iv_arith(op, a, b)
            val = SCALAR[op](x, y)
        assert res.lo <= val <= res.hi, (op, a, x, val, res)
        trials += 1


@given(intervals(), intervals())
@settings(max_examples=300)
def test_hypothesis_add_mul_endpoints(a, b):
    s = a + b
    assert s.lo <= a.lo + b.lo and a.hi + b.hi <= s.hi
    m = a * b
    for p in (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi):
        assert m.lo <= p <= m.hi


@given(intervals())
@settings(max_examples=300)
def test_hypothesis_exp_endpoint_ulp(a):
    """exp endpoints reach one ulp past libm's math.exp on both sides.

    math.exp is an exp independent of the np.exp that exp_outward uses; the
    two may differ by an ulp, and the endpoints still cover either.
    """
    e = a.exp()
    for x in (a.lo, a.hi):
        if x > 700.0:
            continue  # overflow regime: saturation checked elsewhere
        v = math.exp(x)
        assert e.lo <= max(math.nextafter(v, -math.inf), 0.0)
        assert math.nextafter(v, math.inf) <= e.hi or not math.isfinite(e.hi)


def test_exp_overflow_saturates_quietly():
    """Past the double overflow threshold np.exp returns inf and warns;
    exp_outward suppresses the warning and keeps the saturated bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = Interval(700.0, 800.0).exp()
    assert e.hi == math.inf
    assert math.isfinite(e.lo) and e.lo <= math.exp(700.0)
    assert type(e.lo) is float and type(e.hi) is float


def test_np_exp_error_below_one_ulp():
    """The np.exp inside exp_outward errs by less than one ulp.

    The two-ulp widening is sound only under that bound.  Points cover the
    envelope kernel's arguments [-250, 0], the coefficient arguments
    [0, 1.0125] and tiny arguments of both signs; the reference is mpmath
    at 200 bits, and each widened enclosure must contain it.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    n = 10_000
    xs = np.concatenate([
        rng.uniform(-250.0, 0.0, n),
        rng.uniform(0.0, 1.0125, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, -2.0, n),
    ])
    ys = np.exp(xs)
    los, his = exp_outward(xs, xs)
    worst = 0.0
    with mpmath.workprec(200):
        for x, y, lo, hi in zip(xs.tolist(), ys.tolist(), los.tolist(),
                                his.tolist()):
            exact = mpmath.exp(mpmath.mpf(x))
            worst = max(worst, float(abs(mpmath.mpf(y) - exact)) / math.ulp(y))
            assert lo <= exact <= hi, x
    assert worst < 1.0


def test_widening_never_shrinks():
    rng = random.Random(7)
    for _ in range(2000):
        a = ivs(rng.uniform(-9, 9), rng.uniform(-9, 9))
        b = ivs(rng.uniform(-9, 9), rng.uniform(-9, 9))
        s = a + b
        # strict outward direction:
        assert s.lo < a.lo + b.lo
        assert s.lo <= a.lo + b.lo <= a.hi + b.hi <= s.hi
        assert s.hi > a.hi + b.hi


def test_neg_is_exact_involution():
    a = ivs(-3.5, 1.25)
    assert -(-a) == a
