"""Soundness fuzzing for a scalar interval class, which the envelope tests
use as the oracle for the array interval ops, and the array ulp step against
np.nextafter."""

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deconv2d import envelope, interval
from deconv2d.interval import (
    exp_outward,
    exp_up,
    next_down,
    next_up,
    v_mul,
    v_mul_nonneg,
    v_neg,
)


class DivisionByZeroInterval(ZeroDivisionError):
    """Raised when dividing by an interval that contains zero."""


class DomainError(ValueError):
    """Raised when an operation's domain excludes the whole input interval."""


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi] with lo <= hi, rounded outward one
    ulp per operation with math.nextafter.

    Endpoints are floats; ``hi`` may be +inf transiently (overflow of an
    intermediate) but ``lo`` is always finite for the expressions we build.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def _widened(self) -> "Interval":
        return Interval(_down(self.lo), _up(self.hi))

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
        # The same outward exp as the array ops, so both give the same bits.
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


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def ivs(a, b):
    return Interval(min(a, b), max(a, b))


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return ivs(a, b)


def imax(a, b):
    """Interval max: exact endpoint max, no widening needed."""
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def imin(a, b):
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


UNARY = {"neg": Interval.__neg__, "sqr": Interval.sqr, "sqrt": Interval.sqrt,
         "exp": Interval.exp, "abs": Interval.__abs__}
BINARY = {"add": Interval.__add__, "sub": Interval.__sub__,
          "mul": Interval.__mul__, "div": Interval.__truediv__,
          "max": imax, "min": imin}


def iv_arith(op, a, b=None):
    """Apply the interval operation named ``op`` (unary when ``b`` is None)."""
    return UNARY[op](a) if b is None else BINARY[op](a, b)


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


DBL_MAX = np.finfo(float).max
TINY = np.finfo(float).tiny  # least normal
EDGES = np.concatenate([
    np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
              DBL_MAX, -DBL_MAX, TINY, -TINY]),
    # NaN payloads that a bare +-1 on the int64 view turns into -0.0 / -inf
    np.array([0x7FFF_FFFF_FFFF_FFFF, -0x000F_FFFF_FFFF_FFFF], dtype=np.int64)
    .view(float),
])


def _nextafter(x, to):
    """The reference step; quiet about stepping to inf."""
    with np.errstate(over="ignore"):
        return np.nextafter(x, to)


def _same_bits(got, want):
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


def test_ulp_step_matches_nextafter_bitwise():
    """next_up / next_down equal np.nextafter toward +-inf bit for bit on
    10^6 random bit patterns (every class of float, NaN payloads included)
    and on the pinned edge cases."""
    rng = np.random.default_rng(20261018)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        10**6, dtype=np.int64, endpoint=True)
    x = np.concatenate([bits.view(float), EDGES])
    assert np.isnan(x).sum() > 100  # the random patterns reach NaN too
    # signalling NaNs raise the invalid flag in both routes
    with np.errstate(invalid="ignore"):
        want_up = _nextafter(x, math.inf)
        assert _same_bits(next_up(x), want_up)
        assert _same_bits(next_down(x), _nextafter(x, -math.inf))
        assert _same_bits(next_up(x.reshape(2, -1)), want_up.reshape(2, -1))


def test_ulp_step_edge_cases():
    with np.errstate(invalid="ignore"):
        up, down = next_up(EDGES), next_down(EDGES)
    assert up[0] == up[1] == 5e-324 and down[0] == down[1] == -5e-324
    assert up[2] == math.inf and down[3] == -math.inf
    assert down[2] == DBL_MAX and up[3] == -DBL_MAX
    assert up[5] == 0.0 and math.copysign(1.0, up[5]) == -1.0
    assert down[4] == 0.0 and math.copysign(1.0, down[4]) == 1.0
    assert up[6] == math.inf and down[7] == -math.inf
    assert down[8] == np.nextafter(TINY, 0.0) and up[9] == -down[8]
    assert np.all(np.isnan(up[10:])) and np.all(np.isnan(down[10:]))


def test_ulp_step_scalars():
    """Python floats and 0-d arrays give numpy scalars, with no overflow
    warning from the int64 step."""
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        for x in [1.0, -0.0, -1.5, math.inf, *EDGES.tolist()]:
            for arg in (x, np.array(x), np.float64(x)):
                for ours, to in ((next_up, math.inf), (next_down, -math.inf)):
                    got = ours(arg)
                    assert isinstance(got, np.float64) and np.ndim(got) == 0
                    assert _same_bits(np.array([got]),
                                      np.array([_nextafter(x, to)]))


def _with_zeros(rng, x):
    """``x`` with about a tenth of its elements set to +0.0 and a tenth to
    -0.0."""
    pick = rng.random(x.shape)
    return np.where(pick < 0.1, 0.0, np.where(pick < 0.2, -0.0, x))


def test_sign_aware_products_match_v_mul_bitwise():
    """v_mul_nonneg(a, e) for 0 <= e[0], and its negation for a factor
    c with c[1] <= 0, have the bits of v_mul, on random arrays with zeros
    of both signs and for the per-u-cell scalar factors of the envelope
    kernel; so does v_mul_nonneg(c, e) for a scalar c of either sign or
    straddling 0, whose signs pick the products."""
    rng = np.random.default_rng(20261019)
    n = 20000
    a_lo = _with_zeros(rng, rng.uniform(-4, 4, n)
                       * 10.0 ** rng.integers(-8, 8, n))
    a = (a_lo, _with_zeros(rng, a_lo + rng.uniform(0, 3, n)))
    a = (np.minimum(a[0], a[1]), np.maximum(a[0], a[1]))
    e_lo = _with_zeros(rng, rng.uniform(0, 2, n))
    e = (e_lo, e_lo + _with_zeros(rng, rng.uniform(0, 2, n)))
    neg = v_neg(e)  # c[1] <= 0, with -0.0 and +0.0 upper endpoints

    def same(got, want):
        return all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
                   for g, w in zip(got, want))

    assert same(v_mul_nonneg(a, e), v_mul(a, e))
    assert same(v_neg(v_mul_nonneg(a, v_neg(neg))), v_mul(neg, a))
    for i in range(0, n, 997):  # scalar factor times an array
        c = (e[0][i], e[1][i])
        assert same(v_mul_nonneg(a, c), v_mul(c, a)), i
        c = v_neg(c)
        assert same(v_neg(v_mul_nonneg(a, v_neg(c))), v_mul(c, a)), i
    signs = [0.0, -0.0, 1e-300, -1e-300, 2.5, -2.5]
    for lo in signs + [a_lo[i] for i in range(0, n, 1999)]:
        for hi in signs + [lo, lo + 1.5, -lo]:
            if lo <= hi:  # a scalar factor times an array e >= 0
                c = (np.float64(lo), np.float64(hi))
                assert same(v_mul_nonneg(c, e), v_mul(c, e)), c


def _exp_outward_two_rounds(lo, hi):
    """The oracle: np.exp, then two rounds of next_down / next_up and the
    clamp of the lower endpoint at 0."""
    with np.errstate(over="ignore"):
        elo, ehi = np.exp(lo), np.exp(hi)
    for _ in range(2):
        elo, ehi = next_down(elo), next_up(ehi)
    return np.maximum(elo, 0.0), ehi


def test_exp_outward_one_step_matches_two_rounds():
    """exp_outward widens by one +-2 step on the int64 view; its bits equal
    the two-round chain's on 10^6 random bit patterns, on the arguments
    whose exp overflows or ends in the subnormals or at zero (where the
    clamp and the saturation act), and on +-inf and NaN payloads."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        10**6, dtype=np.int64, endpoint=True)
    overflow = math.log(DBL_MAX)  # the largest argument with a finite exp
    underflow = math.log(5e-324)  # exp(x) rounds to zero below about this
    edges = [overflow, overflow - 1e-12, overflow + 1e-12, 710.0, 1e308,
             underflow, underflow - 0.5, underflow + 0.5, -745.2, -744.4,
             -708.4, -708.3, -1e308, math.log(2 * 5e-324),
             math.log(3 * 5e-324), 0.0, -0.0, 5e-324, -5e-324]
    near = np.concatenate([np.array(edges), rng.uniform(-746.0, -707.0, 10**4),
                           rng.uniform(708.0, 710.0, 10**4)])
    x = np.concatenate([bits.view(float), near, EDGES])
    assert np.isnan(x).sum() > 100
    with np.errstate(over="ignore"):
        e = np.exp(near)
    # the edges reach zero, every subnormal count from 1 to 3, and +inf
    assert e.min() == 0.0 and e.max() == math.inf
    assert {1, 2, 3} <= set(e.view(np.int64)[e < 1e-322].tolist())
    with np.errstate(invalid="ignore"):
        want = _exp_outward_two_rounds(x, x)
        got = exp_outward(x, x)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert exp_up(x).tobytes() == want[1].tobytes()
        for v in [*edges, math.inf, -math.inf, math.nan]:
            for g, w in zip(exp_outward(v, v), _exp_outward_two_rounds(v, v)):
                assert isinstance(g, np.float64)
                assert np.float64(g).tobytes() == np.float64(w).tobytes(), v


def test_steps_never_write_into_their_argument():
    """next_up, next_down, exp_outward and exp_up, and the interval ops
    built on the in-place ulp step, leave their arguments unchanged: arrays
    (with and without non-finite elements), 0-d arrays, scalars, the
    x- and y-interval tables of the t-grid (views of one edge array, shared
    by every chunk and every worker) and the |t| of a chunk's cells, also
    as the second factor of a scalar interval like a sample's."""
    cells = envelope._t_chunks(2, 3 * 40)[1]
    assert cells.tx is cells.ty
    arrays = [np.linspace(-3.0, 3.0, 7), EDGES.copy(),
              np.array(-0.0), np.array(2.5), cells.tx[0], cells.tx[1],
              cells.tn[0], cells.tn[1]]
    scalars = [1.5, -0.0, math.inf, np.float64(-2.0)]
    grid = [a.base if a.base is not None else a for a in arrays[4:]]
    before = [a.tobytes() for a in arrays + grid]
    with np.errstate(invalid="ignore"):
        for x in arrays + scalars:
            next_up(x)
            next_down(x)
            exp_outward(x, x)
            exp_up(x)
        scalar = (np.float64(-0.5), np.float64(0.25))
        for a in (cells.tx, cells.tn):
            for op in (interval.v_add, interval.v_sub, interval.v_mul,
                       interval.v_mul_nonneg):
                op(a, a)
                op(scalar, a)
            interval.v_div(a, (np.float64(0.5), np.float64(2.0)))
            interval.v_sqr(a)
            interval.v_sqrt(interval.v_abs(a))
            interval.v_exp_neg_half(interval.v_sqr(a))
    assert [a.tobytes() for a in arrays + grid] == before
