"""Radial step-function envelopes for bump/wave quantities.

An envelope is a piecewise-constant function of the radius r = |t - spike|
that upper-bounds a bump/wave quantity uniformly over

* the grid spacing zeta inside one of sixteen bands
  I_zeta(k1) = [0.1 + 0.8 (k1-1)/16, 0.1 + 0.8 k1/16],
* the spike-to-nearest-sample offset u (quantified over its admissible box),
* every evaluation point t in the quantifier set of the kind.

Twelve *monotone* kinds bound absolute values (the bump, the two waves, their
six first partials, and the three largest-absolute-eigenvalue sums); for
those, bin b bounds the supremum over all |t| >= r for r in the bin, so the
values are non-increasing.  Two *non-monotone* signed kinds -- the radial
directional derivative of the bump and the signed largest-eigenvalue sum of
the bump -- bound the supremum over the circle |t| = r only and may be (and
near the spike must be) negative; they carry no floor.

Construction: everything is evaluated with the outward-rounded (lo, hi)-array
ops of ``deconv2d.interval``.  One sweep covers the extended u-box
[-zeta/2, zeta/2]^2 of ``EXTENDED_U_KINDS``.  Its u-cells inside the normal
box [0, zeta/2]^2 (a quarter of them) evaluate every kind; the others only
the extended-box kinds.  The closed-form coefficient and sample expressions are
evaluated for all u-cells of the box in one batched pass.  Then the t-cells
that meet the disc r <= 10 (beyond it the tail bounds every kind) are swept
in row-major chunks of ``_CHUNK_CELLS`` cells, each chunk for every owner
u-cell (below) of a task in turn.
The grid is the product of its x- and y-intervals, so the differences s - t,
their squares and the products s t of the slope are formed once on the
tables of x- and y-intervals and gathered to the cells, and the interval |t|
of every cell is computed once with the grid.  Each cell still sees the same
float operations on the same operands, so the bits are those of a
cell-by-cell evaluation.  The eig_abs kinds, whose factors are >= 0, form
only upper endpoints, and skip E's lower end where no other kind reads it.
Each sample's products with its Gaussian (E, dx E, dy E, m E, g E) are
formed once and shared by every kind that reads them (so in the normal box
``wave1_eig`` reads the sample arrays and m E that ``bump_eig`` forms).  Each
kind keeps a running per-cell max of its coefficient sums over the task's
u-cells, which is max-reduced into radial bins once per chunk.  The owners are
split by a stride, the costlier normal-box pairs first, into a few tasks per
forked worker process, one worker per CPU this process may use; each task
evaluates the coefficients of the whole box and sweeps its share, a worker
takes the next task when it is done, and the parent merges the tasks' bins
by an elementwise max.  A max is exact and does not depend on order, so the
bits do not depend on the chunks or on the number of workers or tasks.

Let M swap x and y.  M preserves |t| and both u-boxes, maps the u-cell
(j, k) onto (k, j) and the samples s1, s2, s3 of offset u onto the samples
s1, s3, s2 of offset M u, with their norms.  It is used twice.

* Only ten kinds are evaluated; the four W2 kinds are the W1 kinds mirrored.
  The W2 of offset u and the W1 of offset M u carry the same coefficients on
  the same two Gaussians, moved by M: W2_u(M t) = W1_Mu(t), grad W2_u(M t) =
  M grad W1_Mu(t) (dx and dy exchange), and the per-Gaussian eigenvalue sum
  of the eig kinds is the same at M t and at t.  So the suprema of |wave2|,
  |wave2_dx|, |wave2_dy| and wave2_eig over a band, a u-box and the radii
  >= r are those of |wave1|, |wave1_dy|, |wave1_dx| and wave1_eig over the
  same sets: a sound W1 envelope bounds W2, whatever the float symmetry of
  the t-grid, and is returned under the W2 name as its own copy.
* Only the owner u-cells (j <= k) are swept; each mirror U' = (k, j) reads
  its owner U's sample arrays and shapes, bit for bit.  x and y read one
  interval table, so U''s arrays and shapes at t-cell (r, c) are U's at
  (c, r) with dx and dy exchanged (|s|, |s - t|^2, s . t and |t| only swap
  the operands of a commutative add), and np.hypot is symmetric, so a cell
  and its transpose are both kept and feed the same bins.  U''s values are
  binned where they are formed; U' keeps its own coefficients and sums its
  terms in its own sample order.  A term, coefficient times shape, depends
  only on the expr, the shape and the coefficient's bits, so U' reads U's
  term wherever its coefficient has the bits of U's on the same sample: B's
  c2 and c3 exchange, and W1's -inv eu is symmetric in j and k.  U' forms
  anew only W1's inv e3 s3 and, where its c1 rounds otherwise, B's c1 s1.

Beyond r = 10 everything is controlled by closed-form tail bounds
(g(r) = 6 r^2 exp(-r^2/2 + sqrt(2) zeta r), waves carry an extra 1/zeta), so
envelopes only store bins on [0, 10] plus a single tail value.
"""

from __future__ import annotations

import functools
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .interval import (
    exp_outward,
    exp_up,
    next_down,
    next_up,
    up,
    v_abs,
    v_add,
    v_div,
    v_exp_neg_half,
    v_mul,
    v_mul_nonneg,
    v_neg,
    v_sqr,
    v_sqrt,
    v_sub,
)

FLOOR = 2e-9
#: cap on t-cells x u-cells per build.  The published resolution
#: (tres = ures = 40) needs 500 * 40**4 = 1.28e9 cells; 46 and above are
#: refused.
MAX_CELLS = 2 * 10**9
#: t-cells per kernel pass; the desk grid's 31 812 cells inside the disc are
#: one pass.  Fewer, larger passes save numpy's per-call overhead until the
#: working arrays, ten running maxima among them, outgrow the cache.  Median
#: of 5 two-worker band-1 builds (ures = 10) on a 2-vCPU Xeon with 2 MB of
#: L2 per core, at 8 192 / 16 384 / 24 000 / 40 000 / 80 000 cells: 0.47 /
#: 0.37 / 0.36 / 0.35 / 0.35 s at tres = 10, 1.51 / 1.21 / 1.11 / 1.21 /
#: 1.20 s at tres = 20 (runs spread 0.90-1.28 s at 24 000 and 1.07-1.27 s
#: at 40 000) and 5.97 / 4.51 / 4.26 / 3.83 / 4.26 s at tres = 40.
_CHUNK_CELLS = 40000

#: all fourteen envelope kinds; (base, expr, monotone)
KIND_INFO = {
    "bump":          ("B", "val", True),
    "bump_dx":       ("B", "dx", True),
    "bump_dy":       ("B", "dy", True),
    "wave1":         ("W1", "val", True),
    "wave1_dx":      ("W1", "dx", True),
    "wave1_dy":      ("W1", "dy", True),
    "wave2":         ("W2", "val", True),
    "wave2_dx":      ("W2", "dx", True),
    "wave2_dy":      ("W2", "dy", True),
    "bump_eig":      ("B", "eig_abs", True),
    "wave1_eig":     ("W1", "eig_abs", True),
    "wave2_eig":     ("W2", "eig_abs", True),
    "bump_slope":    ("B", "slope", False),
    "bump_eig_max":  ("B", "eig_max", False),
}
ALL_KINDS = tuple(KIND_INFO)
#: kinds whose u-quantifier is the full [-zeta/2, zeta/2]^2 box
EXTENDED_U_KINDS = ("wave1_eig", "wave2_eig")
#: W2 kind -> the W1 kind it equals under the x <-> y mirror (see Construction)
_MIRRORED = {"wave2": "wave1", "wave2_dx": "wave1_dy", "wave2_dy": "wave1_dx",
             "wave2_eig": "wave1_eig"}
#: expr -> the expr it becomes under the x <-> y mirror
_SWAP = {"dx": "dy", "dy": "dx"}


class OutOfValidatedRange(ValueError):
    """Parameter outside the range the tail bounds are validated for."""


class ResourceBudgetExceeded(RuntimeError):
    """Cell count beyond ``MAX_CELLS``."""


class FormatError(ValueError):
    """Malformed envelope cache file."""


def zeta_band(k1: int) -> tuple[float, float]:
    """The k1-th grid-spacing band, k1 = 1..16."""
    if not 1 <= k1 <= 16:
        raise ValueError(f"k1 must be 1..16, got {k1}")
    return 0.1 + 0.8 * (k1 - 1) / 16, 0.1 + 0.8 * k1 / 16


@dataclass(frozen=True)
class EnvelopeGridSpec:
    """Resolution profile for one envelope build.

    ``tres``/``ures`` are bins per unit length / per zeta; the published
    resolution is 40, the default desk profile is 10.
    """

    k1: int
    tres: int = 10
    ures: int = 10

    def __post_init__(self):
        zeta_band(self.k1)  # validates k1
        if self.tres < 1 or self.ures < 1:
            raise ValueError("resolutions must be >= 1")
        if self.ures % 2:
            raise ValueError("ures must be even (u box is [0, zeta/2])")


@dataclass
class StepEnvelope:
    """A computed envelope: bins on [0, 10] plus a tail value for r > 10.
    Read it through an ``EnvelopeSet``."""

    kind: str
    monotone: bool
    breakpoints: np.ndarray  # m+1 edges, 0 = r_0 < ... < r_m = 10
    values: np.ndarray       # m per-bin upper bounds
    tail: float
    k1: int
    tres: int
    ures: int


class EnvelopeSet:
    """The envelopes of one band, read through their shared breakpoints.

    ``bins(r)`` is computed once per distance array and serves every kind:
    ``tables[kind]`` holds the kind's m bin values with its tail as bin m,
    so a combination of kinds can be formed on the (m + 1)-long tables and
    then gathered at the bins in one indexing step.
    """

    def __init__(self, envelopes: dict):
        if not envelopes:
            raise ValueError("an envelope set needs at least one envelope")
        first = next(iter(envelopes.values()))
        key = (first.k1, first.tres, first.ures)
        for env in envelopes.values():
            if ((env.k1, env.tres, env.ures) != key
                    or not np.array_equal(env.breakpoints, first.breakpoints)):
                raise ValueError(
                    f"envelope {env.kind!r} does not share the breakpoints, "
                    f"k1, tres and ures of {first.kind!r}")
        self.k1, self.tres, self.ures = key
        self.breakpoints = first.breakpoints
        self.tables = {kind: np.append(env.values, env.tail)
                       for kind, env in envelopes.items()}

    def bins(self, r) -> np.ndarray:
        """Bin of each radius over the m + 1 edges ``breakpoints``: i for r
        in (r_i, r_i+1] (bin 0 also takes r <= r_0), and m, the tail, for
        r > r_m.  That is the count of edges r_1, ..., r_m below r, one
        search that allocates only the result."""
        return np.searchsorted(self.breakpoints[1:], r, side="left")

    def sums(self, stack: np.ndarray, r) -> np.ndarray:
        """Each row of ``stack``, (rows, m + 1) tables formed from
        ``tables``, read at the bins of ``r`` and summed over the last axis
        of ``r``.  np.take(axis=1) gathers each row contiguously (x[:, bins]
        does not), so the last-axis sum adds each row in the pairwise order
        of its 1-D sum: the bits of one sum do not depend on how many others
        are formed with it."""
        return np.sum(np.take(stack, self.bins(r), axis=1), axis=-1)


# ---------------------------------------------------------------------------
# t-cell grid (shared by all kinds and u-cells at one resolution)

@dataclass(frozen=True)
class _TCells:
    """A run of t-cells and the bins each cell feeds.

    ``tx`` and ``ty`` are the tables of the grid's x- and y-intervals, and
    cell i is the rectangle ``tx[row[i]]`` x ``ty[col[i]]``: interval work on
    one coordinate is done on a table and gathered to the cells by
    ``_pick``.  ``tn`` is the interval |t| of every cell.  ``bmax_idx`` and
    ``span_bins`` index the cells in their order.
    """

    tx: tuple
    ty: tuple
    row: np.ndarray
    col: np.ndarray
    tn: tuple
    bmax_idx: np.ndarray
    #: non-monotone kinds: (cells whose span reaches offset o, their bin
    #: at offset o) for o = 0, 1, ...
    span_bins: tuple


@functools.cache
def _t_chunks(tres: int, size: int) -> tuple[_TCells, ...]:
    """The t-cells of the grid at ``tres`` cells per unit on [-10, 10]^2
    that meet the disc r <= 10 (rmin <= 10: a non-empty span of signed bins),
    in row-major order, cut into runs of ``size`` cells.  The others, about
    20.5 % at every tres, would feed only the last monotone bin: beyond
    r = 10 the tail bounds every kind, and ``_tail_value`` <= ``FLOOR``."""
    n = 20 * tres
    edges = -10.0 + np.arange(n + 1) / tres
    lo, hi = edges[:-1], edges[1:]
    # outer/inner |coordinate| of each interval; cell (i, j) is x-interval i
    # and y-interval j
    far = np.maximum(np.abs(lo), np.abs(hi))
    near = np.where((lo <= 0) & (hi >= 0), 0.0,
                    np.minimum(np.abs(lo), np.abs(hi)))
    # outer/inner radius of each cell
    rmax = next_up(np.hypot(far[:, None], far[None, :])).ravel()
    rmin = np.maximum(next_down(np.hypot(near[:, None], near[None, :])),
                      0.0).ravel()
    # monotone kinds: cell feeds bins 1..floor(rmax/delta)+1
    bmax_idx = np.minimum(np.floor(rmax * tres).astype(int), 10 * tres - 1)
    # non-monotone kinds: bins whose annulus meets [rmin, rmax], from
    # blo_idx to bmax_idx; empty (negative) for cells beyond radius 10
    blo_idx = np.maximum(np.ceil(rmin * tres - 1e-9).astype(int) - 1, 0)
    keep = np.flatnonzero(blo_idx <= bmax_idx)
    t = (lo, hi)
    tsq = v_sqr(t)
    out = []
    for start in range(0, len(keep), size):
        cell = keep[start:start + size]
        row, col = np.divmod(cell, n)
        blo, bmax = blo_idx[cell], bmax_idx[cell]
        span = bmax - blo
        reach = [span >= off for off in range(int(np.max(span)) + 1)]
        span_bins = tuple((mask, blo[mask] + off)
                          for off, mask in enumerate(reach))
        tn = v_sqrt(v_add(_pick(tsq, row), _pick(tsq, col)))
        out.append(_TCells(tx=t, ty=t, row=row, col=col, tn=tn,
                           bmax_idx=bmax, span_bins=span_bins))
    return tuple(out)


# ---------------------------------------------------------------------------
# coefficient intervals, batched over u-cells

def _u_cells(zlo: float, zhi: float, j, k, ures: int):
    """Coefficient intervals and sample rectangles of the u-cells (j, k):
    u in [zeta (j-1)/ures, zeta j/ures] x [same with k].

    ``j`` and ``k`` are integer arrays; every interval array returned has
    their shape.  Spike at the origin; samples s1 = -u, s2 = (zeta - u1, -u2),
    s3 = (-u1, zeta - u2).  Coefficients use the closed forms with the
    cross-product sum replaced by zeta^2 exactly (valid for this
    orientation).  The W1 coefficient of s3 vanishes identically and is None;
    the W2 coefficients are not needed (see the module docstring).
    """
    Z = (zlo, zhi)
    one = (1.0, 1.0)
    # u = (f1, f2) * zeta: every u/zeta ratio is the bare fraction, which
    # keeps the repeated zeta occurrences correlated.  Naive division here
    # widens the coefficients enough to flip the sign of the eigenvalue
    # bound near the spike for the narrow low-zeta bands.
    f1 = (next_down((j - 1) / ures), next_up(j / ures))
    f2 = (next_down((k - 1) / ures), next_up(k / ures))
    g2, g3 = v_sub(one, f1), v_sub(one, f2)
    zsq = v_sqr(Z)
    sq1, sq2, sqg2, sqg3 = v_sqr(f1), v_sqr(f2), v_sqr(g2), v_sqr(g3)

    def gauss(a2, b2):
        # exp((a^2 + b^2) zeta^2 / 2); the halving is a rounded multiply
        return exp_outward(*v_mul(v_mul(v_add(a2, b2), zsq), (0.5, 0.5)))

    eu, e2, e3 = gauss(sq1, sq2), gauss(sqg2, sq2), gauss(sq1, sqg3)
    inv = v_div(one, Z)
    coeffs = {
        "B": (v_mul(v_sub(g2, f2), eu), v_mul(f1, e2), v_mul(f2, e3)),
        "W1": (v_neg(v_mul(inv, eu)), v_mul(inv, e2), None),
    }
    ux, uy = v_neg(v_mul(f1, Z)), v_neg(v_mul(f2, Z))
    samples = ((ux, uy), (v_mul(g2, Z), uy), (ux, v_mul(g3, Z)))
    return coeffs, samples


def _pick(iv, idx):
    """Element(s) ``idx`` of an interval array (None stays None): one
    u-cell's scalar interval, or a table gathered to t-cells."""
    return None if iv is None else (np.take(iv[0], idx), np.take(iv[1], idx))


# ---------------------------------------------------------------------------
# per-cell kind evaluation

def _sample_arrays(sample, cells, lower):
    """dx and dy = s - t of one sample s on the x- and y-interval tables of
    the t-cells ``cells``, and on the cells n2 = |s - t|^2 and
    E = exp(-n2/2); without ``lower``, E is (None, its upper endpoint)."""
    sx, sy = sample
    dx, dy = v_sub(sx, cells.tx), v_sub(sy, cells.ty)
    n2 = v_add(_pick(v_sqr(dx), cells.row), _pick(v_sqr(dy), cells.col))
    E = v_exp_neg_half(n2) if lower else (None, exp_up(-0.5 * n2[0]))
    return dx, dy, n2, E


def _shape(expr, sample, snorm, arrays, cells):
    """E times the factor that ``expr`` reads: 1, dx, dy, m = n2 - 1
    (clamped at 1 for eig_abs) or the radial slope g.  ``snorm`` bounds
    |s| above.  For eig_abs, whose factors are >= 0, the upper endpoint
    alone is formed and returned, as one array."""
    dx, dy, n2, E = arrays
    if expr == "val":
        return E
    if expr == "eig_abs":
        m = up(n2[1] - 1.0)
        np.maximum(m, 1.0, out=m)
        m *= E[1]
        return up(m)
    if expr == "dx":
        factor = _pick(dx, cells.row)
    elif expr == "dy":
        factor = _pick(dy, cells.col)
    elif expr == "eig_max":
        factor = v_sub(n2, (1.0, 1.0))
    elif expr == "slope":
        # (s . t)/|t| - |t|, with a robust fallback when the t-cell
        # touches the origin (the ratio is then only bounded by |s|)
        sx, sy = sample
        tn = cells.tn
        dot = v_add(_pick(v_mul(sx, cells.tx), cells.row),
                    _pick(v_mul(sy, cells.ty), cells.col))
        safe = tn[0] > 0.0
        ratio = v_div(dot, (np.where(safe, tn[0], 1.0), tn[1]))
        ratio = (np.where(safe, ratio[0], -snorm),
                 np.where(safe, ratio[1], snorm))
        factor = v_sub(ratio, tn)
    else:
        raise ValueError(expr)
    return v_mul_nonneg(factor, E)


def _term(expr, c, shape):
    """One sample's term of a kind: the coefficient ``c``, one u-cell's
    scalar interval (|c| for eig_abs), times the sample's shape of
    ``expr``.  A new array or pair of arrays, read by every sum that needs
    it and written by none."""
    if expr == "eig_abs":
        return up(shape * c[1])
    # a known sign halves the products, and for a shape E >= 0 c's signs
    # pick them
    if expr == "val":
        return v_mul_nonneg(c, shape)
    if c[0] >= 0:
        return v_mul_nonneg(shape, c)
    if c[1] <= 0:
        return v_neg(v_mul_nonneg(shape, v_neg(c)))
    return v_mul(c, shape)


def _kind_values(expr, coeffs, shapes, formed=None) -> np.ndarray:
    """Per-t-cell envelope contribution of one kind: the sum of coefficient
    times shape over the samples with a nonzero coefficient, in their
    order.  For eig_abs every shape and coefficient (|c|) is >= 0, so
    max(|lo|, |hi|) of the sum is its upper endpoint, and only upper
    endpoints are formed.

    A term depends on nothing but expr, its shape and its coefficient's
    bits.  ``formed``, where given, holds terms of this expr by the shape's
    identity and the coefficient's bits, so it must not outlive the shapes:
    a term found there is read, and one formed here is stored there
    read-only, so the kinds that read one list of shapes (an owner u-cell's
    and its mirror's) form each common term once.  Without it every term is
    formed here.  Every kind has two or more terms; the sum starts in the
    new array of its first add and writes no term.
    """
    terms = []
    for c, shape in zip(coeffs, shapes):
        if c is None:
            continue
        if formed is None:
            terms.append(_term(expr, c, shape))
            continue
        key = (id(shape), np.array(c).tobytes())
        if key not in formed:
            term = formed[key] = _term(expr, c, shape)
            for a in (term,) if expr == "eig_abs" else term:
                a.setflags(write=False)
        terms.append(formed[key])
    if expr == "eig_abs":
        f = up(terms[0] + terms[1])
        for term in terms[2:]:
            f = up(np.add(f, term, out=f))
        return f
    f = v_add(terms[0], terms[1])
    for term in terms[2:]:
        f = v_add(f, term)
    if expr in ("slope", "eig_max"):
        return f[1]  # signed upper bound
    lo, hi = f  # the sum's own arrays, so |f| is formed in them
    return np.maximum(np.abs(lo, out=lo), np.abs(hi, out=hi), out=lo)


# ---------------------------------------------------------------------------
# tails

def tail_g(r: float, zeta: float) -> float:
    """6 r^2 exp(-r^2/2 + sqrt(2) zeta r): bounds the bump and all its first
    and second partials for r >= 10, zeta <= 1."""
    return 6.0 * r * r * math.exp(-r * r / 2 + math.sqrt(2.0) * zeta * r)


def _tail_value(kind: str, zlo: float, zhi: float) -> float:
    g = tail_g(10.0, zhi) * (1 + 1e-12)
    base, expr, _ = KIND_INFO[kind]
    if expr in ("eig_abs", "eig_max", "slope"):
        g *= 2.0  # Frobenius / gradient-norm coarsening
    if base in ("W1", "W2"):
        g /= zlo
    return g


#: uniform layer-9+ tail constants (spikes at hexagonal layer distances) for
#: values and first/second partials of the bump and of the waves.  On every
#: band they bound ``tail_chain_sum(zeta_hi)`` and, for the waves,
#: ``tail_chain_sum(zeta_hi) / zeta_lo``.
EPS_B = 2e-12
EPS_W = 2e-10


def tail_chain_sum(zeta: float) -> float:
    """Direct summation of the layer bound chain over layers 9..30: 6l
    spikes in layer l, each at distance >= 3l/2 - 3 (the Delta = 2 case),
    bounded by tail_g."""
    return sum(6 * l * tail_g(1.5 * l - 3.0, zeta) for l in range(9, 31))


# ---------------------------------------------------------------------------
# build

def _workers() -> int:
    """Worker processes per envelope build: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


#: tasks per worker in each pass of a split build.  With one task per worker
#: the build waits for the slowest CPU to finish its fixed share; with
#: several, a worker that falls behind (its CPU shared with another process,
#: or not scheduled by a busy host) takes fewer tasks.  Each task evaluates
#: the coefficients of its whole u-box, which costs about 0.5 ms.  A task is
#: a strided run of owner u-cells (each swept with its mirror), not one
#: owner: when a task returns, its temporaries are freed and glibc trims the
#: heap, so the next task faults its working arrays back in page by page.
#: Over 12 two-worker desk builds of bands 1 and 13, the workers take about
#: 34 000 minor faults per build at 4 tasks per worker, 25 000 at 1.
#: The task count is capped at the owner count, ures (ures + 1) / 2 (3 at
#: ures 2), so that no task is empty.
_TASKS_PER_WORKER = 4


#: ``prctl`` option of <linux/prctl.h>: the signal a process gets when the
#: thread that forked it exits
_PR_SET_PDEATHSIG = 1


def _end_with_parent(parent: int) -> None:
    """Worker initializer: SIGKILL this worker when the thread that forked
    it exits.  A build killed by a signal that runs no cleanup (SIGKILL, or
    SIGTERM's default action) would otherwise leave its idle workers
    waiting on the pool's queue for ever."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")
    if os.getppid() != parent:  # the parent was gone before the prctl
        os._exit(1)


def _accumulate(spec: EnvelopeGridSpec, part: int, parts: int) -> dict:
    """Bins of the ten built kinds over the owner u-cells (j <= k) of the
    extended u-box whose place in the sweep order is ``part`` modulo
    ``parts``, and over their mirrors (k, j).

    A mirror U' reads its owner U's shapes (see the module docstring): U''s
    sample i is U's sample (0, 2, 1)[i], and U''s kinds of an expr read U's
    shapes of the swapped expr, and U's terms where the sample and the
    coefficient's bits match.  One expr's shapes and terms are alive at a
    time.

    The sweep is chunk by chunk, each chunk for every owner of the task in
    turn.  Each kind keeps one running per-cell max of its values over the
    task's u-cells, and that max alone is binned, once per chunk, through
    ``bmax_idx`` or ``span_bins``; a max is exact and order-free, so the
    bins have the bits of binning each u-cell's values.

    The sweep order puts the costlier owners first: the pairs of the normal
    u-box (j, k >= 1), where every kind is evaluated, then its diagonal,
    then the extended box, where only the extended-box kinds are.  The
    coefficients are evaluated for all u-cells of the box, so each u-cell's
    bits do not depend on the split; only the sweep is strided.
    """
    half = spec.ures // 2
    zlo, zhi = zeta_band(spec.k1)
    m = 10 * spec.tres
    chunks = _t_chunks(spec.tres, _CHUNK_CELLS)
    built = [kind for kind in ALL_KINDS if kind not in _MIRRORED]
    bins = {kind: np.zeros(m) if KIND_INFO[kind][2] else np.full(m, -np.inf)
            for kind in built}
    j, k = (g.ravel() for g in np.mgrid[1 - half:half + 1, 1 - half:half + 1])
    coeffs, samples = _u_cells(zlo, zhi, j, k, spec.ures)
    snorms = [v_sqrt(v_add(v_sqr(sx), v_sqr(sy)))[1] for sx, sy in samples]
    kind_coeffs = {}
    for kind in built:
        base, expr, _ = KIND_INFO[kind]
        kind_coeffs[kind] = tuple(
            v_abs(c) if expr == "eig_abs" and c is not None else c
            for c in coeffs[base])

    def plan(kinds):
        """(expr -> kinds, the samples those kinds read, whether they
        read the lower endpoint of E)"""
        groups = {}
        for kind in kinds:
            groups.setdefault(KIND_INFO[kind][1], []).append(kind)
        used = [i for i in range(3)
                if any(kind_coeffs[kind][i] is not None for kind in kinds)]
        return groups, used, set(groups) != {"eig_abs"}

    normal = (j >= 1) & (k >= 1)
    plans = {True: plan(built),
             False: plan([kind for kind in built if kind in EXTENDED_U_KINDS])}
    # the index of (k, j) in the square u-box, for each u-cell (j, k)
    mirror = np.arange(j.size).reshape(spec.ures, -1).T.ravel()
    owners = np.flatnonzero(j <= k)
    order = owners[np.lexsort((j[owners] == k[owners], ~normal[owners]))]
    sweeps = []  # what each owner of the task reads in every chunk
    for u in order[part::parts]:
        groups, used, lower = plans[bool(normal[u])]
        # (u-cell, its samples in the owner's order, expr map) per u-cell
        swept = [(u, (0, 1, 2), {})]
        if mirror[u] != u:
            swept.append((mirror[u], (0, 2, 1), _SWAP))
        cell_coeffs = {(v, kind): [_pick(c, v) for c in kind_coeffs[kind]]
                       for v, _, _ in swept
                       for group in groups.values() for kind in group}
        sweeps.append((u, groups, swept, cell_coeffs,
                       [(_pick(sx, u), _pick(sy, u)) for sx, sy in samples],
                       {perm[i] for _, perm, _ in swept for i in used}, lower))
    for cells in chunks:
        # each kind's running max over the task's u-cells, cell by cell
        top = {}
        for u, groups, swept, cell_coeffs, cell_samples, need, lower in sweeps:
            arrays = {i: _sample_arrays(cell_samples[i], cells, lower)
                      for i in need}
            for expr in groups:
                # one shape per sample, shared by every kind of both u-cells
                shapes = [_shape(expr, cell_samples[i], snorms[i][u],
                                 arrays[i], cells) if i in arrays else None
                          for i in range(3)]
                formed = {}  # and one term per shape and coefficient
                for v, perm, swap in swept:
                    own = [shapes[i] for i in perm]
                    for kind in groups[swap.get(expr, expr)]:
                        vals = _kind_values(expr, cell_coeffs[v, kind], own,
                                            formed)
                        if kind in top:
                            np.maximum(top[kind], vals, out=top[kind])
                        else:
                            top[kind] = vals
        for kind, vals in top.items():
            if KIND_INFO[kind][2]:
                np.maximum.at(bins[kind], cells.bmax_idx, vals)
            else:
                for mask, idx in cells.span_bins:
                    np.maximum.at(bins[kind], idx, vals[mask])
    return bins


def build_envelopes(spec: EnvelopeGridSpec) -> dict:
    """Build all fourteen envelopes of one zeta band at once, sharing the
    per-u-cell Gaussian interval arrays; the W2 kinds are mirrored W1 ones,
    and each mirror u-cell reads its owner's arrays.

    The owner u-cells of the extended u-box are split into at most
    ``_TASKS_PER_WORKER`` tasks per worker, run on ``_workers()`` forked
    processes, and the tasks' bins are merged by an exact elementwise max.
    """
    half = spec.ures // 2
    n_cells = (20 * spec.tres) ** 2 * (half * half + spec.ures * spec.ures)
    if n_cells > MAX_CELLS:
        raise ResourceBudgetExceeded(f"{n_cells} cells > cap {MAX_CELLS}")
    # built before forking, so that every worker inherits the cached grid
    _t_chunks(spec.tres, _CHUNK_CELLS)
    zlo, zhi = zeta_band(spec.k1)
    m = 10 * spec.tres

    workers = _workers()
    if workers == 1:
        results = [_accumulate(spec, 0, 1)]
    else:
        # the owner u-cells (j <= k) of the extended u-box
        owners = spec.ures * (spec.ures + 1) // 2
        parts = min(owners, _TASKS_PER_WORKER * workers)
        # imported here, not with the package: they add about 15 ms to
        # every import of it, including those that never build
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker starts in milliseconds with the grid already built,
        # where a spawned one would re-import numpy and rebuild it; the pool
        # forks all its workers before it starts its own manager thread
        with ProcessPoolExecutor(
                max_workers=min(workers, parts),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_end_with_parent,
                initargs=(os.getpid(),)) as pool:
            futures = [pool.submit(_accumulate, spec, part, parts)
                       for part in range(parts)]
            try:
                results = [f.result() for f in futures]
            finally:
                # after a failure, drop the tasks no worker has started
                pool.shutdown(cancel_futures=True)
    # a max is exact and commutative: the bits do not depend on the split
    bins = {}
    for result in results:
        for kind, v in result.items():
            bins[kind] = np.maximum(bins.get(kind, v), v)

    edges = np.arange(m + 1) / spec.tres
    out = {}
    for kind in ALL_KINDS:
        _, _, mono = KIND_INFO[kind]
        # a W2 kind is reduced from its W1 kind's bins into its own array
        v = bins[_MIRRORED.get(kind, kind)]
        if mono:
            v = np.maximum.accumulate(v[::-1])[::-1]
            v = np.maximum(v, FLOOR)
        elif not np.all(np.isfinite(v)):
            # the certifier would read a -inf bin as an upper bound
            raise RuntimeError(f"{kind}: no t-cell reaches bins "
                               f"{np.flatnonzero(~np.isfinite(v)).tolist()}")
        out[kind] = StepEnvelope(kind=kind, monotone=mono, breakpoints=edges,
                                 values=v, tail=_tail_value(kind, zlo, zhi),
                                 k1=spec.k1, tres=spec.tres, ures=spec.ures)
    return out


# ---------------------------------------------------------------------------
# cache IO

CACHE_VERSION = 2


def _cache_path(dirpath: str, k1: int) -> str:
    return os.path.join(dirpath, f"k{k1:02d}.npz")


def save_envelope_set(dirpath: str, envs: dict) -> str:
    """Write one band's envelopes to ``dirpath/k{k1:02d}.npz`` and return
    the path.  The file holds ``version``, ``k1``, ``tres``, ``ures``, the
    shared ``breakpoints`` and each kind's ``<kind>.values`` and
    ``<kind>.tail``; monotonicity is a property of the kind (``KIND_INFO``)
    and is not stored."""
    table = EnvelopeSet(envs)  # refuses envelopes that share no breakpoints
    arrays = {"version": CACHE_VERSION, "k1": table.k1, "tres": table.tres,
              "ures": table.ures, "breakpoints": table.breakpoints}
    for kind, values in table.tables.items():
        arrays[f"{kind}.values"] = values[:-1]
        arrays[f"{kind}.tail"] = values[-1]
    os.makedirs(dirpath, exist_ok=True)
    path = _cache_path(dirpath, table.k1)
    np.savez(path, **arrays)
    return path


def load_envelope_set(dirpath: str, k1: int) -> dict:
    """All fourteen envelopes of band ``k1`` saved by ``save_envelope_set``.

    Anything but what the builder writes raises ``FormatError`` naming the
    file and the field: a file that is not a readable npz, another schema
    version or band, a missing kind, header fields that are not integers
    ``EnvelopeGridSpec`` accepts, breakpoints that do not rise strictly
    from 0.0 to 10.0 or are not the builder's ``np.arange(10 * tres + 1) /
    tres``, values that do not fill the bins or are not finite
    floats, monotone kinds below ``FLOOR`` or increasing, and tails that
    are not finite floats > 0.  The certifier trusts every bin it reads.
    """
    path = _cache_path(dirpath, k1)
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = {key: npz[key] for key in npz.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not an envelope cache ({exc})") from exc

    def field(key, ndim, kinds):
        """Field ``key``: an array of ``ndim`` dimensions whose dtype kind
        is in ``kinds``, all finite."""
        if key not in data:
            raise FormatError(f"{path}: no {key!r}")
        v = data[key]
        if (v.ndim != ndim or v.dtype.kind not in kinds
                or not np.all(np.isfinite(v))):
            what = "integers" if kinds == "iu" else "floats"
            raise FormatError(f"{path}: {key} is not {ndim}-D finite {what} "
                              f"({v.dtype}, shape {v.shape})")
        return v

    version = int(field("version", 0, "iu"))
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: version {version!r}, "
                          f"expected {CACHE_VERSION}")
    stored_k1 = int(field("k1", 0, "iu"))
    if stored_k1 != k1:
        raise FormatError(f"{path}: holds band {stored_k1}, expected {k1}")
    tres, ures = int(field("tres", 0, "iu")), int(field("ures", 0, "iu"))
    try:
        EnvelopeGridSpec(k1, tres, ures)
    except ValueError as exc:
        raise FormatError(f"{path}: tres {tres}, ures {ures}: {exc}") from None
    breakpoints = field("breakpoints", 1, "f")
    if not (len(breakpoints) > 1 and breakpoints[0] == 0.0
            and breakpoints[-1] == 10.0 and np.all(np.diff(breakpoints) > 0)):
        raise FormatError(f"{path}: breakpoints do not rise strictly from "
                          f"0.0 to 10.0")
    if not np.array_equal(breakpoints, np.arange(10 * tres + 1) / tres):
        raise FormatError(f"{path}: breakpoints are not the tres {tres} grid "
                          f"np.arange(10 * tres + 1) / tres")
    out = {}
    for kind, (_, _, monotone) in KIND_INFO.items():
        values = field(f"{kind}.values", 1, "f")
        if values.shape != (len(breakpoints) - 1,):
            raise FormatError(f"{path}: {kind} has {values.shape} values "
                              f"for {len(breakpoints)} breakpoints")
        if monotone and not (np.all(values >= FLOOR)
                             and np.all(np.diff(values) <= 0)):
            raise FormatError(f"{path}: {kind}.values are not >= {FLOOR} "
                              f"and non-increasing")
        tail = float(field(f"{kind}.tail", 0, "f"))
        if not tail > 0:
            raise FormatError(f"{path}: {kind}.tail {tail!r} is not > 0")
        out[kind] = StepEnvelope(kind=kind, monotone=monotone,
                                 breakpoints=breakpoints, values=values,
                                 tail=tail, k1=k1, tres=tres, ures=ures)
    return out
