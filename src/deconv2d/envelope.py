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

Construction: the closed-form coefficient and sample expressions are evaluated
with scalar outward-rounded intervals per u-cell, then combined with a
vectorized (lo, hi)-array interval kernel in fixed-size t-cell chunks, and
max-reduced into radial bins.  The vectorized kernel mirrors
``deconv2d.interval`` op for op and the two are cross-checked in the tests.

Beyond r = 10 everything is controlled by closed-form tail bounds
(g(r) = 6 r^2 exp(-r^2/2 + sqrt(2) zeta r), waves carry an extra 1/zeta), so
envelopes only store bins on [0, 10] plus a single tail value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .interval import Interval, exp_outward, next_down, next_up

FLOOR = 2e-9
#: t-cells per kernel pass.  Small enough that every temporary of the array
#: kernel (64 KB per float array) is reused from the heap rather than mapped
#: fresh and page-faulted in on each operation.
_CHUNK_CELLS = 8192

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


class OutOfValidatedRange(ValueError):
    """Parameter outside the range the tail bounds are validated for."""


class ResourceBudgetExceeded(RuntimeError):
    """Cell count beyond the configured cap."""


class FormatError(ValueError):
    """Malformed envelope cache file."""


class VersionMismatch(FormatError):
    """Envelope cache file with an unsupported schema version."""


def zeta_band(k1: int) -> tuple[float, float]:
    """The k1-th grid-spacing band, k1 = 1..16."""
    if not 1 <= k1 <= 16:
        raise ValueError(f"k1 must be 1..16, got {k1}")
    return 0.1 + 0.8 * (k1 - 1) / 16, 0.1 + 0.8 * k1 / 16


def band_for_zeta(zeta: float) -> int:
    """Index of the band containing zeta (right-closed bands)."""
    if not 0.1 < zeta <= 0.9:
        raise OutOfValidatedRange(f"zeta {zeta} outside (0.1, 0.9]")
    k1 = int(math.ceil((zeta - 0.1) / 0.05))
    return min(max(k1, 1), 16)


@dataclass(frozen=True)
class EnvelopeGridSpec:
    """Resolution profile for one envelope build.

    ``tres``/``ures`` are bins per unit length / per zeta; the published
    resolution is 40, the default desk profile is 10.
    """

    k1: int
    tres: int = 10
    ures: int = 10
    max_cells: int = 10**8

    def __post_init__(self):
        zeta_band(self.k1)  # validates k1
        if self.tres < 1 or self.ures < 1:
            raise ValueError("resolutions must be >= 1")
        if self.ures % 2:
            raise ValueError("ures must be even (u box is [0, zeta/2])")

    @property
    def zeta(self) -> tuple[float, float]:
        return zeta_band(self.k1)


@dataclass
class StepEnvelope:
    """A computed envelope: bins on [0, 10] plus a tail value for r > 10."""

    kind: str
    monotone: bool
    breakpoints: np.ndarray  # m+1 edges, 0 = r_0 < ... < r_m = 10
    values: np.ndarray       # m per-bin upper bounds
    tail: float
    k1: int
    tres: int
    ures: int
    floor: float = FLOOR

    def query_many(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.breakpoints, r, side="left") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = self.values[idx]
        return np.where(r > self.breakpoints[-1], self.tail, out)

    def query(self, r: float) -> float:
        return float(self.query_many(r))

    def seg_max(self, a, b):
        """Max bin value over bins intersecting [a, b] (+ tail if b > 10).

        Elementwise over arrays of segments; scalar input gives a float.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not np.all((0 <= a) & (a <= b)):
            raise ValueError("segments need 0 <= a <= b")
        top = self.breakpoints[-1]
        last = len(self.values) - 1
        lo = np.clip(np.searchsorted(self.breakpoints, a, side="left") - 1,
                     0, last)
        hi = np.searchsorted(self.breakpoints, np.minimum(b, top),
                             side="left") - 1
        hi = np.minimum(np.maximum(hi, lo), last)
        bins = np.arange(len(self.values))
        covered = (bins >= lo[..., None]) & (bins <= hi[..., None])
        m = np.max(np.where(covered, self.values, -np.inf), axis=-1)
        m = np.where(b > top, np.maximum(m, self.tail), m)
        return float(m) if m.ndim == 0 else m


# ---------------------------------------------------------------------------
# Vectorized interval kernel (arrays of lower/upper bounds)

def v_add(a, b):
    return next_down(a[0] + b[0]), next_up(a[1] + b[1])


def v_sub(a, b):
    return next_down(a[0] - b[1]), next_up(a[1] - b[0])


def v_mul(a, b):
    p1, p2 = a[0] * b[0], a[0] * b[1]
    p3, p4 = a[1] * b[0], a[1] * b[1]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return next_down(lo), next_up(hi)


def v_sqr(a):
    lo_abs = np.abs(a[0])
    hi_abs = np.abs(a[1])
    m = np.minimum(lo_abs, hi_abs)
    M = np.maximum(lo_abs, hi_abs)
    straddle = (a[0] <= 0) & (a[1] >= 0)
    lo = np.where(straddle, 0.0, next_down(m * m))
    return lo, next_up(M * M)


def v_exp_neg_half(n2):
    """exp(-n2/2) for a nonnegative interval array n2.

    Halving is exact; the exp is ``interval.exp_outward``, the one outward-
    rounded exp that ``Interval.exp`` also uses (np.exp with < 1 ulp error,
    widened by two ulps per endpoint).
    """
    return exp_outward(-0.5 * n2[1], -0.5 * n2[0])


def v_sqrt(a):
    lo = np.sqrt(np.maximum(a[0], 0.0))
    hi = np.sqrt(np.maximum(a[1], 0.0))
    return np.maximum(next_down(lo), 0.0), next_up(hi)


def _si(iv: Interval):
    """Scalar Interval -> broadcastable (lo, hi) pair."""
    return iv.lo, iv.hi


# ---------------------------------------------------------------------------
# t-cell grid (shared by all kinds and u-cells at one resolution)

@dataclass(frozen=True)
class _TCells:
    """A run of t-cells: interval coordinates and the bins each one feeds."""

    tx: tuple
    ty: tuple
    bmax_idx: np.ndarray
    #: non-monotone kinds: (cells whose span reaches offset o, their bin
    #: at offset o) for o = 0, 1, ...
    span_bins: tuple


class _TCellGrid:
    _cache: dict[int, "_TCellGrid"] = {}

    def __init__(self, tres: int):
        n = 20 * tres
        edges = -10.0 + np.arange(n + 1) / tres
        lo1 = edges[:-1]
        hi1 = edges[1:]
        XL, YL = np.meshgrid(lo1, lo1, indexing="ij")
        XH, YH = np.meshgrid(hi1, hi1, indexing="ij")
        self.xl, self.xh = XL.ravel(), XH.ravel()
        self.yl, self.yh = YL.ravel(), YH.ravel()
        # outer/inner radius of each cell
        mx = np.maximum(np.abs(self.xl), np.abs(self.xh))
        my = np.maximum(np.abs(self.yl), np.abs(self.yh))
        self.rmax = next_up(np.hypot(mx, my))
        dx = np.where((self.xl <= 0) & (self.xh >= 0), 0.0,
                      np.minimum(np.abs(self.xl), np.abs(self.xh)))
        dy = np.where((self.yl <= 0) & (self.yh >= 0), 0.0,
                      np.minimum(np.abs(self.yl), np.abs(self.yh)))
        self.rmin = np.maximum(next_down(np.hypot(dx, dy)), 0.0)
        m = 10 * tres
        self.nbins = m
        # monotone kinds: cell feeds bins 1..floor(rmax/delta)+1
        self.bmax_idx = np.minimum(np.floor(self.rmax * tres).astype(int), m - 1)
        # non-monotone kinds: bins whose annulus meets [rmin, rmax]; cells
        # entirely beyond radius 10 get an empty (negative) span
        blo = np.ceil(self.rmin * tres - 1e-9).astype(int)
        self.blo_idx = np.maximum(blo - 1, 0)
        self.bhi_idx = np.minimum(np.floor(self.rmax * tres).astype(int), m - 1)

    def chunks(self, size: int) -> list[_TCells]:
        """The grid cut into runs of at most ``size`` consecutive cells."""
        out = []
        for start in range(0, len(self.xl), size):
            sl = slice(start, start + size)
            blo = self.blo_idx[sl]
            span = self.bhi_idx[sl] - blo
            reach = [span >= off for off in range(int(np.max(span)) + 1)]
            span_bins = tuple((mask, blo[mask] + off)
                              for off, mask in enumerate(reach))
            out.append(_TCells(tx=(self.xl[sl], self.xh[sl]),
                               ty=(self.yl[sl], self.yh[sl]),
                               bmax_idx=self.bmax_idx[sl],
                               span_bins=span_bins))
        return out

    @classmethod
    def get(cls, tres: int) -> "_TCellGrid":
        if tres not in cls._cache:
            cls._cache[tres] = cls(tres)
        return cls._cache[tres]


# ---------------------------------------------------------------------------
# coefficient intervals per u-cell

def _frac_interval(j: int, denom: int) -> Interval:
    return Interval(math.nextafter((j - 1) / denom, -math.inf),
                    math.nextafter(j / denom, math.inf))


def _u_cell_coeffs(zlo: float, zhi: float, j: int, k: int, ures: int):
    """Scalar coefficient intervals and sample rectangles for the u-cell
    (j, k): u in [zeta (j-1)/ures, zeta j/ures] x [same with k].

    Spike at the origin; samples s1 = -u, s2 = (zeta - u1, -u2),
    s3 = (-u1, zeta - u2).  Coefficients use the closed forms with the
    cross-product sum replaced by zeta^2 exactly (valid for this orientation).
    """
    Z = Interval(zlo, zhi)
    one = Interval.point(1.0)
    # u = (f1, f2) * zeta: every u/zeta ratio is the bare fraction, which
    # keeps the repeated zeta occurrences correlated.  Naive division here
    # widens the coefficients enough to flip the sign of the eigenvalue
    # bound near the spike for the narrow low-zeta bands.
    f1 = _frac_interval(j, ures)
    f2 = _frac_interval(k, ures)
    g2, g3 = one - f1, one - f2
    zsq = Z.sqr()
    eu = ((f1.sqr() + f2.sqr()) * zsq).scale(0.5).exp()
    e2 = ((g2.sqr() + f2.sqr()) * zsq).scale(0.5).exp()
    e3 = ((f1.sqr() + g3.sqr()) * zsq).scale(0.5).exp()
    inv = one / Z
    coeffs = {
        "B": ((one - f1 - f2) * eu, f1 * e2, f2 * e3),
        "W1": (-(inv * eu), inv * e2, Interval.point(0.0)),
        "W2": (-(inv * eu), Interval.point(0.0), inv * e3),
    }
    ux, uy = f1 * Z, f2 * Z
    samples = ((-ux, -uy), (g2 * Z, -uy), (-ux, g3 * Z))
    return coeffs, samples


# ---------------------------------------------------------------------------
# per-cell kind evaluation

def _eval_kind_values(expr, coeffs, samples, cells, per_sample):
    """Per-t-cell envelope contribution array for one expression kind.

    ``per_sample`` holds, for each of the three Gaussians, the precomputed
    interval arrays (dx, dy, n2, E) over the t-cells ``cells``.
    """
    zero = (np.zeros(1), np.zeros(1))
    f = None
    for i in range(3):
        c = coeffs[i]
        if c.lo == 0.0 and c.hi == 0.0:
            continue
        dx, dy, n2, E = per_sample[i]
        ci = _si(c)
        if expr == "val":
            term = v_mul(ci, E)
        elif expr == "dx":
            term = v_mul(ci, v_mul(dx, E))
        elif expr == "dy":
            term = v_mul(ci, v_mul(dy, E))
        elif expr == "eig_abs":
            a = _si(abs(c))
            m = (np.maximum(next_down(n2[0] - 1.0), 1.0),
                 np.maximum(next_up(n2[1] - 1.0), 1.0))
            term = v_mul(a, v_mul(m, E))
        elif expr == "eig_max":
            m = (next_down(n2[0] - 1.0), next_up(n2[1] - 1.0))
            term = v_mul(ci, v_mul(m, E))
        elif expr == "slope":
            # (s_i . t)/|t| - |t|, with a robust fallback when the t-cell
            # touches the origin (the ratio is then only bounded by |s_i|)
            sx, sy = samples[i]
            tn2 = v_add(v_sqr(cells.tx), v_sqr(cells.ty))
            tn = v_sqrt(tn2)
            dot = v_add(v_mul(_si(sx), cells.tx), v_mul(_si(sy), cells.ty))
            snorm = (sx.sqr() + sy.sqr()).sqrt().hi
            safe = tn[0] > 0.0
            denom_lo = np.where(safe, tn[0], 1.0)
            # [a,b] / [c,d] with 0 < c <= d: sign-cased endpoint quotients
            rlo = np.where(dot[0] >= 0, dot[0] / tn[1], dot[0] / denom_lo)
            rhi = np.where(dot[1] >= 0, dot[1] / denom_lo, dot[1] / tn[1])
            ratio = (np.where(safe, next_down(rlo), -snorm),
                     np.where(safe, next_up(rhi), snorm))
            g = v_sub(ratio, tn)
            term = v_mul(ci, v_mul(g, E))
        else:
            raise ValueError(expr)
        f = term if f is None else v_add(f, term)
    if f is None:
        f = zero
    if expr in ("slope", "eig_max"):
        return f[1]  # signed upper bound
    return np.maximum(np.abs(f[0]), np.abs(f[1]))  # |f| upper bound


def _per_sample_arrays(samples, cells):
    out = []
    for sx, sy in samples:
        dx = v_sub(_si(sx), cells.tx)
        dy = v_sub(_si(sy), cells.ty)
        n2 = v_add(v_sqr(dx), v_sqr(dy))
        E = v_exp_neg_half(n2)
        out.append((dx, dy, n2, E))
    return out


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


def tail_constants(zeta: float) -> dict:
    """Uniform layer-9+ tail constants (spikes at hexagonal layer distances).

    Returns eps_B / eps_W for values and first/second partials and the
    eigenvalue variants eps_B_ev / eps_W_ev.
    """
    if not 1e-2 < zeta <= 1.0:
        raise OutOfValidatedRange(f"zeta {zeta} outside (1e-2, 1]")
    return {"eps_B": 2e-12, "eps_W": 2e-10, "eps_B_ev": 2e-11, "eps_W_ev": 2e-9}


def tail_chain_sum(zeta: float, layers=range(9, 31)) -> float:
    """Direct summation of the layer bound chain: 6l spikes in layer l, each
    at distance >= 3l/2 - 3 (the Delta = 2 case), bounded by tail_g."""
    return sum(6 * l * tail_g(1.5 * l - 3.0, zeta) for l in layers)


# ---------------------------------------------------------------------------
# build

def build_envelopes(spec: EnvelopeGridSpec, kinds=None) -> dict:
    """Build envelopes for all requested kinds of one zeta band at once
    (sharing the per-u-cell Gaussian interval arrays)."""
    kinds = list(ALL_KINDS if kinds is None else kinds)
    for k in kinds:
        if k not in KIND_INFO:
            raise ValueError(f"unknown envelope kind {k!r}")
    grid = _TCellGrid.get(spec.tres)
    half = spec.ures // 2
    n_ucells = half * half
    if any(k in EXTENDED_U_KINDS for k in kinds):
        n_ucells += spec.ures * spec.ures
    if len(grid.xl) * n_ucells > spec.max_cells:
        raise ResourceBudgetExceeded(
            f"{len(grid.xl) * n_ucells} cells > cap {spec.max_cells}")
    zlo, zhi = spec.zeta
    m = grid.nbins

    normal = [k for k in kinds if k not in EXTENDED_U_KINDS]
    extended = [k for k in kinds if k in EXTENDED_U_KINDS]
    bins = {}
    for k in kinds:
        _, _, mono = KIND_INFO[k]
        bins[k] = np.zeros(m) if mono else np.full(m, -np.inf)

    chunks = grid.chunks(_CHUNK_CELLS)

    def accumulate(kind_list, j, k):
        coeffs_all, samples = _u_cell_coeffs(zlo, zhi, j, k, spec.ures)
        for cells in chunks:
            per_sample = _per_sample_arrays(samples, cells)
            for kind in kind_list:
                base, expr, mono = KIND_INFO[kind]
                vals = _eval_kind_values(expr, coeffs_all[base], samples,
                                         cells, per_sample)
                if mono:
                    np.maximum.at(bins[kind], cells.bmax_idx, vals)
                else:
                    for mask, idx in cells.span_bins:
                        np.maximum.at(bins[kind], idx, vals[mask])

    if normal:
        for j in range(1, half + 1):
            for k in range(1, half + 1):
                accumulate(normal, j, k)
    if extended:
        for j in range(-(half - 1), half + 1):
            for k in range(-(half - 1), half + 1):
                accumulate(extended, j, k)

    edges = np.arange(m + 1) / spec.tres
    out = {}
    for kind in kinds:
        _, _, mono = KIND_INFO[kind]
        v = bins[kind]
        if mono:
            v = np.maximum.accumulate(v[::-1])[::-1]
            v = np.maximum(v, FLOOR)
        else:
            assert np.all(np.isfinite(v)), f"empty bins for {kind}"
        out[kind] = StepEnvelope(kind=kind, monotone=mono, breakpoints=edges,
                                 values=v, tail=_tail_value(kind, zlo, zhi),
                                 k1=spec.k1, tres=spec.tres, ures=spec.ures)
    return out


# ---------------------------------------------------------------------------
# cache IO

_CACHE_MAGIC = "ENVCACHE"
_CACHE_VERSION = "v1"


def save_envelope(env: StepEnvelope, path: str) -> None:
    lines = [f"{_CACHE_MAGIC} {_CACHE_VERSION} k1={env.k1} kind={env.kind} "
             f"monotone={1 if env.monotone else 0} tres={env.tres} "
             f"ures={env.ures}"]
    for i, v in enumerate(env.values):
        lines.append(f"{float(env.breakpoints[i])!r} "
                     f"{float(env.breakpoints[i + 1])!r} {float(v)!r}")
    lines.append(f"tail {float(env.tail)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_envelope(path: str) -> StepEnvelope:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != _CACHE_MAGIC:
        raise FormatError(f"{path}: bad header {lines[0]!r}")
    if head[1] != _CACHE_VERSION:
        raise VersionMismatch(f"{path}: version {head[1]!r}")
    meta = {}
    for tok in head[2:]:
        if "=" not in tok:
            raise FormatError(f"{path}: bad header token {tok!r}")
        k, v = tok.split("=", 1)
        meta[k] = v
    try:
        k1 = int(meta["k1"])
        kind = meta["kind"]
        monotone = bool(int(meta["monotone"]))
        tres = int(meta["tres"])
        ures = int(meta["ures"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: incomplete header") from exc
    if lines[-1].split()[0] != "tail":
        raise FormatError(f"{path}: missing tail line")
    try:
        tail = float(lines[-1].split()[1])
        rows = [tuple(float(x) for x in ln.split()) for ln in lines[1:-1]]
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed data line") from exc
    if not rows or any(len(r) != 3 for r in rows):
        raise FormatError(f"{path}: malformed data rows")
    edges = np.array([r[0] for r in rows] + [rows[-1][1]])
    for i, r in enumerate(rows[:-1]):
        if r[1] != rows[i + 1][0]:
            raise FormatError(f"{path}: non-contiguous bins at row {i}")
    values = np.array([r[2] for r in rows])
    return StepEnvelope(kind=kind, monotone=monotone, breakpoints=edges,
                        values=values, tail=tail, k1=k1, tres=tres, ures=ures)


def save_envelope_set(dirpath: str, envs: dict) -> list[str]:
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for kind, env in envs.items():
        p = os.path.join(dirpath, f"k{env.k1:02d}_{kind}.env")
        save_envelope(env, p)
        paths.append(p)
    return paths


def load_envelope_set(dirpath: str, k1: int, kinds=ALL_KINDS) -> dict:
    out = {}
    for kind in kinds:
        out[kind] = load_envelope(os.path.join(dirpath, f"k{k1:02d}_{kind}.env"))
    return out
