"""The recovery certifier.

Given a minimum spike separation Delta and a grid-spacing band (index k1),
this module decides whether the interpolation function Q is guaranteed to
stay inside (-1, 1) away from the spike support.  The decision reduces to
one radial profile: with the nearest spike at the origin, bounds on Q, its
radial derivative, and its largest Hessian eigenvalue are constant on each
of 100 segments tiling (0, Delta].  One ``SegmentBounds`` record holds the
segment edges and one array per bound.  Both cell-distance tables (``d_U``
for the block norms, segment-to-cell for the segment bounds) are
``hexgeom``'s tables at Delta = 1, dilated by Delta.  Near the spike,
negativity of the curvature integral (and then of its gradient extension)
controls Q < 1; far out, the segment value bounds take over; Q > -1 holds
segment by segment; beyond Delta a single norm inequality covers the rest
of the plane.

All inputs are the precomputed radial envelopes and the scalar coefficient
bounds; nothing here evaluates Q itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeSet
from .hexgeom import segment_distances
from .schur import NormBounds, SchurReport, block_norm_bounds, schur_bounds

# absorbs the beyond-layer-8 tails in every segment bound: under the
# coefficient budget they add at most 2 * (2 EPS_B + 2 EPS_W) = 8.08e-10
# (envelope's constants), the first 2 being the slope and eig kinds'
# coarsening in envelope._tail_value
EPS_SEG = 1e-9
N_SEGMENTS = 100


class CoefficientBoundExceeded(ValueError):
    """The segment-bound epsilon budget requires |alpha| <= 2, |beta|,
    |gamma| <= 1; a report outside that range cannot use these formulas."""


@dataclass(frozen=True, eq=False)
class SegmentBounds:
    """Constant bounds on Q and its derivatives over each segment
    [edges[i], edges[i+1]] x {0}: n + 1 ascending edges, n values per bound.
    Compare records through their arrays; ``==`` is identity."""

    edges: np.ndarray
    q_ub: np.ndarray
    q_lb: np.ndarray
    grad_ub: np.ndarray     # on grad Q . t_hat (signed)
    eig_ub: np.ndarray      # on the largest Hessian quadratic form (signed)


@dataclass(frozen=True)
class CertificateReport:
    delta: float
    k1: int
    u1: float | None
    u2: float | None
    segments: SegmentBounds | None     # None before the segment stage
    schur: SchurReport
    far_field_ok: bool
    verdict: str        # "certified" or "failed(<stage>)"

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    @property
    def stage(self) -> str:
        if self.certified:
            return ""
        return self.verdict[len("failed("):-1]


def _within_coefficient_budget(schur: SchurReport) -> bool:
    """False also on the NaNs of a failed Schur condition."""
    return (schur.alpha_inf <= 2.0 and schur.beta_inf <= 1.0
            and schur.gamma_inf <= 1.0)


def qtri_segment_bounds(delta: float, n_segments: int, table: EnvelopeSet,
                        schur: SchurReport) -> SegmentBounds:
    """Bounds on Q over the n_segments equal segments tiling [0, Delta] of
    the positive axis, as one ``SegmentBounds`` record."""
    if not _within_coefficient_budget(schur):
        raise CoefficientBoundExceeded(
            f"alpha_inf={schur.alpha_inf}, beta_inf={schur.beta_inf}, "
            f"gamma_inf={schur.gamma_inf}")
    # the last edge is Delta itself: (i + 1) * delta / n can round past it
    edges = np.append(np.arange(n_segments) * delta / n_segments, delta)
    a, b = edges[:-1], edges[1:]
    # Two global constraints sharpen the raw segment-to-cell distance: every
    # other spike is farther from t than the origin spike (>= a), and has
    # norm >= Delta while |t| <= b (>= Delta - b).  Without the second clamp
    # the inner-layer cells, which overlap the exclusion disk, would dominate
    # every bound near the spike.
    d_u = np.maximum(segment_distances(delta, n_segments),
                     np.maximum(a, delta - b)[:, None])
    al, be, ga = schur.alpha_inf, schur.beta_inf, schur.gamma_inf

    # One (3, m + 1) table per base stacks its value, gradient-norm and eig
    # rows in bound order (Q, grad Q . t_hat, eig), so each Lemma Qtri term
    # is formed once for all three bounds: on the per-bin tables, then read
    # at the bins of d_u or a (elementwise the arithmetic of reading each
    # kind first).  The neighbour sums go through ``EnvelopeSet.sums``, so a
    # segment's bounds do not depend on how many segments are evaluated
    # together.
    T = table.tables
    at, bt = table.bins(a), table.bins(b)
    # the bins meeting segment i are span[:, i]: at[i]..bt[i], shorter runs
    # repeating bt[i]
    span = np.minimum(at + np.arange(int(np.max(bt - at)) + 1)[:, None], bt)
    bump, wave1, wave2 = (
        np.array((T[p], np.sqrt(T[p + "_dx"] * T[p + "_dx"]
                                + T[p + "_dy"] * T[p + "_dy"]), T[p + "_eig"]))
        for p in ("bump", "wave1", "wave2"))

    neighbor = table.sums(al * bump + be * wave1 + ga * wave2, d_u)
    wave_self = np.take(be * wave1 + ga * wave2, at, axis=1)
    # omega and eta: the bump's largest slope and eig over each segment
    peak = np.max(np.take(np.array((T["bump_slope"], T["bump_eig_max"])),
                          span, axis=1), axis=1)
    bump_self = np.concatenate(([al * bump[0, at]],
                                np.maximum(schur.alpha_lb * peak, al * peak)))
    q_ub, grad_ub, eig_ub = bump_self + wave_self + neighbor + EPS_SEG
    q_lb = -(wave_self[0] + neighbor[0] + EPS_SEG)

    return SegmentBounds(edges, q_ub, q_lb, grad_ub, eig_ub)


def edge_integrals(segments: SegmentBounds):
    """Closed-form integrals of the step-constant bound profiles at the edges.

    The segments tile [r_0, r_n] by construction.  Returns the edges r_k and,
    at each edge, the curvature integral I(r_k) = int eig(s) (r_k - s) ds over
    [r_0, r_k], its slope I'(r_k) = int eig(s) ds, and the gradient integral
    G(r_k) = int grad(s) ds, all as numpy arrays of length n + 1.  On segment
    k, I is the quadratic I(r_k) + I'(r_k) x + eig_k x^2 / 2 in x = r - r_k
    and G is linear, so the edge values determine both everywhere.
    """
    r, eig = segments.edges, segments.eig_ub
    w = r[1:] - r[:-1]
    slope = np.concatenate(([0.0], np.cumsum(eig * w)))
    curv = np.concatenate(([0.0], np.cumsum(slope[:-1] * w + eig * w * w / 2)))
    grad = np.concatenate(([0.0], np.cumsum(segments.grad_ub * w)))
    return r, curv, slope, grad


def find_u1_u2(segments: SegmentBounds):
    """Radii satisfying the curvature / gradient conditions.

    Any prefix endpoint with an everywhere-negative curvature integral is an
    admissible u1; a smaller u1 keeps more negative reserve for the gradient
    extension, so the pair maximizing u2 is returned (ties prefer the larger
    u1).  Returns (u1, u2) on success or (None, stage).
    """
    r, curv, slope, grad = edge_integrals(segments)
    eig = segments.eig_ub
    # I < 0 on (r_k, r_k+1]: at the right edge (the left one is checked with
    # the previous segment, and I(r_0) = 0) and, on a concave segment, at the
    # interior vertex where I' vanishes
    concave = np.where(eig < 0.0, eig, -1.0)
    vertex = r[:-1] - slope[:-1] / concave
    top = curv[:-1] - slope[:-1] ** 2 / (2.0 * concave)
    inside = (eig < 0.0) & (r[:-1] < vertex) & (vertex < r[1:])
    ok = (curv[1:] < 0.0) & (~inside | (top < 0.0))
    n_ok = len(ok) if ok.all() else int(np.argmin(ok))
    if n_ok == 0:
        return None, "no_negative_curvature"
    # Candidate u1 = r_e, e = 1..n_ok.  The gradient extension F = I(u1) +
    # G(r) - G(u1) is linear per segment, so u2 is the last edge before the
    # first edge beyond u1 where F >= 0.
    e = np.arange(1, n_ok + 1)
    beyond = np.arange(len(r)) > e[:, None]
    stop = beyond & ~(curv[e, None] + (grad - grad[e, None]) < 0.0)
    u2 = r[np.where(stop.any(axis=1), stop.argmax(axis=1), len(r)) - 1]
    best = len(e) - 1 - int(np.argmax(u2[::-1]))    # ties: the larger u1
    best_u1, best_u2 = float(r[e[best]]), float(u2[best])
    if best_u2 <= best_u1:
        # no segment extends; u2 = u1 is still a valid pair provided the
        # value bound already takes over there
        u1 = float(r[n_ok])
        if np.all(segments.q_ub[n_ok:] < 1.0):
            return u1, u1
        return None, "no_gradient_extension"
    return best_u1, best_u2


def far_field_check(schur: SchurReport, nb: NormBounds) -> bool:
    """|Q| < 1 beyond Delta: the evaluation point joins the support as an
    extra row of the same block system, so the same norm bounds apply."""
    val = (schur.alpha_inf * nb.i_minus_b + schur.beta_inf * nb.w1
           + schur.gamma_inf * nb.w2)
    return val < 1.0


class CertifyConfig:
    """Everything certify_cell needs besides (delta, k1): one
    ``EnvelopeSet`` per band of ``{k1: {kind: StepEnvelope}}``."""

    def __init__(self, envelopes_by_k1: dict):
        self.tables = {k1: EnvelopeSet(envs)
                       for k1, envs in envelopes_by_k1.items()}


def certify_cell(delta: float, k1: int, config: CertifyConfig) -> CertificateReport:
    table = config.tables[k1]
    nb = block_norm_bounds(delta, table)
    rep = schur_bounds(nb)

    def fail(stage, segments=None, u1=None, u2=None, ff=False):
        return CertificateReport(delta, k1, u1, u2, segments, rep, ff,
                                 f"failed({stage})")

    if not all(rep.conditions_hold):
        return fail("schur")
    if not _within_coefficient_budget(rep):
        return fail("coefficient_bounds")
    ff = far_field_check(rep, nb)
    if not ff:
        return fail("far_field")

    segments = qtri_segment_bounds(delta, N_SEGMENTS, table, rep)
    u1, u2 = find_u1_u2(segments)
    if u1 is None:
        return fail(u2, segments, ff=True)
    if not np.all(segments.q_ub[np.searchsorted(segments.edges, u2):] < 1.0):
        return fail("q_upper", segments, u1, u2, True)
    if not np.all(segments.q_lb > -1.0):
        return fail("q_lower", segments, u1, u2, True)
    return CertificateReport(delta, k1, u1, u2, segments, rep, True,
                             "certified")


def recovery_sweep(delta_grid, k1_set, config: CertifyConfig) -> dict:
    """Per band, the reports along the grid and the least certified Delta."""
    out = {}
    for k1 in k1_set:
        reports = [certify_cell(d, k1, config) for d in delta_grid]
        threshold = next((r.delta for r in reports if r.certified), None)
        out[k1] = {"threshold": threshold, "reports": reports}
    return out
