import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import desk_envelopes, desk_reference
from deconv2d import certify
from deconv2d.certify import (
    EPS_SEG,
    CertifyConfig,
    CoefficientBoundExceeded,
    SegmentBounds,
    certify_cell,
    edge_integrals,
    far_field_check,
    find_u1_u2,
    qtri_segment_bounds,
    recovery_sweep,
)
from deconv2d.envelope import EPS_B, EPS_W
from deconv2d.hexgeom import build_partition, segment_cell_distance
from deconv2d.schur import (
    NormBounds,
    SchurReport,
    numeric_certificate,
    schur_bounds,
)

K1 = 5
ZETA = 0.32
DELTA = 5.5
BENCH_DATA = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "data")


@pytest.fixture(scope="module")
def cfg():
    return CertifyConfig({K1: desk_envelopes(K1)})


@pytest.fixture(scope="module")
def report(cfg):
    return certify_cell(DELTA, K1, cfg)


def test_certified_working_cell(report):
    assert report.certified
    assert report.u1 is not None and report.u1 <= report.u2 <= DELTA
    assert report.far_field_ok
    segs = report.segments
    assert len(segs.edges) == 101
    assert all(len(f) == 100 for f in (segs.q_ub, segs.q_lb, segs.grad_ub,
                                       segs.eig_ub))
    # far segments are well inside the unit band
    assert segs.q_ub[-1] < 1.0
    assert np.all(segs.q_lb <= segs.q_ub)


def test_last_edge_is_delta_on_the_cli_grid(cfg):
    """Delta = 5.749999999999994 from the CLI's unrounded grid: (i+1)*Delta/n
    once overshot Delta on the last segment and the cell raised."""
    delta = float(np.arange(4.0, 6.0 + 1e-12, 0.05)[35])
    assert delta == 5.749999999999994
    rep = certify_cell(delta, K1, cfg)
    assert rep.segments.edges[-1] == delta
    assert rep.certified


def test_fail_small_delta(cfg):
    r = certify_cell(2.0, K1, cfg)
    assert r.verdict == "failed(schur)"
    assert r.stage == "schur"


def test_large_delta_certifies(cfg):
    assert certify_cell(6.0, K1, cfg).certified


def _same_report(a, b):
    """Every field equal, the segment arrays bit for bit."""
    fields = ("edges", "q_ub", "q_lb", "grad_ub", "eig_ub")
    return (dataclasses.replace(a, segments=None)
            == dataclasses.replace(b, segments=None)
            and all(getattr(a.segments, f).tobytes()
                    == getattr(b.segments, f).tobytes() for f in fields))


def test_determinism(cfg, report):
    again = certify_cell(DELTA, K1, cfg)
    assert again is not report and _same_report(again, report)


def test_benchmark_grid_matches_reference():
    """Verdict, u1 and u2 of every cell of the benchmark's certify sweep
    (bands 1/5/9/13 x the unrounded `deconv2d certify --delta-min 4.0
    --delta-max 6.0` grid) against the recorded reference, on the recorded
    desk envelopes.  Cells recorded as errors have no verdict to compare."""
    config = CertifyConfig(desk_reference())
    with open(os.path.join(BENCH_DATA, "reference.json")) as fh:
        reference = json.load(fh)["certify"]
    grid = np.arange(4.0, 6.0 + 1e-12, 0.05)
    compared = 0
    for key, ref in reference.items():
        if "error" in ref:
            continue
        k1, i = (int(x) for x in key.split(":"))
        assert float(grid[i]) == ref["delta"], key
        rep = certify_cell(grid[i], k1, config)
        assert (rep.verdict, rep.u1, rep.u2) == (
            ref["verdict"], ref["u1"], ref["u2"]), key
        compared += 1
    assert compared == 160


def test_segment_bounds_match_direct_distances(cfg, report, monkeypatch):
    """The dilated unit-distance cache equals per-segment exact distances."""
    part = build_partition(DELTA)
    segs = report.segments
    n = len(segs.edges) - 1

    def direct_distances(delta, n_segments):
        edges = np.append(np.arange(n_segments) * delta / n_segments, delta)
        return segment_cell_distance(edges[:-1, None], edges[1:, None],
                                     part.vertices)

    monkeypatch.setattr(certify, "segment_distances", direct_distances)
    direct = qtri_segment_bounds(DELTA, n, cfg.tables[K1], report.schur)
    assert direct.edges.tobytes() == segs.edges.tobytes()
    # dilation rounding can push a cell distance across an envelope bin
    # edge, so agreement is close but not bit-exact
    for f in ("q_ub", "q_lb", "grad_ub", "eig_ub"):
        assert getattr(direct, f) == pytest.approx(getattr(segs, f), abs=1e-3)


def test_qtri_coefficient_budget(cfg):
    bad = SchurReport((True, True, True), 2.5, 0.1, 0.1, 0.5)
    with pytest.raises(CoefficientBoundExceeded):
        qtri_segment_bounds(DELTA, 10, cfg.tables[K1], bad)


def test_eps_seg_covers_the_tail_budget():
    """EPS_SEG stands for the tails beyond layer 8 in every segment bound:
    alpha * EPS_B + (beta + gamma) * EPS_W with alpha <= 2 and beta,
    gamma <= 1 (the coefficient budget), doubled for the coarsening of the
    slope and eig kinds."""
    assert 2 * (2 * EPS_B + 2 * EPS_W) <= EPS_SEG


def _mk(eigs, grads, q_ub=0.5):
    n = len(eigs)
    return SegmentBounds(np.arange(n + 1) / n, np.full(n, q_ub),
                         np.full(n, -q_ub), np.asarray(grads, dtype=float),
                         np.asarray(eigs, dtype=float))


def test_regions_constant_curvature():
    segs = _mk([-2.0] * 10, [0.5] * 10)
    r, curv, slope, grad = edge_integrals(segs)
    assert r[7] == 0.7
    assert curv[7] == pytest.approx(-2.0 * 0.7 * 0.7 / 2)
    assert slope[7] == pytest.approx(-2.0 * 0.7)
    assert grad[10] - grad[4] == pytest.approx(0.5 * 0.6)


def test_regions_quadrature_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        edges = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0, 2, 8)]))
        eig = rng.uniform(-3, 3, len(edges) - 1)
        grad = rng.uniform(-3, 3, len(edges) - 1)
        zero = np.zeros_like(eig)
        segs = SegmentBounds(edges, zero, zero, grad, eig)
        r_k, curv_k, _, grad_k = edge_integrals(segs)
        assert np.array_equal(r_k, edges)
        k_lo = int(rng.integers(0, len(edges) - 1))
        for k in range(1, len(edges)):
            r = edges[k]
            # 10^5 nodes: the trapezoid rule smears each step of the profile
            # over one node spacing, and every edge is checked here
            s = np.linspace(0, r, 10**5)
            step_e = eig[np.minimum(np.searchsorted(edges, s, side="right") - 1,
                                    len(eig) - 1)]
            curv = np.trapezoid(step_e * (r - s), s)
            assert abs(curv_k[k] - curv) < 1e-3
            if k <= k_lo:
                continue
            s2 = np.linspace(edges[k_lo], r, 10**5)
            step_g = grad[np.minimum(np.searchsorted(edges, s2, side="right") - 1,
                                     len(grad) - 1)]
            assert abs(grad_k[k] - grad_k[k_lo] - np.trapezoid(step_g, s2)) < 1e-3


def test_find_u1_u2_all_negative():
    segs = _mk([-1.0] * 10, [-0.1] * 10)
    u1, u2 = find_u1_u2(segs)
    assert u1 == 1.0 and u2 == 1.0


def test_find_u1_u2_first_segment_positive():
    segs = _mk([2.0] + [-1.0] * 9, [0.0] * 10)
    assert find_u1_u2(segs) == (None, "no_negative_curvature")


def test_find_u1_u2_extension():
    # negative curvature on the first half, mildly positive gradient after:
    # the reserve from the curvature integral carries u2 forward a bit
    segs = _mk([-1.0] * 5 + [3.0] * 5, [0.0] * 5 + [0.3] * 5)
    u1, u2 = find_u1_u2(segs)
    assert u1 is not None and u2 > u1


def _direct_search(bounds):
    """find_u1_u2 by direct integration at every candidate radius, O(n^3)."""
    cols = (bounds.edges[:-1], bounds.edges[1:], bounds.q_ub, bounds.grad_ub,
            bounds.eig_ub)
    segs = [SimpleNamespace(a=a, b=b, q_ub=q, grad_ub=g, eig_ub=e)
            for a, b, q, g, e in zip(*(c.tolist() for c in cols))]

    def curv(r):
        return sum(s.eig_ub * ((r - min(s.a, r)) ** 2 - (r - min(s.b, r)) ** 2)
                   / 2 for s in segs)

    def grad(lo, r):
        return sum(s.grad_ub * (min(max(s.b, lo), r) - min(max(s.a, lo), r))
                   for s in segs)

    last_ok = -1
    for s in segs:
        slope = sum(t.eig_ub * (min(t.b, s.a) - min(t.a, s.a)) for t in segs)
        rv = s.a - slope / s.eig_ub if s.eig_ub < 0 else s.a
        if (curv(s.a) > 0 or not curv(s.b) < 0
                or (s.a < rv < s.b and not curv(rv) < 0)):
            break
        last_ok += 1
    if last_ok < 0:
        return None, "no_negative_curvature"
    best_u1, best_u2 = None, -math.inf
    for i1 in range(last_ok, -1, -1):
        u1 = u2 = segs[i1].b
        for s in segs[i1 + 1:]:
            if not curv(u1) + grad(u1, s.b) < 0:
                break
            u2 = s.b
        if u2 > best_u2:
            best_u1, best_u2 = u1, u2
    if best_u2 <= best_u1:
        u1 = segs[last_ok].b
        if all(s.q_ub < 1.0 for s in segs if s.a >= u1):
            return u1, u1
        return None, "no_gradient_extension"
    return best_u1, best_u2


def test_find_u1_u2_matches_direct_integration():
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        n = 12
        eig = rng.uniform(-3, 1, n) + np.linspace(0, 2, n)
        grad = rng.uniform(-0.5, 1.5, n)
        segs = _mk(eig, grad, q_ub=float(rng.choice([0.5, 1.5])))
        got = find_u1_u2(segs)
        assert got == _direct_search(segs)
        outcomes.add(got[1] if got[0] is None else got[0] == got[1])
    # every exit of the search is reached
    assert outcomes == {"no_negative_curvature", "no_gradient_extension",
                        True, False}


def test_far_field_trivial():
    z = NormBounds(0, 0, 0, 0, 0, 0, 0, 0, 0)
    rep = schur_bounds(z)
    assert far_field_check(rep, z)
    big = NormBounds(1.2, 0, 0, 0, 0, 0, 0, 0, 0.2)
    rep = SchurReport((True, True, True), 1.0, 0.0, 0.0, 1.0)
    assert not far_field_check(rep, big)


def test_sweep_up_closed_short(cfg):
    grid = [4.6, 4.8, 5.0, 5.4, 5.8]
    out = recovery_sweep(grid, [K1], cfg)
    flags = [r.certified for r in out[K1]["reports"]]
    assert out[K1]["threshold"] is not None
    first = flags.index(True)
    assert all(flags[first:])


def _random_support(rng, n, delta, box):
    pts = []
    while len(pts) < n:
        p = rng.uniform(-box, box, 2)
        if all(np.hypot(*(p - q)) >= delta * 1.001 for q in pts):
            pts.append(p)
    return np.array(pts)


def test_certified_cell_has_no_sampled_counterexample(report):
    """|Q| < 1 off-support for sampled configurations in a certified cell."""
    assert report.certified
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        T = _random_support(rng, n, DELTA, 2 * DELTA)
        tau = rng.choice([-1.0, 1.0], n)
        cert = numeric_certificate(T, tau, ZETA,
                                   origin=rng.uniform(-ZETA / 2, ZETA / 2, 2))
        lo, hi = T.min() - 3, T.max() + 3
        xs = np.arange(lo, hi, 0.08)
        G = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        off = np.min(np.linalg.norm(G[:, None] - T[None], axis=-1), axis=1) > 0.02
        assert np.max(np.abs(cert.evaluate(G[off]))) < 1.0


def test_rotational_invariance_of_inputs(cfg, report):
    """All bounds are functions of radial distances only: rotating the spike
    configuration leaves the certificate report unchanged (it never sees
    angles at all), so identical inputs must reproduce it."""
    again = certify_cell(DELTA, K1, cfg)
    assert _same_report(again, report)
