import math

import numpy as np
import pytest

from deconv2d.hexgeom import (
    build_partition,
    cell_distances,
    segment_cell_distance,
    segment_distances,
)

DELTA = 4.5


@pytest.fixture(scope="module")
def part():
    return build_partition(DELTA)


def point_in_poly_vec(pts, vertices):
    ok = np.ones(len(pts), dtype=bool)
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        ok &= cr >= -1e-12
    return ok


def sample_in_cell(rng, center, vertices, n):
    """n uniform points of the cell, by rejection from its bounding square."""
    out = []
    while len(out) < n:
        p = center + rng.uniform(-DELTA / 2, DELTA / 2, (n, 2))
        out.extend(p[point_in_poly_vec(p, vertices)])
    return np.array(out[:n])


# -- scalar per-pair oracle: one point, segment or cell at a time -----------

def _pt_seg(p, a, b):
    ab = b - a
    den = float(np.dot(ab, ab))
    t = 0.0 if den == 0 else min(max(float(np.dot(p - a, ab)) / den, 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * ab))))


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)


def _hex_edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)])
            for i in range(len(vertices))]


def _in_poly(p, vertices):
    return all((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
               >= -1e-12 for a, b in _hex_edges(vertices))


def oracle_segment_cell_distance(a, b, vertices):
    p1, p2 = np.array([a, 0.0]), np.array([b, 0.0])
    if _in_poly(p1, vertices) or _in_poly(p2, vertices):
        return 0.0
    best = math.inf
    for p3, p4 in _hex_edges(vertices):
        if (_orient(p1, p2, p3) != _orient(p1, p2, p4)
                and _orient(p3, p4, p1) != _orient(p3, p4, p2)):
            return 0.0
        best = min(best, _pt_seg(p1, p3, p4), _pt_seg(p2, p3, p4),
                   _pt_seg(p3, p1, p2), _pt_seg(p4, p1, p2))
    return best


def oracle_d_U(vertices, delta):
    origin = np.zeros(2)
    if _in_poly(origin, vertices):
        return delta
    return max(min(_pt_seg(origin, a, b) for a, b in _hex_edges(vertices)),
               delta)


def clamped_point_distance(vertices, delta):
    """d_U by direct geometry at Delta: the zero-length segment at the
    origin, clamped at Delta (what ``cell_distances`` dilates from 1)."""
    return np.maximum(segment_cell_distance(0.0, 0.0, vertices), delta)


def test_array_geometry_matches_scalar_oracle():
    """Separately rounded products in place of the oracle's np.dot (fused
    where BLAS uses FMA) move a distance by a few ulps at most."""
    delta = 5.749999999999994      # from the CLI's unrounded Delta grid
    p = build_partition(delta)
    rng = np.random.default_rng(4)
    ab = np.sort(rng.uniform(0, delta, (40, 2)), axis=1)
    ab[0] = (0.0, delta / 100)     # the first certifier segment
    ab[1] = (delta / 2, delta / 2)  # a point
    ab[2] = (0.99 * delta, delta)  # the last one
    got = segment_cell_distance(ab[:, :1], ab[:, 1:], p.vertices)
    want = [[oracle_segment_cell_distance(a, b, v) for v in p.vertices]
            for a, b in ab]
    assert got.shape == (40, 216)
    assert 0 < np.count_nonzero(got) < got.size
    tol = 8 * np.finfo(float).eps
    np.testing.assert_allclose(got, want, rtol=tol, atol=0)
    np.testing.assert_allclose(
        clamped_point_distance(p.vertices, delta),
        [oracle_d_U(v, delta) for v in p.vertices], rtol=tol, atol=0)


def test_layer_counts(part):
    layers, counts = np.unique(part.layers, return_counts=True)
    assert dict(zip(layers.tolist(), counts.tolist())) == {
        l: 6 * l for l in range(1, 9)}
    assert np.all(np.diff(part.layers) >= 0)
    assert part.centers.shape == (216, 2) and part.layers.shape == (216,)
    assert part.vertices.shape == (216, 6, 2)
    # a regular hexagon's vertices average to its center
    np.testing.assert_allclose(part.vertices.mean(axis=1), part.centers,
                               atol=1e-12)


def test_cell_diameter(part):
    rng = np.random.default_rng(0)
    for c, v in zip(part.centers[:20], part.vertices[:20]):
        # random pairs inside the hexagon stay within delta
        pts = sample_in_cell(rng, c, v, 50)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        assert d.max() < DELTA + 1e-9
    for v in part.vertices:
        vd = np.linalg.norm(v[:, None] - v[None, :], axis=-1)
        assert abs(vd.max() - DELTA) < 1e-12


def test_dilation():
    p1 = build_partition(1.0)
    p2 = build_partition(2.0)
    assert np.allclose(2 * p1.centers, p2.centers)
    assert np.allclose(2 * p1.vertices, p2.vertices)
    assert np.array_equal(p1.layers, p2.layers)


def test_tiling_unique_cover(part):
    """Random points lie in at most one cell of the tiling; only the central
    hexagon, which the partition leaves out, is uncovered."""
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.2 * DELTA, 2.2 * DELTA, (10**4, 2))
    hits = np.zeros(len(pts), dtype=int)
    for c, v in zip(part.centers, part.vertices):
        shrunk = c + (1 - 1e-9) * (v - c)
        hits += point_in_poly_vec(pts, shrunk)
    assert hits.max() <= 1
    assert np.count_nonzero(hits == 1) > 5000


def test_d_U_layer1_clamps(part):
    layer1 = cell_distances(DELTA)[part.layers == 1]
    assert len(layer1) == 6
    assert np.all(layer1 == DELTA)


def test_d_U_brute_force(part):
    rng = np.random.default_rng(2)
    keep = np.isin(part.layers, (1, 3, 8))
    for c, v, val in zip(part.centers[keep], part.vertices[keep],
                         cell_distances(DELTA)[keep]):
        # brute-force the constrained min norm by dense sampling
        samp = sample_in_cell(rng, c, v, 4000)
        norms = np.hypot(samp[:, 0], samp[:, 1])
        norms = norms[norms >= DELTA]
        if len(norms):
            assert val <= norms.min() + 1e-9
            assert val >= norms.min() - 0.05 * DELTA  # oracle resolution
    # layer-3 nearest cell obeys the layer bound
    l3 = np.flatnonzero(part.layers == 3)
    l3 = l3[np.argmin(np.hypot(*part.centers[l3].T))]
    assert cell_distances(DELTA)[l3] >= (3 * 3 - 2) * DELTA / 4 - 1e-9


def test_d_U_scales():
    """Distances scale with Delta, so the certifier's tables (computed at
    Delta = 1 and dilated) match direct geometry at each AC-5 Delta.
    Measured there: ``d_U`` within 1.99 eps relative; segment distances
    zero on the same pairs and otherwise within 14.1 eps * Delta absolute
    (relative error grows on the near-zero ones)."""
    pa, pb = build_partition(3.0), build_partition(6.0)
    assert np.all(np.abs(2 * clamped_point_distance(pa.vertices, 3.0)
                         - clamped_point_distance(pb.vertices, 6.0)) < 1e-9)
    eps = np.finfo(float).eps
    n = 100
    for delta in np.round(np.arange(4.0, 6.0 + 1e-9, 0.05), 2):
        p = build_partition(delta)
        np.testing.assert_allclose(cell_distances(delta),
                                   clamped_point_distance(p.vertices, delta),
                                   rtol=2 * eps, atol=0)
        edges = np.append(np.arange(n) * delta / n, delta)
        direct = segment_cell_distance(edges[:-1, None], edges[1:, None],
                                       p.vertices)
        dilated = segment_distances(delta, n)
        assert np.array_equal(dilated == 0, direct == 0), delta
        np.testing.assert_allclose(dilated, direct, rtol=0,
                                   atol=16 * eps * delta)


def test_segment_cell_distance(part):
    rng = np.random.default_rng(3)
    # inside: a segment through a cell crossing the x axis
    cx, cy = part.centers.T
    on_axis = np.flatnonzero((np.abs(cy) < 1e-9) & (cx > 0))
    c0 = on_axis[np.argmin(cx[on_axis])]
    a = cx[c0] - 0.1
    b = cx[c0] + 0.1
    assert segment_cell_distance(a, b, part.vertices[c0]) == 0.0
    # both ends outside, passing through: the axis meets the partition's
    # cells only at vertices and along edges, so take a pointy-top hexagon
    ang = math.pi / 6 + np.arange(6) * (math.pi / 3)
    pointy = np.stack([3 + np.cos(ang), np.sin(ang)], axis=1)
    assert segment_cell_distance(1.0, 5.0, pointy) == 0.0
    assert oracle_segment_cell_distance(1.0, 5.0, pointy) == 0.0
    assert segment_cell_distance(0.5, 1.5, pointy) == pytest.approx(
        1.5 - math.cos(math.pi / 6))
    # oracle: dense point pairs
    for c, v in zip(part.centers[::17], part.vertices[::17]):
        a, b = sorted(rng.uniform(0, DELTA, 2))
        d = segment_cell_distance(a, b, v)
        xs = np.linspace(a, b, 200)
        seg = np.stack([xs, np.zeros_like(xs)], axis=1)
        pts = sample_in_cell(rng, c, v, 2000)
        brute = np.min(np.linalg.norm(seg[:, None] - pts[None], axis=-1))
        assert d <= brute + 1e-9
        assert d >= brute - 0.1 * DELTA
    # symmetry across the x axis
    for i in range(0, len(part.centers), 13):
        mirror = next(m for m in range(len(part.centers)) if np.allclose(
            part.centers[m], part.centers[i] * [1.0, -1.0]))
        assert abs(segment_cell_distance(0.3, 1.7, part.vertices[i])
                   - segment_cell_distance(0.3, 1.7, part.vertices[mirror])
                   ) < 1e-12
