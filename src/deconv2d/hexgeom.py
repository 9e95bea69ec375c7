"""Hexagonal partition of the plane and the cell distances the certifier uses.

Cells are flat-top regular hexagons of side Delta/2 (diameter Delta, so each
cell holds at most one spike), centered on the axial lattice
e1 = (3Delta/4, sqrt(3)Delta/4), e2 = (0, sqrt(3)Delta/2), with one vertex of
the central cell on the positive x axis.  Layer l is the axial ring at
distance l; it holds 6l cells and the partition keeps layers 1..8 (216 cells),
everything further away being controlled by closed-form tail bounds.

One routine measures distances: segment to cell, with stacked cell
vertices of shape (..., 6, 2), counterclockwise, broadcast over the leading
axes; only the six hexagon edges are looped over.  The constrained distance
d_U of a cell is its point case (a zero-length segment at the origin).

The partition and every distance on it scale with Delta, so the certifier's
two tables are computed once at Delta = 1 and dilated by Delta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQ3 = math.sqrt(3.0)
# envelope.EPS_B / EPS_W bound exactly the layers from 9 on, so any other
# number of kept layers would either miss a layer or count one twice
LAYERS = 8


@dataclass(frozen=True)
class HexPartition:
    """The 216 cells by layer, then by angle of the center."""

    centers: np.ndarray   # (216, 2)
    layers: np.ndarray    # (216,), the axial ring of each cell
    vertices: np.ndarray  # (216, 6, 2), counterclockwise


def build_partition(delta: float) -> HexPartition:
    s = delta / 2.0
    e1 = np.array([1.5 * s, SQ3 * s / 2.0])
    e2 = np.array([0.0, SQ3 * s])
    q, r = (g.ravel() for g in np.mgrid[-LAYERS:LAYERS + 1, -LAYERS:LAYERS + 1])
    ring = (np.abs(q) + np.abs(r) + np.abs(q + r)) // 2
    keep = (ring >= 1) & (ring <= LAYERS)
    q, r, ring = q[keep], r[keep], ring[keep]
    centers = q[:, None] * e1 + r[:, None] * e2
    order = np.lexsort((np.arctan2(centers[:, 1], centers[:, 0]), ring))
    centers, ring = centers[order], ring[order]
    ang = np.arange(6) * (math.pi / 3.0)
    vertices = centers[:, None, :] + s * np.stack([np.cos(ang), np.sin(ang)],
                                                  axis=1)
    return HexPartition(centers, ring, vertices)


# -- elementary distances, broadcast over points, segments and cells --------

def _edges(vertices):
    """Start and end points of each hexagon edge: four (..., 6) arrays."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=-2)
    return v[..., 0], v[..., 1], w[..., 0], w[..., 1]


def _pt_seg_dist(px, py, ax, ay, bx, by):
    abx, aby = bx - ax, by - ay
    t = (px - ax) * abx + (py - ay) * aby
    den = abx * abx + aby * aby
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(den == 0, 0.0, np.clip(t / den, 0.0, 1.0))
    return np.hypot(px - (ax + t * abx), py - (ay + t * aby))


def _orient(ax, ay, bx, by, cx, cy):
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(np.abs(v) < 1e-14, 0.0, np.sign(v))


def _inside(px, py, edges):
    """Whether the points lie in the convex counterclockwise polygons."""
    ax, ay, bx, by = edges
    ok = True
    for i in range(ax.shape[-1]):
        cross = ((bx[..., i] - ax[..., i]) * (py - ay[..., i])
                 - (by[..., i] - ay[..., i]) * (px - ax[..., i]))
        ok = ok & (cross >= -1e-12)
    return ok


# -- the segment-to-cell distance -------------------------------------------

def segment_cell_distance(a, b, vertices) -> np.ndarray:
    """Exact distance between [a, b] x {0}, 0 <= a <= b, and each (convex)
    hexagon.

    ``a`` and ``b`` broadcast against the leading axes of ``vertices``: pass
    column vectors of edges and a (cells, 6, 2) stack for a segment-by-cell
    table.
    """
    edges = _edges(vertices)
    ax, ay, bx, by = edges
    dist = np.inf
    for i in range(ax.shape[-1]):
        px, py, qx, qy = ax[..., i], ay[..., i], bx[..., i], by[..., i]
        crossing = ((_orient(a, 0.0, b, 0.0, px, py)
                     != _orient(a, 0.0, b, 0.0, qx, qy))
                    & (_orient(px, py, qx, qy, a, 0.0)
                       != _orient(px, py, qx, qy, b, 0.0)))
        near = np.minimum(
            np.minimum(_pt_seg_dist(a, 0.0, px, py, qx, qy),
                       _pt_seg_dist(b, 0.0, px, py, qx, qy)),
            np.minimum(_pt_seg_dist(px, py, a, 0.0, b, 0.0),
                       _pt_seg_dist(qx, qy, a, 0.0, b, 0.0)))
        dist = np.minimum(dist, np.where(crossing, 0.0, near))
    ends_inside = _inside(a, 0.0, edges) | _inside(b, 0.0, edges)
    return np.where(ends_inside, 0.0, dist)


# -- the certifier's tables: computed at Delta = 1, dilated ----------------

@functools.cache
def _unit_vertices() -> np.ndarray:
    return build_partition(1.0).vertices


@functools.cache
def _unit_d_U() -> np.ndarray:
    return np.maximum(segment_cell_distance(0.0, 0.0, _unit_vertices()), 1.0)


@functools.cache
def _unit_segment_distances(n: int) -> np.ndarray:
    i = np.arange(n)[:, None]
    return segment_cell_distance(i / n, (i + 1) / n, _unit_vertices())


def cell_distances(delta: float) -> np.ndarray:
    """d_U = inf{|x| : x in U, |x| >= Delta} of each of the 216 cells U of
    the partition at Delta (every cell reaches out to radius Delta)."""
    return _unit_d_U() * delta


def segment_distances(delta: float, n: int) -> np.ndarray:
    """(n, 216): from [i, i + 1] Delta / n x {0} to each cell at Delta."""
    return _unit_segment_distances(n) * delta
