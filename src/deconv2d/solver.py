"""Discretized l1-minimization deconvolution.

A sparse spike train is observed through a radial point-spread kernel on a
regular sample grid.  With candidate spike locations restricted to a known
finite set G, recovery is the linear program

    minimize ||a||_1  subject to  K a = y,

where K[i, j] = K(s_i - t_j).  It is solved with a first-order primal-dual
splitting (Chambolle-Pock): no external solver, and accurate enough at this
scale that recovery outcomes are decided by the geometry, not the optimizer.
A tall K is first reduced to the triangular factor of its thin QR, so each
iteration is an n x n product however many samples there are.

``recovery_trial`` wraps the whole loop: place spikes on a hexagonal
arrangement with separation delta, assemble K for samples at grid spacing
zeta, take the noiseless measurement y = K a_true (the true spikes are the
first candidates, so K is the only forward model), solve, and compare
against the ground truth at the 1e-3 l2 threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KERNELS, KernelModel, kernel_eval

# dense-matrix entry budget for assemble_operator (about 800 MB of float64)
MAX_ENTRIES = 10**8

RECOVERY_TOL = 1e-3  # l2 success threshold for exact-recovery trials
BP_TOL = 1e-9        # relative residual at which basis_pursuit stops


class BudgetExceeded(MemoryError):
    """Requested measurement matrix would exceed the dense-entry budget."""


class NotConverged(RuntimeError):
    """Solver hit the iteration cap."""


@dataclass(frozen=True)
class SampleGrid:
    """Regular square sampling lattice: origin + zeta * (p, q)."""

    origin: tuple
    zeta: float
    dims: tuple  # (S1, S2); p runs over S1 (x), q over S2 (y)

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def n_samples(self) -> int:
        return self.dims[0] * self.dims[1]

    def points(self) -> np.ndarray:
        """All sample locations, row-major in (q, p): shape (S1*S2, 2)."""
        s1, s2 = self.dims
        px = self.origin[0] + self.zeta * np.arange(s1)
        py = self.origin[1] + self.zeta * np.arange(s2)
        gx, gy = np.meshgrid(px, py)
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    @staticmethod
    def covering(points, zeta: float, margin: float) -> "SampleGrid":
        """Smallest grid at spacing zeta whose perimeter clears ``points``
        by at least ``margin`` on every side."""
        points = np.asarray(points, dtype=float)
        lo = points.min(axis=0) - margin
        hi = points.max(axis=0) + margin
        dims = tuple(int(math.ceil((hi[k] - lo[k]) / zeta)) + 1
                     for k in range(2))
        return SampleGrid((float(lo[0]), float(lo[1])), zeta, dims)


def assemble_operator(G, grid: SampleGrid, model: KernelModel) -> np.ndarray:
    """Dense measurement matrix K[i, j] = K(s_i - t_j), t_j in G (row-major
    candidate order)."""
    G = np.asarray(G, dtype=float).reshape(-1, 2)
    n_entries = grid.n_samples * len(G)
    if n_entries > MAX_ENTRIES:
        raise BudgetExceeded(
            f"{grid.n_samples} x {len(G)} = {n_entries} entries "
            f"(budget {MAX_ENTRIES})")
    s = grid.points()
    return kernel_eval(model, s[:, None, :] - G[None, :, :])


def operator_norm(K: np.ndarray) -> float:
    """Spectral norm (largest singular value) of K."""
    return float(np.linalg.norm(K, 2))


def _soft_threshold(x, t):
    """sign(x) max(|x| - t, 0), as x minus its clip to [-t, t]."""
    return x - np.minimum(np.maximum(x, -t), t)


def _primal_dual(K, y, tol, max_iters):
    """Chambolle-Pock loop for basis pursuit.

    F is the indicator of {y}, so the prox of sigma F* is a plain shift and
    the dual objective is -y.z.  Returns the iterate once primal
    feasibility ||K a - y|| <= tol * scale, dual feasibility
    ||K^T z||_inf <= 1 + 10 tol, and the duality-gap surrogate
    | ||a||_1 + y.z | <= tol-scale all hold.

    A tall K (m > n) runs on its thin QR instead: K = Q R with orthonormal
    columns in Q gives ||K a - y||^2 = ||R a - Q^T y||^2 + ||y - Q Q^T y||^2,
    K^T z = R^T (Q^T z) and ||R|| = ||K||, so the loop on (R, Q^T y) takes
    the same steps with n-vectors for z.  The part of y outside range(K)
    drops out of that loop, so the residual against the original (K, y) is
    part of the return test too.
    """
    K0, y0 = K, y
    scale = max(1.0, math.sqrt(y @ y))
    if K.shape[0] > K.shape[1]:
        Q, K = np.linalg.qr(K)
        y = Q.T @ y
    L = operator_norm(K)
    if L == 0.0:
        raise ValueError("zero operator: K a = y has no solution for y != 0")
    step = 0.99 / L
    step_y = step * y
    a = np.zeros(K.shape[1])
    a_bar = a.copy()
    z = np.zeros(K.shape[0])
    for it in range(max_iters):
        z = z + step * (K @ a_bar) - step_y
        Ktz = K.T @ z
        a_new = _soft_threshold(a - step * Ktz, step)
        a_bar = 2.0 * a_new - a
        a = a_new
        r = K @ a - y
        res = math.sqrt(r @ r)
        if it % 10 == 0 or res <= tol * scale:
            dual_inf = float(np.max(np.abs(Ktz)))
            gap = abs(float(np.sum(np.abs(a)) + float(y @ z)))
            if (res <= tol * scale and dual_inf <= 1.0 + 10.0 * tol
                    and gap <= tol * scale * max(1.0, dual_inf)
                    and np.linalg.norm(K0 @ a - y0) <= tol * scale):
                return a
    raise NotConverged(f"no convergence in {max_iters} iterations (last "
                       f"residual {np.linalg.norm(K0 @ a - y0):.3e})")


def basis_pursuit(K, y, max_iters: int = 10**5):
    """min ||a||_1 subject to K a = y (to residual BP_TOL * ||y||); a zero
    K with y != 0 admits no solution and raises ``ValueError``."""
    y = np.asarray(y, dtype=float)
    if float(np.linalg.norm(y)) == 0.0:
        return np.zeros(K.shape[1])
    return _primal_dual(K, y, BP_TOL, max_iters)


# -- exact-recovery trials ---------------------------------------------------

def hex_arrangement(n_spikes: int, delta: float) -> np.ndarray:
    """First ``n_spikes`` points of a hexagonal arrangement with nearest
    neighbors exactly delta apart: rows delta*sqrt(3)/2 apart, odd rows
    shifted by delta/2."""
    r, c = divmod(np.arange(n_spikes), int(math.ceil(math.sqrt(n_spikes))))
    x = np.where(r % 2 == 1, delta / 2.0, 0.0) + c * delta
    return np.stack([x, r * delta * math.sqrt(3.0) / 2.0], axis=1)


def candidate_grid(positions: np.ndarray, delta: float) -> np.ndarray:
    """True locations followed by a surrounding delta/2 square lattice.

    Lattice points closer than delta/4 to a true spike are dropped so the
    nearest competing atom is at least half a lattice step away, matching
    the on-grid setting (the hexagonal rows are incommensurate with a
    square lattice, so exact coincidence cannot be arranged).
    """
    h = delta / 2.0
    lo = positions.min(axis=0) - delta
    hi = positions.max(axis=0) + delta
    xs = lo[0] + h * np.arange(int(math.ceil((hi[0] - lo[0]) / h)) + 1)
    ys = lo[1] + h * np.arange(int(math.ceil((hi[1] - lo[1]) / h)) + 1)
    gx, gy = np.meshgrid(xs, ys)
    lat = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d = np.min(np.linalg.norm(lat[:, None] - positions[None], axis=-1), axis=1)
    return np.concatenate([positions, lat[d >= delta / 4.0]])


def _three_nearest_rows(grid: SampleGrid, positions: np.ndarray) -> np.ndarray:
    """Sample indices restricted to the three nearest samples per spike."""
    d = np.linalg.norm(grid.points()[:, None] - positions[None], axis=-1)
    return np.unique(np.argsort(d, axis=0)[:3])


def recovery_trial(delta: float, zeta: float, n_spikes: int, pattern: str,
                   seed: int,
                   model: KernelModel = KERNELS["gaussian"]) -> bool:
    """One seeded exact-recovery experiment; true iff ||a_hat - a|| < 1e-3.

    Spikes sit on a hexagonal arrangement with separation delta and standard
    Gaussian amplitudes; samples cover them with a margin of three kernel
    units.  ``pattern`` is ``full_grid`` or ``three_nearest`` (only the
    three samples nearest each spike are kept).  A solve that hits the
    iteration cap counts as an unsuccessful trial; an operator over the
    dense-entry budget raises ``BudgetExceeded``, since no trial ran.
    """
    if pattern not in ("full_grid", "three_nearest"):
        raise ValueError(f"unknown sampling pattern {pattern!r}")
    rng = np.random.default_rng(seed)
    positions = hex_arrangement(n_spikes, delta)
    grid = SampleGrid.covering(positions, zeta, 3.0 * model.unit)
    G = candidate_grid(positions, delta)
    a_true = np.zeros(len(G))
    a_true[:n_spikes] = rng.standard_normal(n_spikes)
    K = assemble_operator(G, grid, model)
    y = K @ a_true
    if pattern == "three_nearest":
        rows = _three_nearest_rows(grid, positions)
        K, y = K[rows], y[rows]
    try:
        a_hat = basis_pursuit(K, y)
    except NotConverged:
        return False
    return float(np.linalg.norm(a_hat - a_true)) < RECOVERY_TOL
