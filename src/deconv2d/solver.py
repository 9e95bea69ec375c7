"""Discretized l1-minimization deconvolution.

A sparse spike train is observed through a radial point-spread kernel on a
regular sample grid.  With candidate spike locations restricted to a known
finite set G, recovery is the linear program

    minimize ||a||_1  subject to  K a = y,

where K[i, j] = K(s_i - t_j).  ``basis_pursuit`` solves it by Chambolle-Pock
for callers that want the amplitudes.

``recovery_trial`` runs one experiment: place spikes on a hexagonal
arrangement with separation delta, assemble K for samples at grid spacing
zeta, take the noiseless measurement y = K a_true (the true spikes are the
first candidates, so K is the only forward model), and decide whether
a_true is the unique l1 minimizer.  No solve decides that.  A tall K of
full column rank (one SVD, ``np.linalg.matrix_rank``'s tolerance) has
a_true as the only solution of K a = y.  Any other K is settled by the dual
certificate of Fuchs (IEEE Trans. IT 2004): one small linear program in
``dual_certificate``, which may also answer undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KERNELS, KernelModel, kernel_eval

# dense-matrix entry budget for assemble_operator (about 800 MB of float64)
MAX_ENTRIES = 10**8

BP_TOL = 1e-9  # relative residual at which basis_pursuit stops
# a certificate value t* within this distance of 1 decides nothing; well
# above the HiGHS feasibility tolerance of 1e-7
CERT_MARGIN = 1e-6
CERT_TIME_LIMIT = 10.0  # seconds one certificate LP may take


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


def rank_tolerance(sv, shape) -> float:
    """Singular values at or below this are round-off: the default
    tolerance of ``np.linalg.matrix_rank`` for a matrix of ``shape`` with
    singular values ``sv`` (descending)."""
    return sv[0] * max(shape) * np.finfo(float).eps


def basis_pursuit(K, y, max_iters: int = 10**5):
    """min ||a||_1 subject to K a = y, by the primal-dual algorithm of
    Chambolle and Pock (J. Math. Imaging Vis. 40, 2011).

    Returns a once ||K a - y|| <= atol = BP_TOL max(1, ||y||), ||K^T z||_inf
    <= 1 + 10 BP_TOL and | ||a||_1 + y.z | <= atol max(1, ||K^T z||_inf).  A
    tall K runs on the R of its thin QR, with Q^T y for y; the part of y
    outside range(K) drops out of that loop, so the return test also checks
    the residual against the original K and y.  A zero K with y != 0 admits
    no solution and raises ``ValueError``.
    """
    y = np.asarray(y, dtype=float)
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        return np.zeros(K.shape[1])
    atol = BP_TOL * max(1.0, norm_y)
    M, c = K, y
    if K.shape[0] > K.shape[1]:
        Q, M = np.linalg.qr(K)
        c = Q.T @ y
    L = np.linalg.norm(M, 2)
    if L == 0.0:
        raise ValueError("zero operator: K a = y has no solution for y != 0")
    step = 0.99 / L
    a = np.zeros(M.shape[1])
    a_bar = a
    z = np.zeros(M.shape[0])
    for it in range(max_iters):
        z += step * (M @ a_bar - c)
        g = M.T @ z
        x = a - step * g
        a_new = x - np.clip(x, -step, step)
        a_bar = 2.0 * a_new - a
        a = a_new
        res = np.linalg.norm(M @ a - c)
        if it % 10 == 0 or res <= atol:
            dual_inf = np.abs(g).max()
            gap = abs(np.abs(a).sum() + c @ z)
            if (res <= atol and dual_inf <= 1.0 + 10.0 * BP_TOL
                    and gap <= atol * max(1.0, dual_inf)
                    and np.linalg.norm(K @ a - y) <= atol):
                return a
    raise NotConverged(f"no convergence in {max_iters} iterations (last "
                       f"residual {np.linalg.norm(K @ a - y):.3e})")


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


def dual_certificate(K, sign_S, s: int) -> bool | None:
    """Whether the first ``s`` columns of K carry the unique l1 minimizer.

    With K_S the first s columns and K_off the rest, a_S of signs
    ``sign_S`` is the unique minimizer of ||a||_1 subject to K a = K_S a_S
    if K_S has full column rank and some z has K_S^T z = sign_S and
    ||K_off^T z||_inf < 1; if the least such norm t* exceeds 1, it is not a
    minimizer at all.  t* is one HiGHS linear program in (z, t).  Returns
    True or False, or None (undecided) when t* is within CERT_MARGIN of 1
    or the program stops without an optimum (time limit, numerical
    trouble).
    """
    from scipy.optimize import linprog

    K_S, K_off = K[:, :s], K[:, s:]
    if np.linalg.matrix_rank(K_S) < s:
        return False
    m, n_off = K_off.shape
    minus_t = -np.ones((n_off, 1))
    A_ub = np.block([[K_off.T, minus_t], [-K_off.T, minus_t]])
    A_eq = np.column_stack([K_S.T, np.zeros(s)])
    c = np.zeros(m + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * n_off), A_eq=A_eq,
                  b_eq=sign_S, bounds=[(None, None)] * m + [(0.0, None)],
                  method="highs", options={"time_limit": CERT_TIME_LIMIT})
    if res.status != 0:
        return None
    if res.fun < 1.0 - CERT_MARGIN:
        return True
    if res.fun > 1.0 + CERT_MARGIN:
        return False
    return None


def recovery_trial(delta: float, zeta: float, n_spikes: int, pattern: str,
                   seed: int,
                   model: KernelModel = KERNELS["gaussian"]) -> bool | None:
    """One seeded exact-recovery experiment: True iff a_true is the unique
    minimizer of ||a||_1 subject to K a = y, None if undecided.

    Spikes sit on a hexagonal arrangement with separation delta and standard
    Gaussian amplitudes; samples cover them with a margin of three kernel
    units.  ``pattern`` is ``full_grid`` or ``three_nearest`` (only the
    three samples nearest each spike are kept).  An operator over the
    dense-entry budget raises ``BudgetExceeded``, since no trial ran.

    A tall K (m >= n; ``full_grid`` at every setting checked) whose
    smallest singular value clears ``rank_tolerance`` has full column rank,
    so a_true is the only solution of K a = y and reads recovered.  Every
    other trial (a wide K, as ``three_nearest`` gives, or a numerically
    rank-deficient one) is decided by ``dual_certificate`` on the true
    support and signs.  No trial runs ``basis_pursuit``.
    """
    if pattern not in ("full_grid", "three_nearest"):
        raise ValueError(f"unknown sampling pattern {pattern!r}")
    rng = np.random.default_rng(seed)
    positions = hex_arrangement(n_spikes, delta)
    grid = SampleGrid.covering(positions, zeta, 3.0 * model.unit)
    G = candidate_grid(positions, delta)
    a_true = rng.standard_normal(n_spikes)
    K = assemble_operator(G, grid, model)
    if pattern == "three_nearest":
        K = K[_three_nearest_rows(grid, positions)]
    m, n = K.shape
    if m >= n:
        sv = np.linalg.svd(K, compute_uv=False)
        if sv[-1] > rank_tolerance(sv, K.shape):
            return True
    return dual_certificate(K, np.sign(a_true), n_spikes)
