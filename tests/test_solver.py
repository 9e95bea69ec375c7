import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from deconv2d.kernels import KERNELS, kernel_eval
from deconv2d.solver import (
    BP_TOL,
    BudgetExceeded,
    NotConverged,
    SampleGrid,
    _three_nearest_rows,
    assemble_operator,
    basis_pursuit,
    candidate_grid,
    hex_arrangement,
    operator_norm,
    recovery_trial,
)

GAUSS = KERNELS["gaussian"]


def test_sample_grid_points():
    g = SampleGrid((1.0, -1.0), 0.5, (3, 2))
    p = g.points()
    assert g.n_samples == 6 and p.shape == (6, 2)
    # row-major: x varies fastest
    assert np.allclose(p[0], [1.0, -1.0])
    assert np.allclose(p[1], [1.5, -1.0])
    assert np.allclose(p[3], [1.0, -0.5])
    with pytest.raises(ValueError):
        SampleGrid((0, 0), 0.0, (2, 2))


def test_sample_grid_covering_margin():
    pts = np.array([[0.0, 0.0], [4.0, 2.0]])
    g = SampleGrid.covering(pts, 0.5, 3.0)
    samples = g.points()
    assert samples[:, 0].min() <= -3.0 and samples[:, 0].max() >= 7.0
    assert samples[:, 1].min() <= -3.0 and samples[:, 1].max() >= 5.0


def test_operator_entries_and_synthesis_oracle():
    rng = np.random.default_rng(0)
    G = rng.uniform(-2, 2, (7, 2))
    g = SampleGrid((-4.0, -4.0), 0.8, (11, 11))
    K = assemble_operator(G, g, GAUSS)
    assert K.shape == (121, 7)
    # entry-by-entry against the kernel
    s = g.points()
    for i in (0, 60, 120):
        for j in range(7):
            assert K[i, j] == pytest.approx(
                float(kernel_eval(GAUSS, s[i] - G[j])), rel=1e-14)
    # K a against a per-spike sum of kernel columns
    a = rng.normal(size=7)
    y = sum(a[j] * kernel_eval(GAUSS, s - G[j]) for j in range(7))
    assert np.allclose(K @ a, y, atol=1e-13)


def test_operator_spike_on_sample():
    g = SampleGrid((0.0, 0.0), 1.0, (4, 4))
    K = assemble_operator([[2.0, 3.0]], g, GAUSS)
    col = K[:, 0]
    assert col.max() == 1.0
    assert np.argmax(col) == 3 * 4 + 2  # row-major index of (2, 3)


def test_operator_duplicate_columns_and_budget():
    g = SampleGrid((0.0, 0.0), 1.0, (5, 5))
    K = assemble_operator([[1.0, 1.0], [1.0, 1.0]], g, GAUSS)
    assert np.array_equal(K[:, 0], K[:, 1])
    big = SampleGrid((0.0, 0.0), 1.0, (10**5, 10**5))
    with pytest.raises(BudgetExceeded):
        assemble_operator([[0.0, 0.0]] * 20, big, GAUSS)


def test_operator_norm_zero_and_rank_one():
    """||u v^T|| = ||u|| ||v||; the zero matrix (the L == 0 branch of the
    solver) has norm exactly 0."""
    rng = np.random.default_rng(1)
    for _ in range(10):
        u, v = rng.normal(size=12), rng.normal(size=8)
        assert operator_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    assert operator_norm(np.zeros((4, 3))) == 0.0


def _grid_and_operator(positions, zeta=0.5):
    positions = np.asarray(positions, dtype=float)
    g = SampleGrid.covering(positions, zeta, 3.0)
    return g, assemble_operator(positions, g, GAUSS)


def test_basis_pursuit_zero_and_single_atom():
    g, K = _grid_and_operator([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(basis_pursuit(K, np.zeros(K.shape[0])), np.zeros(3))
    y = -2.3 * K[:, 1]
    a = basis_pursuit(K, y)
    assert a[1] == pytest.approx(-2.3, abs=1e-7)
    assert abs(a[0]) < 1e-6 and abs(a[2]) < 1e-6


def test_basis_pursuit_zero_operator_has_no_solution():
    """K = 0 with y != 0: no a meets K a = y, so the zero vector is no
    answer.  It is a bad input (ValueError), not a solve that failed to
    converge (NotConverged is a RuntimeError)."""
    with pytest.raises(ValueError, match="no solution"):
        basis_pursuit(np.zeros((3, 2)), [1.0, 0.0, 0.0])
    assert np.array_equal(basis_pursuit(np.zeros((3, 2)), np.zeros(3)),
                          np.zeros(2))


def test_basis_pursuit_multi_spike_oracle():
    rng = np.random.default_rng(7)
    pos = hex_arrangement(9, 2.5)
    g, K = _grid_and_operator(pos)
    a_true = rng.standard_normal(9)
    y = K @ a_true
    a = basis_pursuit(K, y)
    # least squares on the true support is the exact-recovery oracle
    ls = np.linalg.lstsq(K, y, rcond=None)[0]
    assert np.linalg.norm(a - ls) < 1e-6
    assert np.linalg.norm(a - a_true) < 1e-6
    # objective sandwich
    assert np.sum(np.abs(a)) <= np.sum(np.abs(a_true)) + 1e-6


def test_basis_pursuit_dual_feasibility():
    pos = hex_arrangement(4, 3.0)
    g = SampleGrid.covering(pos, 0.5, 3.0)
    G = candidate_grid(pos, 3.0)
    K = assemble_operator(G, g, GAUSS)
    a_true = np.zeros(len(G))
    a_true[:4] = [1.0, -1.0, 0.5, 2.0]
    a = basis_pursuit(K, K @ a_true)
    assert np.linalg.norm(a - a_true) < 1e-6


def test_basis_pursuit_not_converged():
    # y outside the range space: the equality can never be met
    K = np.ones((2, 1))
    with pytest.raises(NotConverged):
        basis_pursuit(K, np.array([1.0, -1.0]), max_iters=300)


def test_basis_pursuit_no_iterations():
    """A zero cap leaves a = 0, whose residual is ||y||: not converged."""
    g, K = _grid_and_operator([[0.0, 0.0], [4.0, 0.0]])
    with pytest.raises(NotConverged, match="0 iterations"):
        basis_pursuit(K, K[:, 0], max_iters=0)


def _tall_system():
    rng = np.random.default_rng(21)
    K = rng.standard_normal((40, 10))
    a_true = np.zeros(10)
    a_true[[1, 4, 7]] = [1.5, -0.8, 2.0]
    return K, K @ a_true


def test_basis_pursuit_tall_operator_residual():
    """A tall K is solved on its thin QR; the answer meets K a = y for the
    original K, not only for the reduced system."""
    K, y = _tall_system()
    a = basis_pursuit(K, y)
    assert np.linalg.norm(K @ a - y) <= BP_TOL * max(1.0, np.linalg.norm(y))


def test_basis_pursuit_tall_operator_out_of_range():
    """y moved off range(K) by 1e-6 ||y||: Q^T y is unchanged, so the
    reduced system is still solvable, but K a = y is not."""
    K, y = _tall_system()
    Q = np.linalg.qr(K, mode="complete")[0]
    off = Q[:, -1]  # orthogonal to range(K)
    y_off = y + 1e-6 * np.linalg.norm(y) * off
    with pytest.raises(NotConverged):
        basis_pursuit(K, y_off, max_iters=300)


def test_hex_arrangement_geometry():
    pts = hex_arrangement(25, 2.0)
    assert pts.shape == (25, 2)
    assert pdist(pts).min() == pytest.approx(2.0)
    # odd rows are offset by half a separation
    assert pts[5, 0] - pts[0, 0] == pytest.approx(1.0)


def _hex_arrangement_loop(n_spikes, delta):
    """Row-by-row reference for hex_arrangement."""
    cols = int(math.ceil(math.sqrt(n_spikes)))
    pts = []
    r = 0
    while len(pts) < n_spikes:
        y = r * delta * math.sqrt(3.0) / 2.0
        x0 = (delta / 2.0) if r % 2 else 0.0
        for c in range(cols):
            pts.append((x0 + c * delta, y))
            if len(pts) == n_spikes:
                break
        r += 1
    return np.asarray(pts)


def _three_nearest_rows_loop(grid, positions):
    """Spike-by-spike reference for _three_nearest_rows."""
    s = grid.points()
    keep = set()
    for t in positions:
        d = np.linalg.norm(s - t, axis=1)
        keep.update(np.argsort(d)[:3].tolist())
    return np.array(sorted(keep))


def test_trial_geometry_matches_loops():
    """The array forms of the trial geometry reproduce the loops bit for
    bit, including the odd-row offsets and ties in the nearest samples."""
    for n in (1, 2, 3, 4, 9, 10, 24, 25, 26, 49):
        for delta in (0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0):
            pos = hex_arrangement(n, delta)
            ref = _hex_arrangement_loop(n, delta)
            assert pos.dtype == ref.dtype and pos.shape == (n, 2)
            assert pos.tobytes() == ref.tobytes(), (n, delta)
            for zeta in (0.4, 0.5, 0.7, 1.0):
                grid = SampleGrid.covering(pos, zeta, 3.0)
                rows = _three_nearest_rows(grid, pos)
                ref = _three_nearest_rows_loop(grid, pos)
                assert rows.dtype == ref.dtype
                assert np.array_equal(rows, ref), (n, delta, zeta)


def test_candidate_grid_contains_spikes_first():
    pos = hex_arrangement(9, 2.0)
    G = candidate_grid(pos, 2.0)
    assert np.array_equal(G[:9], pos)
    # no competing atom closer than a quarter separation to a spike
    d = np.linalg.norm(G[9:, None] - pos[None], axis=-1).min()
    assert d >= 0.5


def test_recovery_trial_theorem_regime():
    assert all(recovery_trial(2.0, 0.5, 25, "full_grid", s)
               for s in range(3))


def test_recovery_trial_ill_posed():
    assert not recovery_trial(0.75, 0.5, 25, "full_grid", 0)


def test_recovery_trial_determinism_and_pattern():
    a = recovery_trial(1.6, 0.5, 25, "three_nearest", 4)
    b = recovery_trial(1.6, 0.5, 25, "three_nearest", 4)
    assert a == b
    with pytest.raises(ValueError):
        recovery_trial(2.0, 0.5, 25, "diagonal", 0)
