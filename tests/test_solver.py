import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial.distance import pdist

from conftest import phase_reference
from deconv2d import solver
from deconv2d.experiments import phase_diagram
from deconv2d.kernels import KERNELS, kernel_eval
from deconv2d.solver import (
    BP_TOL,
    CERT_MARGIN,
    BudgetExceeded,
    NotConverged,
    SampleGrid,
    _three_nearest_rows,
    assemble_operator,
    basis_pursuit,
    candidate_grid,
    dual_certificate,
    hex_arrangement,
    rank_tolerance,
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


def _wide_system():
    K = np.random.default_rng(3).standard_normal((8, 16))
    return K, K[:, 5] - 0.5 * K[:, 11]


def _trial_system(kernel, delta, pattern="full_grid"):
    """K, y and a_true of ``recovery_trial(delta, 0.5, 25, pattern, 0)`` in
    the units of ``kernel``."""
    model = KERNELS[kernel]
    delta *= model.unit
    pos = hex_arrangement(25, delta)
    grid = SampleGrid.covering(pos, 0.5 * model.unit, 3.0 * model.unit)
    G = candidate_grid(pos, delta)
    a_true = np.zeros(len(G))
    a_true[:25] = np.random.default_rng(0).standard_normal(25)
    K = assemble_operator(G, grid, model)
    if pattern == "three_nearest":
        K = K[_three_nearest_rows(grid, pos)]
    return K, K @ a_true, a_true


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
    assert not recovery_trial(0.75, 0.5, 25, "three_nearest", 0)


def _basic_solutions(K, y):
    """Every basic solution of K a = y: K_B a_B = y on each nonsingular
    m-column basis B, zero elsewhere."""
    m, n = K.shape
    for B in map(list, itertools.combinations(range(n), m)):
        if np.linalg.matrix_rank(K[:, B]) == m:
            a = np.zeros(n)
            a[B] = np.linalg.solve(K[:, B], y)
            yield a


def test_dual_certificate_matches_basic_solutions():
    """Brute force on small random systems (m = 4, n = 9, s = 2): the l1
    minimum of K a = y is attained at a basic solution, so t* < 1 means
    a_true beats every other one, and t* > 1 means some other one does at
    least as well.  Both verdicts occur."""
    seen = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((4, 9))
        a_true = np.zeros(9)
        a_true[:2] = rng.standard_normal(2)
        y = K @ a_true
        best = np.abs(a_true).sum()
        others = [np.abs(a).sum() for a in _basic_solutions(K, y)
                  if np.linalg.norm(a - a_true) > 1e-9]
        verdict = dual_certificate(K, np.sign(a_true[:2]), 2)
        if verdict is True:
            assert min(others) > best, seed
        else:
            assert verdict is False, seed
            assert min(others) <= best, seed
        seen.add(verdict)
    assert seen == {True, False}


def test_dual_certificate_rank_deficient_support():
    """Two equal support columns: a_S can move along K_S h = 0 without
    changing K a, so a_true is no unique minimizer."""
    K = np.random.default_rng(5).standard_normal((6, 9))
    K[:, 1] = K[:, 0]
    assert dual_certificate(K, np.array([1.0, 1.0]), 2) is False
    assert dual_certificate(K, np.array([1.0, -1.0]), 2) is False


@pytest.mark.parametrize("status, fun, verdict", [
    (1, 0.5, None),                       # time limit
    (4, 0.5, None),                       # numerical difficulties
    (0, 1.0 - CERT_MARGIN / 2, None),
    (0, 1.0 + CERT_MARGIN / 2, None),
    (0, 1.0 - 2 * CERT_MARGIN, True),
    (0, 1.0 + 2 * CERT_MARGIN, False)])
def test_dual_certificate_undecided(status, fun, verdict, monkeypatch):
    """A program that stops without an optimum, or a t* within the margin
    of 1, decides nothing."""
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **k: SimpleNamespace(status=status, fun=fun))
    K = np.random.default_rng(3).standard_normal((8, 16))
    assert dual_certificate(K, np.array([1.0, -1.0]), 2) is verdict


def _spy_certificate(monkeypatch, allowed=True):
    """Record the shape of K at each dual_certificate call of
    recovery_trial; ``allowed=False`` makes any call fail the test."""
    shapes = []
    real = solver.dual_certificate

    def spy(K, sign_S, s):
        assert allowed, "dual_certificate was called"
        shapes.append(K.shape)
        return real(K, sign_S, s)

    monkeypatch.setattr(solver, "dual_certificate", spy)
    return shapes


def test_well_posed_trials_are_decided_without_a_solve(monkeypatch):
    """Every benchmark trial, the capped one included, and the high sides
    of AC-7 and AC-9 read recovered from K's rank, with no certificate
    program."""
    _spy_certificate(monkeypatch, allowed=False)
    for key in phase_reference():
        kernel, delta, seed = key.rsplit("-", 2)
        (row,) = phase_diagram(kernel, [float(delta)], [0.5], 1, int(seed))
        assert row[5] == 1, key
    assert all(recovery_trial(2.0, 0.5, 25, "full_grid", s)
               for s in range(10))
    for kernel in ("microscopy", "airy"):
        (row,) = phase_diagram(kernel, [3.0], [0.5], trials=5, seed=909)
        assert row[6] == 1.0, kernel


@pytest.mark.parametrize("kernel, delta, pattern", [
    ("gaussian", 0.75, "full_grid"), ("microscopy", 0.75, "full_grid"),
    ("airy", 0.5, "full_grid"), ("gaussian", 3.0, "three_nearest"),
    ("airy", 3.0, "three_nearest")])
def test_ill_conditioned_or_wide_trials_are_solved(kernel, delta, pattern,
                                                    monkeypatch):
    """The ill-conditioned tall K on which PDHG hits its iteration cap
    still have full column rank, so the rank rule decides them; a wide K
    (three_nearest, however well separated) goes to the certificate
    program.  Each of these trials reads recovered."""
    shapes = _spy_certificate(monkeypatch)
    u = KERNELS[kernel].unit
    assert recovery_trial(delta * u, 0.5 * u, 25, pattern, 0,
                          model=KERNELS[kernel]) is True
    if pattern == "full_grid":
        assert shapes == []
    else:
        (shape,) = shapes
        assert shape[0] < shape[1]


@pytest.mark.parametrize("kernel, delta", [
    ("gaussian", 2.0), ("microscopy", 2.0), ("airy", 0.75)])
def test_bound_agrees_with_a_converged_solve(kernel, delta, monkeypatch):
    """Where the rank rule decides a trial, basis_pursuit converges to
    a_true, the only solution of K a = y."""
    K, y, a_true = _trial_system(kernel, delta)
    sv = np.linalg.svd(K, compute_uv=False)
    assert sv[-1] > rank_tolerance(sv, K.shape)
    assert np.linalg.norm(basis_pursuit(K, y) - a_true) < 5e-4
    _spy_certificate(monkeypatch, allowed=False)
    u = KERNELS[kernel].unit
    assert recovery_trial(delta * u, 0.5 * u, 25, "full_grid", 0,
                          model=KERNELS[kernel])


@pytest.mark.parametrize("kernel, delta", [
    ("gaussian", 3.0), ("airy", 3.0), ("microscopy", 2.0)])
def test_certificate_agrees_with_a_converged_solve(kernel, delta):
    """On a wide K (three_nearest), where the certificate program decides
    the trial, basis_pursuit lands on a_true too."""
    K, y, a_true = _trial_system(kernel, delta, "three_nearest")
    assert K.shape[0] < K.shape[1]
    assert dual_certificate(K, np.sign(a_true[:25]), 25) is True
    assert np.linalg.norm(basis_pursuit(K, y) - a_true) < 1e-6


def test_trial_capped_by_the_solver_reads_recovered():
    """The Gaussian delta = 1.5, master-seed-0 trial: PDHG hits its cap on
    it, but K has full column rank."""
    (row,) = phase_diagram("gaussian", [1.5], [0.5], 1, 0)
    assert row[5] == 1


def test_recovery_trial_determinism_and_pattern():
    """A certificate trial gives the same outcome twice, and two solves of
    one system, tall (the QR route) or wide, return the same amplitudes
    bit for bit."""
    a = recovery_trial(2.0, 0.5, 25, "three_nearest", 0)
    assert a and a == recovery_trial(2.0, 0.5, 25, "three_nearest", 0)
    for K, y in (_tall_system(), _wide_system()):
        assert basis_pursuit(K, y).tobytes() == basis_pursuit(K, y).tobytes()
    with pytest.raises(ValueError):
        recovery_trial(2.0, 0.5, 25, "diagonal", 0)
