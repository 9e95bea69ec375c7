import numpy as np
import pytest

from deconv2d.bumpwave import (
    DegenerateSamples,
    bw_coefficients,
    gaussians,
    nearest_samples,
)

B, W1, W2 = range(3)    # columns of the coefficient matrix


def bw_eval(samples, mat, kind, t):
    """Value at t of one spike's bump or wave (t may be (..., 2))."""
    return gaussians(samples, t)[1] @ mat[:, kind]


def bw_grad(samples, mat, kind, t):
    """Gradient at t: sum_i c_i (s_i - t) e^{-|s_i - t|^2/2}."""
    d, g = gaussians(samples, t)
    return np.sum((g * mat[:, kind])[..., None] * d, axis=-2)


def coefficients(t, samples):
    """The (3, 3) coefficient matrix of one spike."""
    return bw_coefficients(t[None], samples[None])[0]


def bw_hessian(samples, mat, kind, t):
    """Exact 2x2 Hessian at t: the oracle for the bound below."""
    c = mat[:, kind]
    d, g = gaussians(samples, t)
    H = np.zeros(np.shape(t)[:-1] + (2, 2))
    eye = np.eye(2)
    for i in range(3):
        di = d[..., i, :]
        outer = di[..., :, None] * di[..., None, :]
        H += c[i] * (outer - eye) * g[..., i, None, None]
    return H


def bw_hessian_quadform_bound(samples, mat, kind, t):
    """Upper bound on |v^T H v| over unit v: per-Gaussian eigenvalue sum
    sum_i |c_i| max(|s_i - t|^2 - 1, 1) e^{-|s_i - t|^2/2}, the pointwise
    form of the envelopes' eig_abs kinds."""
    c = mat[:, kind]
    d, g = gaussians(samples, t)
    n2 = np.sum(d * d, axis=-1)
    return np.sum(np.abs(c) * np.maximum(n2 - 1.0, 1.0) * g, axis=-1)


def random_config(rng, zeta=None):
    """(t, its three samples, zeta) for a random spike and grid origin."""
    if zeta is None:
        zeta = rng.uniform(0.1, 0.9)
    origin = rng.uniform(-1, 1, size=2)
    t = rng.uniform(-5, 5, size=2)
    return t, nearest_samples(t, zeta, origin)[0], zeta


def cross_products(t, samples):
    s = samples - t

    def cr(a, b):
        return a[0] * b[1] - a[1] * b[0]

    return np.array([cr(s[1], s[2]), cr(s[2], s[0]), cr(s[0], s[1])])


def linear_solve_oracle(t, samples):
    """Independent route: solve the 3x3 interpolation system directly."""
    d = samples - t  # s_i - t
    g = np.exp(-0.5 * np.sum(d * d, axis=1))
    # rows: value, d/dx, d/dy of sum_i c_i e^{-|s_i-t'|^2/2} at t'=t
    A = np.stack([g, d[:, 0] * g, d[:, 1] * g])
    rhs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return np.linalg.solve(A, rhs)


def test_spec_example_spike_on_sample():
    z = 0.4
    samples = np.array([[0.0, 0.0], [z, 0.0], [0.0, z]])
    m = coefficients(np.zeros(2), samples)
    e = np.exp(z * z / 2)
    expect = np.array([
        [1.0, -1 / z, -1 / z],
        [0.0, e / z, 0.0],
        [0.0, 0.0, e / z],
    ])
    assert np.allclose(m, expect, atol=1e-14)


def test_cross_product_lemma():
    rng = np.random.default_rng(0)
    for _ in range(500):
        t, s, zeta = random_config(rng)
        D = cross_products(t, s)
        Ds = D.sum()
        assert abs(abs(Ds) - zeta**2) < 1e-12 * zeta**2
        ratios = D / Ds
        assert np.all(ratios >= -1e-12) and np.all(ratios <= 1 + 1e-12)


def test_interpolation_identities():
    rng = np.random.default_rng(1)
    for _ in range(500):
        t, s, _ = random_config(rng)
        m = coefficients(t, s)
        assert abs(bw_eval(s, m, B, t) - 1.0) < 1e-9
        assert np.max(np.abs(bw_grad(s, m, B, t))) < 1e-9
        for kind, grad in ((W1, [1, 0]), (W2, [0, 1])):
            assert abs(bw_eval(s, m, kind, t)) < 1e-9
            assert np.max(np.abs(bw_grad(s, m, kind, t) - grad)) < 1e-9


def test_closed_form_matches_linear_solve():
    rng = np.random.default_rng(2)
    for _ in range(300):
        t, s, _ = random_config(rng, zeta=0.5)
        m = coefficients(t, s)
        o = linear_solve_oracle(t, s)
        assert np.max(np.abs(m - o)) < 1e-10 * max(1.0, np.max(np.abs(o)))


def test_batch_matches_one_spike_at_a_time():
    """n spikes at once give each spike's own samples and coefficients."""
    rng = np.random.default_rng(9)
    zeta, origin = 0.37, rng.uniform(-1, 1, 2)
    T = rng.uniform(-5, 5, (40, 2))
    samples = nearest_samples(T, zeta, origin)
    mat = bw_coefficients(T, samples)
    assert samples.shape == (40, 3, 2) and mat.shape == (40, 3, 3)
    for t, s, m in zip(T, samples, mat):
        one = nearest_samples(t, zeta, origin)[0]
        assert np.array_equal(s, one)
        assert np.array_equal(m, coefficients(t, one))


def test_bump_coefficients_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(500):
        t, s, _ = random_config(rng)
        assert np.all(coefficients(t, s)[:, B] >= -1e-12)


def test_wave_zero_structure():
    """On axis-aligned triangles each wave uses only two of the Gaussians."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = coefficients(*random_config(rng)[:2])
        assert min(abs(m[1, 1]), abs(m[2, 1])) < 1e-13 * max(1, np.max(np.abs(m)))
        assert min(abs(m[1, 2]), abs(m[2, 2])) < 1e-13 * max(1, np.max(np.abs(m)))


def test_degenerate_samples():
    samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSamples):
        coefficients(np.zeros(2), samples)


def test_grad_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        t0, s, _ = random_config(rng)
        m = coefficients(t0, s)
        t = t0 + rng.uniform(-2, 2, size=2)
        for kind in (B, W1, W2):
            g = bw_grad(s, m, kind, t)
            fx = (bw_eval(s, m, kind, t + [h, 0]) -
                  bw_eval(s, m, kind, t - [h, 0])) / (2 * h)
            fy = (bw_eval(s, m, kind, t + [0, h]) -
                  bw_eval(s, m, kind, t - [0, h])) / (2 * h)
            assert abs(g[0] - fx) < 1e-6 and abs(g[1] - fy) < 1e-6


def test_hessian_quadform_dominance():
    rng = np.random.default_rng(6)
    count = 0
    while count < 10**4:
        t0, s, _ = random_config(rng)
        m = coefficients(t0, s)
        t = t0 + rng.uniform(-3, 3, size=2)
        kind = count % 3
        H = bw_hessian(s, m, kind, t)
        th = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(th), np.sin(th)])
        bound = bw_hessian_quadform_bound(s, m, kind, t)
        assert abs(v @ H @ v) <= bound * (1 + 1e-12) + 1e-300
        count += 1


def test_single_gaussian_eigen_examples():
    # kappa=1 Gaussian centered at the origin evaluated via the bound formula
    s = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    m = np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert abs(bw_hessian_quadform_bound(s, m, B, np.zeros(2)) - 1.0) < 1e-12
    b = bw_hessian_quadform_bound(s, m, B, np.array([2.0, 0.0]))
    assert abs(b - 3 * np.exp(-2.0)) < 1e-12
    ev = np.linalg.eigvalsh(bw_hessian(s, m, B, np.array([2.0, 0.0])))
    assert abs(np.max(ev) - 3 * np.exp(-2.0)) < 1e-12


def test_tail_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        zeta = rng.uniform(0.1, 1.0)
        t0, s, _ = random_config(rng, zeta)
        m = coefficients(t0, s)
        th = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(10, 14)
        t = t0 + r * np.array([np.cos(th), np.sin(th)])
        g = 6 * r**2 * np.exp(-r**2 / 2 + np.sqrt(2) * zeta * r)
        assert abs(bw_eval(s, m, B, t)) <= g
        for kind in (W1, W2):
            assert abs(bw_eval(s, m, kind, t)) <= g / zeta


def test_w2_is_mirrored_w1():
    """Swapping x with y and u1 with u2 maps W2 onto W1: W2 of offset u at
    (p_y, p_x) equals W1 of offset (u2, u1) at p, and the gradients agree
    with their components swapped.  The envelope builder derives the W2
    envelopes from this identity."""
    rng = np.random.default_rng(8)

    def samples(u, zeta):
        return np.array([-u, [zeta - u[0], -u[1]], [-u[0], zeta - u[1]]])

    for _ in range(1000):
        zeta = rng.uniform(0.1, 0.9)
        u = rng.uniform(-0.5, 0.5, 2) * zeta
        p = rng.uniform(-10, 10, 2)
        s, ms = samples(u, zeta), samples(u[::-1], zeta)
        m, mm = coefficients(np.zeros(2), s), coefficients(np.zeros(2), ms)
        w2 = bw_eval(s, m, W2, p[::-1])
        w1 = bw_eval(ms, mm, W1, p)
        assert abs(w2 - w1) <= 1e-12 * abs(w1)
        g2 = bw_grad(s, m, W2, p[::-1])
        g1 = bw_grad(ms, mm, W1, p)
        assert np.all(np.abs(g2 - g1[::-1]) <= 1e-12 * np.abs(g1[::-1]))
