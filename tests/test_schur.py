import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import desk_envelopes
from deconv2d.bumpwave import bw_coefficients, nearest_samples
from deconv2d.envelope import EPS_B, EPS_W, EnvelopeSet, OutOfValidatedRange
from deconv2d.schur import (
    NormBounds,
    SingularSystem,
    block_norm_bounds,
    numeric_certificate,
    schur_bounds,
)
from test_bumpwave import B, W1, W2, bw_eval, bw_grad

DELTA = 4.5
K1 = 5          # zeta band [0.30, 0.35]
ZETA = 0.32


@pytest.fixture(scope="module")
def envs():
    return EnvelopeSet(desk_envelopes(K1))


@pytest.fixture(scope="module")
def nb(envs):
    return block_norm_bounds(DELTA, envs)


def test_block_bounds_large_delta_floor(envs):
    b = block_norm_bounds(50.0, envs)
    # every cell is past radius 10: each sum collapses to 216 tails
    for name in ("i_minus_b", "b_x", "b_y"):
        assert getattr(b, name) <= 216 * 2e-9 + EPS_B * 1.001
    for name in ("w1", "w2", "i_minus_w1x", "w2x", "w1y", "i_minus_w2y"):
        assert getattr(b, name) <= 216 * 2e-9 + EPS_W * 1.001


def test_block_bounds_monotone_in_delta(envs):
    b1 = block_norm_bounds(4.5, envs)
    b2 = block_norm_bounds(5.0, envs)
    for name in ("i_minus_b", "b_x", "b_y", "w1", "w2",
                 "i_minus_w1x", "w2x", "w1y", "i_minus_w2y"):
        assert getattr(b2, name) <= getattr(b1, name) + 1e-15, name


def test_block_bounds_working_point(nb):
    assert nb.i_minus_w2y < 1.0
    rep = schur_bounds(nb)
    assert all(rep.conditions_hold)
    assert rep.alpha_lb >= 0.0
    # the desk norms are mirror-symmetric under x <-> y, so the W1 and W2
    # rows bound beta and gamma alike, up to the rounding of two different
    # expressions (1 ulp apart here)
    assert ((nb.b_x, nb.w1, nb.i_minus_w1x, nb.w2x)
            == (nb.b_y, nb.w2, nb.i_minus_w2y, nb.w1y))
    assert rep.gamma_inf == pytest.approx(rep.beta_inf,
                                          rel=4 * np.finfo(float).eps)
    assert rep.alpha_inf <= 2.0 and rep.beta_inf <= 1.0


def test_block_bounds_delta_precondition(envs):
    with pytest.raises(OutOfValidatedRange):
        block_norm_bounds(1.5, envs)


def _nb(**kw):
    base = dict(i_minus_b=0.0, b_x=0.0, b_y=0.0, w1=0.0, w2=0.0,
                i_minus_w1x=0.0, w2x=0.0, w1y=0.0, i_minus_w2y=0.0)
    base.update(kw)
    return NormBounds(**base)


def test_schur_identity_limit():
    rep = schur_bounds(_nb())
    assert rep.alpha_inf == 1.0 and rep.beta_inf == 0.0
    assert rep.gamma_inf == 0.0 and rep.alpha_lb == 1.0


def test_schur_short_circuits():
    rep = schur_bounds(_nb(i_minus_w2y=1.0))
    assert rep.conditions_hold == (False, False, False)
    assert math.isnan(rep.alpha_inf) and math.isnan(rep.alpha_lb)
    rep = schur_bounds(_nb(i_minus_w1x=0.5, w2x=2.0, w1y=0.5, i_minus_w2y=0.5))
    assert rep.conditions_hold == (True, False, False)
    rep = schur_bounds(_nb(i_minus_b=1.5))
    assert rep.conditions_hold == (True, True, False)


def test_schur_chain_oracle():
    """Independent scalar re-evaluation of the chain on random inputs."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0, 0.3, 9)
        nb = _nb(i_minus_b=v[0], b_x=v[1], b_y=v[2], w1=v[3], w2=v[4],
                 i_minus_w1x=v[5], w2x=v[6], w1y=v[7], i_minus_w2y=v[8])
        rep = schur_bounds(nb)
        inv_w2y = 1 / (1 - v[8])
        ims1 = v[5] + v[6] * inv_w2y * v[7]
        inv_s1 = 1 / (1 - ims1)
        s2 = v[1] + v[6] * inv_w2y * v[2]
        ims3 = v[0] + v[3] * inv_s1 * s2 + v[4] * inv_w2y * (
            v[7] * inv_s1 * s2 + v[2])
        if ims3 >= 1:
            assert not rep.conditions_hold[2]
            continue
        inv_s3 = 1 / (1 - ims3)
        assert abs(rep.alpha_inf - inv_s3) < 1e-12
        assert abs(rep.beta_inf - inv_s1 * s2 * inv_s3) < 1e-12
        assert abs(rep.gamma_inf
                   - inv_w2y * (v[7] * inv_s1 * s2 + v[2]) * inv_s3) < 1e-12
        assert abs(rep.alpha_lb - (1 - inv_s3 * ims3)) < 1e-12


def test_schur_gamma_reads_the_w2_row():
    """gamma is eliminated through the W2 row (b_y), beta through W1 (b_x):
    asymmetric block norms give asymmetric coefficient bounds."""
    rep = schur_bounds(_nb(b_x=0.1, b_y=0.2))
    assert all(rep.conditions_hold)
    assert rep.gamma_inf > rep.beta_inf
    rep = schur_bounds(_nb(b_x=0.2, b_y=0.1))
    assert rep.gamma_inf < rep.beta_inf


# -- numeric certificate ----------------------------------------------------

def random_support(rng, n, delta, box):
    pts = []
    while len(pts) < n:
        p = rng.uniform(-box, box, 2)
        if all(np.hypot(*(p - q)) >= delta * 1.001 for q in pts):
            pts.append(p)
    return np.array(pts)


def test_certificate_single_spike():
    cert = numeric_certificate([[0.3, -0.2]], [1.0], ZETA)
    assert abs(cert.alpha[0] - 1.0) < 1e-12
    assert abs(cert.beta[0]) < 1e-12 and abs(cert.gamma[0]) < 1e-12
    assert abs(cert.evaluate([0.3, -0.2]) - 1.0) < 1e-12


def test_certificate_three_spikes():
    T = np.array([[0.0, 0.0], [4.6, 0.3], [1.1, 4.9]])
    tau = np.array([1.0, 1.0, -1.0])
    cert = numeric_certificate(T, tau, 0.5)
    assert np.max(np.abs(cert.evaluate(T) - tau)) < 1e-8
    assert np.max(np.abs(cert.gradient(T))) < 1e-8
    # |Q| < 1 away from the support
    xs = np.arange(-2.0, 7.0, 0.05)
    G = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    far = np.min(np.linalg.norm(G[:, None] - T[None], axis=-1), axis=1) > DELTA / 8
    assert np.max(np.abs(cert.evaluate(G[far]))) < 1.0


def test_certificate_q_weights_consistent():
    T = np.array([[0.0, 0.0], [5.0, 1.0]])
    cert = numeric_certificate(T, [1.0, -1.0], ZETA)
    # direct Gaussian synthesis from the per-sample weights
    p = np.array([1.7, -0.4])
    val = 0.0
    for samples, qrow in zip(cert.samples, cert.q):
        d = samples - p
        val += qrow @ np.exp(-0.5 * np.sum(d * d, axis=1))
    assert abs(val - cert.evaluate(p)) < 1e-12


def test_numeric_system_matches_per_spike_oracle():
    """The block-product system solves to the coefficients of the system
    assembled one spike and one kind at a time."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        T = random_support(rng, n, DELTA, 3 * DELTA)
        tau = rng.choice([-1.0, 1.0], n)
        origin = rng.uniform(-ZETA / 2, ZETA / 2, 2)
        samples = nearest_samples(T, ZETA, origin)
        mats = bw_coefficients(T, samples)
        M = np.empty((3 * n, 3 * n))
        for j in range(n):
            for k in (B, W1, W2):
                M[:n, 3 * j + k] = bw_eval(samples[j], mats[j], k, T)
                g = bw_grad(samples[j], mats[j], k, T)
                M[n:2 * n, 3 * j + k] = g[:, 0]
                M[2 * n:, 3 * j + k] = g[:, 1]
        x = np.linalg.solve(M, np.concatenate([tau, np.zeros(2 * n)]))
        cert = numeric_certificate(T, tau, ZETA, origin)
        assert np.array_equal(cert.samples, samples)
        for got, want in zip((cert.alpha, cert.beta, cert.gamma),
                             x.reshape(n, 3).T):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_certificate_singular():
    with pytest.raises(SingularSystem):
        numeric_certificate([[0.0, 0.0], [1e-9, 0.0]], [1.0, 1.0], ZETA)


def test_norm_and_chain_soundness(nb, envs):
    """Sampled truth never exceeds the rigorous bounds (reduced size)."""
    rng = np.random.default_rng(7)
    rep = schur_bounds(nb)
    assert all(rep.conditions_hold)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        T = random_support(rng, n, DELTA, 3 * DELTA)
        origin = rng.uniform(-ZETA / 2, ZETA / 2, 2)
        samples = nearest_samples(T, ZETA, origin)
        mats = bw_coefficients(T, samples)
        rows = {k: np.zeros(n) for k in ("i_minus_b", "b_x", "b_y", "w1",
                                         "w2", "i_minus_w1x", "w2x", "w1y",
                                         "i_minus_w2y")}
        for k in range(n):
            for j in range(n):
                vB = bw_eval(samples[k], mats[k], B, T[j])
                v1 = bw_eval(samples[k], mats[k], W1, T[j])
                v2 = bw_eval(samples[k], mats[k], W2, T[j])
                gB = bw_grad(samples[k], mats[k], B, T[j])
                g1 = bw_grad(samples[k], mats[k], W1, T[j])
                g2 = bw_grad(samples[k], mats[k], W2, T[j])
                dd = 1.0 if j == k else 0.0
                rows["i_minus_b"][j] += abs(dd - vB)
                rows["b_x"][j] += abs(gB[0])
                rows["b_y"][j] += abs(gB[1])
                rows["w1"][j] += abs(v1)
                rows["w2"][j] += abs(v2)
                rows["i_minus_w1x"][j] += abs(dd - g1[0])
                rows["w2x"][j] += abs(g2[0])
                rows["w1y"][j] += abs(g1[1])
                rows["i_minus_w2y"][j] += abs(dd - g2[1])
        for name, r in rows.items():
            assert r.max() <= getattr(nb, name) + 1e-15, name
        tau = rng.choice([-1.0, 1.0], n)
        cert = numeric_certificate(T, tau, ZETA, origin)
        assert np.max(np.abs(cert.alpha)) <= rep.alpha_inf
        assert np.max(np.abs(cert.beta)) <= rep.beta_inf
        assert np.max(np.abs(cert.gamma)) <= rep.gamma_inf
        assert np.min(np.abs(cert.alpha)) >= rep.alpha_lb


#: run in a fresh interpreter: the proof and solver paths load no scipy, a
#: numeric certificate loads scipy.linalg and an Airy kernel scipy.special
_SCIPY_PROBE = """
import importlib, pkgutil, sys
import deconv2d
for m in pkgutil.iter_modules(deconv2d.__path__):
    importlib.import_module("deconv2d." + m.name)
from deconv2d.certify import CertifyConfig, certify_cell
from deconv2d.envelope import EnvelopeGridSpec, build_envelopes
from deconv2d.kernels import KERNELS, kernel_eval
from deconv2d.schur import numeric_certificate
from deconv2d.solver import hex_arrangement, recovery_trial

def scipy_loaded():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

config = CertifyConfig({5: build_envelopes(EnvelopeGridSpec(5, tres=2, ures=2))})
certify_cell(5.5, 5, config)
recovery_trial(2.0, 0.5, 4, "full_grid", 0)  # decided by rank
assert not scipy_loaded(), scipy_loaded()
numeric_certificate(hex_arrangement(3, 4.5), [1, -1, 1], 0.5)
assert "scipy.linalg" in sys.modules, scipy_loaded()
kernel_eval(KERNELS["airy"], [0.5, 0.0])
assert "scipy.special" in sys.modules, scipy_loaded()
assert "scipy.optimize" not in sys.modules, scipy_loaded()
recovery_trial(2.0, 0.5, 4, "three_nearest", 0)  # decided by the LP
assert "scipy.optimize" in sys.modules, scipy_loaded()
"""


def test_scipy_is_loaded_only_where_it_is_used():
    """Importing the package and running the certifier and a full_grid
    Gaussian trial (decided by rank) load no scipy; a numeric certificate
    loads scipy.linalg, the Airy kernel scipy.special, and only a trial
    decided by the certificate program (three_nearest) scipy.optimize.  A
    subprocess, because other test modules import scipy themselves."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
