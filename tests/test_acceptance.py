"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``AC-n PASS`` line on success (visible with
``pytest -v -rA`` or ``-s``); a failure shows up as the usual pytest
FAILED line for that criterion.  The paper-resolution certification sweep
is hours-scale and opt-in via the DECONV2D_PAPER_RES environment variable.
"""

import os
import time

import numpy as np
import pytest

from conftest import desk_envelopes, mc_envelope_violations
from deconv2d.certify import CertifyConfig, certify_cell, recovery_sweep
from deconv2d.envelope import (
    ALL_KINDS,
    EPS_B,
    EPS_W,
    KIND_INFO,
    tail_chain_sum,
    zeta_band,
)
from deconv2d.schur import numeric_certificate, schur_bounds
from deconv2d.solver import recovery_trial
from deconv2d.experiments import phase_diagram, svd_conditioning
from test_bumpwave import (
    B,
    W1,
    W2,
    bw_eval,
    bw_grad,
    coefficients,
    cross_products,
    linear_solve_oracle,
    random_config,
)
from test_schur import random_support

BANDS = (1, 5, 9, 13)
# published certification thresholds for the bands exercised at desk
# resolution (the full 16-band table is an opt-in paper-resolution run)
PUBLISHED_THRESHOLD = {1: 4.10, 5: 4.10, 9: 4.15, 13: 4.40}


def _report(name: str, elapsed: float, limit: float, detail: str = ""):
    assert elapsed < limit, f"{name} took {elapsed:.1f}s (limit {limit:.0f}s)"
    suffix = f" ({detail})" if detail else ""
    print(f"{name} PASS in {elapsed:.1f}s{suffix}")


def test_ac01_bump_wave_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        t, s, zeta = random_config(rng)
        m = coefficients(t, s)
        # interpolation identities
        assert abs(bw_eval(s, m, B, t) - 1.0) < 1e-9
        assert np.max(np.abs(bw_grad(s, m, B, t))) < 1e-9
        for kind, grad in ((W1, [1.0, 0.0]), (W2, [0.0, 1.0])):
            assert abs(bw_eval(s, m, kind, t)) < 1e-9
            assert np.max(np.abs(bw_grad(s, m, kind, t) - grad)) < 1e-9
        # closed form vs. linear-solve oracle
        oracle = linear_solve_oracle(t, s)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(m - oracle)) < 1e-10 * scale
        # |D| = zeta^2 and nonnegative bump coefficients
        D = abs(cross_products(t, s).sum())
        assert abs(D - zeta**2) < 1e-12 * zeta**2
        assert np.all(m[:, B] >= -1e-12)
    _report("AC-1", time.monotonic() - t0, 10.0, "1000 configs")


def test_ac02_envelope_soundness():
    t0 = time.monotonic()
    total = 0
    for k1 in BANDS:
        envs = desk_envelopes(k1)
        counts = mc_envelope_violations(envs, k1, 10**5, seed=200 + k1)
        assert set(counts) == set(ALL_KINDS)
        assert all(v == 0 for v in counts.values()), (k1, counts)
        total += sum(counts.values())
        for kind, env in envs.items():
            if KIND_INFO[kind][2]:  # monotone kinds are non-increasing
                assert np.all(np.diff(env.values) <= 1e-300)
                assert env.tail <= 2e-9
    _report("AC-2", time.monotonic() - t0, 300.0,
            f"{total} violations over 14 kinds x {len(BANDS)} bands")


def test_ac03_tail_chain():
    t0 = time.monotonic()
    worst = 0.0
    for k1 in range(1, 17):
        zlo, zhi = zeta_band(k1)
        s = tail_chain_sum(zhi)
        assert s <= EPS_B, k1           # bump / derivative scale
        assert s / zlo <= EPS_W, k1     # wave scale
        worst = max(worst, s / zlo)
    _report("AC-3", time.monotonic() - t0, 1.0,
            f"largest wave-scale chain sum {worst:.2e} over 16 bands")


def test_ac04_schur_soundness():
    t0 = time.monotonic()
    from deconv2d.envelope import EnvelopeSet
    from deconv2d.schur import block_norm_bounds

    delta, zeta, k1 = 4.5, 0.32, 5
    nb = block_norm_bounds(delta, EnvelopeSet(desk_envelopes(k1)))
    rep = schur_bounds(nb)
    assert all(rep.conditions_hold)
    assert rep.alpha_inf <= 2.0
    assert rep.beta_inf <= 1.0 and rep.gamma_inf <= 1.0
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        T = random_support(rng, n, delta, 3 * delta)
        tau = rng.choice([-1.0, 1.0], n)
        cert = numeric_certificate(T, tau, zeta,
                                   origin=rng.uniform(-zeta / 2, zeta / 2, 2))
        assert np.max(np.abs(cert.alpha)) <= rep.alpha_inf
        assert np.max(np.abs(cert.beta)) <= rep.beta_inf
        assert np.max(np.abs(cert.gamma)) <= rep.gamma_inf
        assert np.min(np.abs(cert.alpha)) >= rep.alpha_lb
    _report("AC-4", time.monotonic() - t0, 60.0, "50 supports")


def test_ac05_end_to_end_certification():
    t0 = time.monotonic()
    config = CertifyConfig({k1: desk_envelopes(k1) for k1 in BANDS})
    assert certify_cell(5.5, 5, config).certified
    for k1 in BANDS:
        assert not certify_cell(2.0, k1, config).certified
    grid = np.round(np.arange(4.0, 6.0 + 1e-9, 0.05), 2)
    sweep = recovery_sweep(grid, BANDS, config)
    details = []
    for k1 in BANDS:
        flags = [r.certified for r in sweep[k1]["reports"]]
        thr = sweep[k1]["threshold"]
        assert thr is not None, f"band {k1} never certified on [4, 6]"
        # up-closed in Delta
        first = flags.index(True)
        assert all(flags[first:]), f"band {k1} not up-closed"
        # desk thresholds are conservative but within 1.5 sigma of published
        pub = PUBLISHED_THRESHOLD[k1]
        assert pub <= thr <= pub + 1.5, (k1, thr, pub)
        details.append(f"band {k1}: {thr:.2f}")
    _report("AC-5", time.monotonic() - t0, 600.0 * len(BANDS),
            "; ".join(details))


@pytest.mark.skipif("DECONV2D_PAPER_RES" not in os.environ,
                    reason="hours-scale paper-resolution sweep; set "
                           "DECONV2D_PAPER_RES=1 to run")
def test_ac05_published_thresholds_paper_resolution():
    from deconv2d.envelope import EnvelopeGridSpec, build_envelopes

    config = CertifyConfig({1: build_envelopes(
        EnvelopeGridSpec(k1=1, tres=40, ures=40))})
    grid = np.round(np.arange(4.0, 6.0 + 1e-9, 0.05), 2)
    sweep = recovery_sweep(grid, [1], config)
    assert sweep[1]["threshold"] == pytest.approx(4.10)


def test_ac06_numeric_certificate():
    t0 = time.monotonic()
    delta, zeta = 4.5, 0.5
    rng = np.random.default_rng(606)
    T = random_support(rng, 3, delta, 1.5 * delta)
    tau = np.array([1.0, -1.0, 1.0])
    cert = numeric_certificate(T, tau, zeta)
    assert np.max(np.abs(cert.evaluate(T) - tau)) < 1e-8
    assert np.max(np.abs(cert.gradient(T))) < 1e-8
    lo, hi = T.min() - 3.0, T.max() + 3.0
    xs = np.arange(lo, hi, 0.05)
    G = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    off = np.min(np.linalg.norm(G[:, None] - T[None], axis=-1),
                 axis=1) > delta / 8
    peak = float(np.max(np.abs(cert.evaluate(G[off]))))
    assert peak < 1.0
    _report("AC-6", time.monotonic() - t0, 30.0, f"off-support max {peak:.3f}")


def test_ac07_solver_phase_behavior():
    t0 = time.monotonic()
    good = [recovery_trial(2.0, 0.5, 25, "full_grid", s) for s in range(10)]
    bad = [recovery_trial(0.75, 0.5, 25, "three_nearest", s)
           for s in range(10)]
    assert all(good)
    assert sum(bad) < 10
    _report("AC-7", time.monotonic() - t0, 300.0,
            f"rates {sum(good) / 10:.1f} / {sum(bad) / 10:.1f}")


def test_ac08_svd_conditioning():
    t0 = time.monotonic()
    rows = {r[0]: r for r in svd_conditioning([2.0, 0.5], [0.5])}
    ratio = rows[0.5][2] / rows[2.0][2]
    assert ratio < 1e-2
    # 64 coincident spikes: duplicate columns leave sigma_min exactly 0
    (dup,) = svd_conditioning([0.0], [0.5])
    assert dup[2] == 0.0
    _report("AC-8", time.monotonic() - t0, 60.0, f"ratio {ratio:.1e}")


def test_ac09_kernel_zoo():
    t0 = time.monotonic()
    details = []
    for kernel, low in (("microscopy", 0.75), ("airy", 0.5)):
        (good,) = phase_diagram(kernel, [3.0], [0.5], trials=5, seed=909)
        (bad,) = phase_diagram(kernel, [low], [0.5], trials=5, seed=909,
                               pattern="three_nearest")
        assert good[6] == 1.0, (kernel, good)
        assert bad[6] < 1.0, (kernel, bad)
        details.append(f"{kernel}: 1.0 at 3u, {bad[6]:.1f} at {low}u "
                       "(three nearest)")
    _report("AC-9", time.monotonic() - t0, 600.0, "; ".join(details))
