import math

import numpy as np
import pytest

from deconv2d.kernels import (
    AIRY_SCALE,
    SIGMA0,
    KernelModel,
    gaussian_jet,
    kernel_eval,
)


def test_jet_origin():
    K, Kx, Ky, Kxx, Kyy, Kxy = gaussian_jet((0.0, 0.0))
    assert K == 1.0
    assert Kx == Ky == Kxy == 0.0
    assert Kxx == Kyy == -1.0


def test_jet_unit_point():
    K, Kx, _, Kxx, _, _ = gaussian_jet((1.0, 0.0))
    e = math.exp(-0.5)
    assert abs(K - e) < 1e-15
    assert abs(Kx + e) < 1e-15
    assert abs(Kxx) < 1e-15


def test_jet_parity():
    rng = np.random.default_rng(3)
    t = rng.uniform(-4, 4, size=(50, 2))
    a = gaussian_jet(t)
    b = gaussian_jet(-t)
    for i in (0, 3, 4, 5):
        assert np.allclose(a[i], b[i], rtol=0, atol=0)
    for i in (1, 2):
        assert np.allclose(a[i], -b[i], rtol=0, atol=0)


def test_jet_finite_differences():
    """All five derivatives vs central differences at 1000 random points."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, size=(1000, 2))
    h = 1e-5

    def K(p):
        return gaussian_jet(p)[0]

    _, Kx, Ky, Kxx, Kyy, Kxy = gaussian_jet(pts)
    ex = np.zeros((len(pts), 2))
    ex[:, 0] = h
    ey = np.zeros((len(pts), 2))
    ey[:, 1] = h
    fdx = (K(pts + ex) - K(pts - ex)) / (2 * h)
    fdy = (K(pts + ey) - K(pts - ey)) / (2 * h)
    fdxx = (K(pts + ex) - 2 * K(pts) + K(pts - ex)) / h**2
    fdyy = (K(pts + ey) - 2 * K(pts) + K(pts - ey)) / h**2
    fdxy = (K(pts + ex + ey) - K(pts + ex - ey)
            - K(pts - ex + ey) + K(pts - ex - ey)) / (4 * h**2)
    scale = np.maximum(np.abs(Kx), 1e-3)
    assert np.max(np.abs(fdx - Kx) / np.maximum(np.abs(Kx), 1e-3)) < 1e-6
    assert np.max(np.abs(fdy - Ky) / np.maximum(np.abs(Ky), 1e-3)) < 1e-6
    assert np.max(np.abs(fdxx - Kxx)) < 1e-4
    assert np.max(np.abs(fdyy - Kyy)) < 1e-4
    assert np.max(np.abs(fdxy - Kxy)) < 1e-4


def test_kernel_at_zero():
    z = np.zeros(2)
    assert kernel_eval(KernelModel.gaussian(), z) == 1.0
    assert abs(kernel_eval(KernelModel.microscopy(), z) - 1.0) < 1e-5
    assert abs(kernel_eval(KernelModel.airy(), z) - 1.0) < 1e-12


def test_microscopy_ridge():
    # at the ridge radius the second term contributes its full amplitude
    t = np.array([2.45, 0.0])
    v = kernel_eval(KernelModel.microscopy(), t)
    expect = math.exp(-2 * 2.45**2 / 1.72**2) + 0.0208
    assert abs(v - expect) < 1e-14


def test_airy_first_zero():
    # 3.8317 is the (truncated) first zero of J1, so K(1) is ~1e-12, not 0
    assert abs(kernel_eval(KernelModel.airy(), np.array([1.0, 0.0]))) < 1e-11


def test_radial_symmetry():
    rng = np.random.default_rng(5)
    for model in (KernelModel.gaussian(), KernelModel.microscopy(), KernelModel.airy()):
        t = rng.uniform(-4, 4, size=(200, 2))
        th = rng.uniform(0, 2 * np.pi, size=200)
        c, s = np.cos(th), np.sin(th)
        rt = np.stack([c * t[:, 0] - s * t[:, 1], s * t[:, 0] + c * t[:, 1]], axis=-1)
        assert np.max(np.abs(kernel_eval(model, t) - kernel_eval(model, rt))) < 1e-12


def test_units():
    assert KernelModel.gaussian(2.0).unit == 2.0
    assert KernelModel.microscopy().unit == SIGMA0 == 0.86
    assert KernelModel.airy().unit == 1.0
    assert KernelModel.airy().scale == AIRY_SCALE
