import math

import numpy as np

from deconv2d.kernels import (
    KERNELS,
    SIGMA0,
    KernelModel,
    kernel_eval,
)


def test_kernel_at_zero():
    z = np.zeros(2)
    assert kernel_eval(KERNELS["gaussian"], z) == 1.0
    assert abs(kernel_eval(KERNELS["microscopy"], z) - 1.0) < 1e-5
    assert abs(kernel_eval(KERNELS["airy"], z) - 1.0) < 1e-12


def test_microscopy_ridge():
    # at the ridge radius the second term contributes its full amplitude
    t = np.array([2.45, 0.0])
    v = kernel_eval(KERNELS["microscopy"], t)
    expect = math.exp(-2 * 2.45**2 / 1.72**2) + 0.0208
    assert abs(v - expect) < 1e-14


def test_airy_first_zero():
    # 3.8317 is the (truncated) first zero of J1, so K(1) is ~1e-12, not 0
    assert abs(kernel_eval(KERNELS["airy"], np.array([1.0, 0.0]))) < 1e-11


def test_radial_symmetry():
    rng = np.random.default_rng(5)
    for model in KERNELS.values():
        t = rng.uniform(-4, 4, size=(200, 2))
        th = rng.uniform(0, 2 * np.pi, size=200)
        c, s = np.cos(th), np.sin(th)
        rt = np.stack([c * t[:, 0] - s * t[:, 1], s * t[:, 0] + c * t[:, 1]], axis=-1)
        assert np.max(np.abs(kernel_eval(model, t) - kernel_eval(model, rt))) < 1e-12


def test_units():
    assert KERNELS["gaussian"].unit == 1.0
    assert KernelModel("gaussian", 2.0).unit == 2.0
    assert KERNELS["microscopy"].unit == SIGMA0 == 0.86
    assert KERNELS["airy"].unit == 1.0
