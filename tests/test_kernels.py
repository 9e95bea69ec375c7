import math

import numpy as np

from scipy.special import j1

from deconv2d.kernels import (
    AIRY_SCALE,
    KERNELS,
    SIGMA0,
    KernelModel,
    _airy_amplitude,
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


def _airy_amplitude_where(z):
    """The Airy amplitude as both branches of one np.where."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z > 1e-8,
                        2.0 * j1(np.maximum(z, 1e-300)) / np.maximum(z, 1e-300),
                        1.0 - z * z / 8.0)


def test_airy_amplitude_bits_match_both_branch_form():
    """The series is formed only where it is taken, with the same bits as
    forming both branches everywhere: at the switch 1e-8 and its
    neighbouring floats, near 0 and on a random grid of offsets."""
    edge = 1e-8 + np.spacing(1e-8) * np.arange(-3, 4)
    assert np.array_equal(np.nextafter(edge[:-1], 1.0), edge[1:])
    z = np.array([0.0, 5e-324, 1e-300, 1e-9, 2e-8, 1e-4, 0.1, 1.0, *edge])
    assert (z <= 1e-8).sum() == 8 and (z > 1e-8).sum() == 7
    assert _airy_amplitude(z).tobytes() == _airy_amplitude_where(z).tobytes()
    t = np.random.default_rng(11).uniform(-3, 3, (300, 40, 2))
    t[0, :3] = 0.0
    z = AIRY_SCALE * np.sqrt(t[..., 0] ** 2 + t[..., 1] ** 2)
    want = _airy_amplitude_where(z)
    assert kernel_eval(KERNELS["airy"], t).tobytes() == (want * want).tobytes()
    assert _airy_amplitude(0.0).shape == ()


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
