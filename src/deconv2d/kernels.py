"""Convolution kernels.

Three radially symmetric point-spread models are supported:

* ``gaussian``   -- K(t) = exp(-|t|^2 / (2 sigma^2)), the standardized kernel
  everything rigorous in this package is proved for (sigma = 1).
* ``microscopy`` -- a published two-Gaussian fit to a fluorescence microscope
  PSF, K(r) = exp(-2 r^2 / 1.72^2) + 0.0208 exp(-2 (r - 2.45)^2 / 1.10^2),
  with natural unit sigma0 = 1.72 / 2.  Note K(0) = 1 + ~1e-6; the published
  constants are kept verbatim rather than renormalized.
* ``airy``       -- the diffraction-limited telescope kernel
  K(r) = (2 J1(3.8317 r) / (3.8317 r))^2, normalized so K(0) = 1 and the first
  zero sits at r = 1.

J1 is ``scipy.special.j1``, imported on the first Airy evaluation, so that
only Airy users load ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# microscopy fit constants (published values, kept verbatim)
_MICRO_W1 = 1.72
_MICRO_A2 = 0.0208
_MICRO_R2 = 2.45
_MICRO_W2 = 1.10
SIGMA0 = _MICRO_W1 / 2.0  # from 2 sigma0^2 = 1.72^2 / 2

AIRY_SCALE = 3.8317  # first positive zero of J1; puts K's first zero at r = 1


# ---------------------------------------------------------------------------
# Kernel models


@dataclass(frozen=True)
class KernelModel:
    """A radial PSF model: ``kind`` in {gaussian, microscopy, airy} plus its
    natural unit length (sigma, sigma0, or the first-zero radius).  Only the
    Gaussian reads ``unit`` when evaluated; the other two are fixed by their
    module constants."""

    kind: str
    unit: float


#: the three models by name, at their standard scales
KERNELS = {"gaussian": KernelModel("gaussian", 1.0),
           "microscopy": KernelModel("microscopy", SIGMA0),
           "airy": KernelModel("airy", 1.0)}


def kernel_eval(model: KernelModel, t):
    """K(t) for a 2-vector or (..., 2) array of offsets from the center."""
    t = np.asarray(t, dtype=float)
    r2 = t[..., 0] ** 2 + t[..., 1] ** 2
    if model.kind == "gaussian":
        return np.exp(-0.5 * r2 / (model.unit * model.unit))
    r = np.sqrt(r2)
    if model.kind == "microscopy":
        return (np.exp(-2.0 * r2 / (_MICRO_W1 ** 2))
                + _MICRO_A2 * np.exp(-2.0 * (r - _MICRO_R2) ** 2 / (_MICRO_W2 ** 2)))
    if model.kind == "airy":
        from scipy.special import j1

        z = AIRY_SCALE * r
        with np.errstate(invalid="ignore", divide="ignore"):
            amp = np.where(z > 1e-8, 2.0 * j1(np.maximum(z, 1e-300)) / np.maximum(z, 1e-300),
                           1.0 - z * z / 8.0)  # series limit near 0
        return amp * amp
    raise ValueError(f"unknown kernel kind {model.kind!r}")
