"""Bump and wave interpolation basis.

Each spike t with its three nearest samples s1, s2, s3 (grid spacing zeta)
carries three modified kernels, each a combination of the three Gaussians
centered at the samples:

* the bump B       -- B(t) = 1, grad B(t) = 0,
* the wave W1      -- W1(t) = 0, grad W1(t) = (1, 0),
* the wave W2      -- W2(t) = 0, grad W2(t) = (0, 1).

The coefficients have a closed form built from the 2x2 cross products of the
sample offsets; the three cross products share a sign and sum to +-zeta^2, so
the system is always well posed on a square grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("B", "W1", "W2")


class DegenerateSamples(ValueError):
    """Collinear sample triple (cannot occur for valid grid configurations)."""


@dataclass(frozen=True)
class SpikeConfig:
    """A spike location, its three nearest samples, and the grid spacing."""

    t: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    zeta: float

    @staticmethod
    def from_nearest(t, zeta: float, origin=(0.0, 0.0)) -> "SpikeConfig":
        """Build the config from the sample grid origin + zeta * Z^2.

        s1 is the nearest grid point; s2 and s3 are its axis neighbors on the
        side of the spike (together: three corners of the containing cell).
        """
        t = np.asarray(t, dtype=float)
        o = np.asarray(origin, dtype=float)
        idx = np.round((t - o) / zeta)
        s1 = o + zeta * idx
        d = t - s1
        sx = 1.0 if d[0] >= 0 else -1.0
        sy = 1.0 if d[1] >= 0 else -1.0
        s2 = s1 + np.array([sx * zeta, 0.0])
        s3 = s1 + np.array([0.0, sy * zeta])
        return SpikeConfig(t, s1, s2, s3, zeta)

    @property
    def samples(self) -> np.ndarray:
        return np.stack([self.s1, self.s2, self.s3])


@dataclass(frozen=True)
class BumpWaveCoeffs:
    """3x3 coefficient matrix: rows = samples (kappa, mu, rho), columns =
    (B, W1, W2)."""

    mat: np.ndarray

    def column(self, kind: str) -> np.ndarray:
        return self.mat[:, KINDS.index(kind)]


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def bw_coefficients(cfg: SpikeConfig) -> BumpWaveCoeffs:
    """Closed-form coefficients of the bump and the two waves.

    Row i is (exp(|s_i - t|^2 / 2) / D) * [D_i, s_{i+1,y} - s_{i+2,y},
    s_{i+2,x} - s_{i+1,x}] with cyclic indexing, D_i the cross product of the
    other two sample offsets, and D = D_1 + D_2 + D_3 (= +-zeta^2).
    """
    s = [cfg.s1 - cfg.t, cfg.s2 - cfg.t, cfg.s3 - cfg.t]
    samples = [cfg.s1, cfg.s2, cfg.s3]
    D = [_cross(s[1], s[2]), _cross(s[2], s[0]), _cross(s[0], s[1])]
    Dsum = D[0] + D[1] + D[2]
    if abs(Dsum) < 1e-14:
        raise DegenerateSamples(f"sample cross-product sum {Dsum}")
    mat = np.empty((3, 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = np.exp(0.5 * float(s[i] @ s[i])) / Dsum
        mat[i, 0] = w * D[i]
        mat[i, 1] = w * (samples[j][1] - samples[k][1])
        mat[i, 2] = w * (samples[k][0] - samples[j][0])
    return BumpWaveCoeffs(mat)


def gaussians(samples, t):
    """s_i - t and e^{-|s_i - t|^2/2} for the (k, 2) samples s_i; t may be
    (..., 2)."""
    t = np.asarray(t, dtype=float)
    d = samples - t[..., None, :]  # (..., k, 2)
    return d, np.exp(-0.5 * np.sum(d * d, axis=-1))


def bw_eval(cfg: SpikeConfig, coeffs: BumpWaveCoeffs, kind: str, t):
    """Value of the bump/wave at t (vectorized over leading axes of t)."""
    c = coeffs.column(kind)
    _, g = gaussians(cfg.samples, t)
    return g @ c


def bw_grad(cfg: SpikeConfig, coeffs: BumpWaveCoeffs, kind: str, t):
    """Gradient at t: sum_i c_i (s_i - t) e^{-|s_i - t|^2/2}."""
    c = coeffs.column(kind)
    d, g = gaussians(cfg.samples, t)
    return np.sum(c[..., :, None] * d * g[..., :, None], axis=-2)
