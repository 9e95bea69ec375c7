"""Bump and wave interpolation basis.

Each spike t with its three nearest samples s1, s2, s3 (grid spacing zeta)
carries three modified kernels, each a combination of the three Gaussians
centered at the samples:

* the bump B       -- B(t) = 1, grad B(t) = 0,
* the wave W1      -- W1(t) = 0, grad W1(t) = (1, 0),
* the wave W2      -- W2(t) = 0, grad W2(t) = (0, 1).

The coefficients have a closed form built from the 2x2 cross products of the
sample offsets; the three cross products share a sign and sum to +-zeta^2, so
the system is always well posed on a square grid.  Every function here works
on n spikes at once: samples are (n, 3, 2) and coefficients (n, 3, 3).
"""

from __future__ import annotations

import numpy as np


class DegenerateSamples(ValueError):
    """Collinear sample triple (cannot occur for valid grid configurations)."""


def nearest_samples(T, zeta: float, origin) -> np.ndarray:
    """The three samples of each spike on the grid origin + zeta * Z^2,
    shape (n, 3, 2).

    s1 is the nearest grid point; s2 and s3 are its x and y neighbors on the
    side of the spike (together: three corners of the containing cell).
    """
    T = np.asarray(T, dtype=float).reshape(-1, 2)
    o = np.asarray(origin, dtype=float)
    s1 = o + zeta * np.round((T - o) / zeta)
    step = np.where(T - s1 >= 0, zeta, -zeta)
    s = np.repeat(s1[:, None], 3, axis=1)
    s[:, 1, 0] += step[:, 0]
    s[:, 2, 1] += step[:, 1]
    return s


def bw_coefficients(T, samples) -> np.ndarray:
    """Closed-form coefficients of the bump and the two waves, (n, 3, 3):
    rows are the samples, columns (B, W1, W2).

    Row i is (exp(|s_i - t|^2 / 2) / D) * [D_i, s_{i+1,y} - s_{i+2,y},
    s_{i+2,x} - s_{i+1,x}] with cyclic indexing, D_i the cross product of the
    other two sample offsets, and D = D_1 + D_2 + D_3 (= +-zeta^2).
    """
    T = np.asarray(T, dtype=float).reshape(-1, 2)
    s = samples - T[:, None]
    # row i of a and b holds the offsets of samples i + 1 and i + 2
    a, b = np.roll(s, -1, axis=1), np.roll(s, -2, axis=1)
    D = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    Dsum = D.sum(axis=1, keepdims=True)
    if np.any(np.abs(Dsum) < 1e-14):
        raise DegenerateSamples(f"sample cross-product sums {Dsum.ravel()}")
    w = np.exp(0.5 * np.sum(s * s, axis=-1)) / Dsum
    # the wave columns read the samples themselves, shifted the same way
    a, b = np.roll(samples, -1, axis=1), np.roll(samples, -2, axis=1)
    cols = (D, a[..., 1] - b[..., 1], b[..., 0] - a[..., 0])
    return w[..., None] * np.stack(cols, axis=-1)


def gaussians(samples, t):
    """s_i - t and e^{-|s_i - t|^2/2} for the (k, 2) samples s_i; t may be
    (..., 2)."""
    t = np.asarray(t, dtype=float)
    d = samples - t[..., None, :]  # (..., k, 2)
    return d, np.exp(-0.5 * np.sum(d * d, axis=-1))
