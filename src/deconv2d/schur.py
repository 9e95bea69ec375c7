"""Scalar norm bounds for the interpolation block system.

The certificate coefficients solve a 3x3 block system (bump block and two
wave blocks, in values and in both partial derivatives).  Everything the
certifier needs from that system is a handful of scalars: infinity-norm
bounds on the coefficient vectors alpha, beta, gamma and a lower bound on
min |alpha_i|.  Those come from a chain of Schur-complement estimates whose
inputs are the nine block infinity-norms, each bounded by summing the
matching radial envelope over the hexagonal partition.

A numeric (floating-point LU) construction of the same certificate is also
provided; it is not part of the rigorous chain but serves as a cross-check
and produces the contour-plot style evaluator used by the demos.  Its LU
comes from ``scipy.linalg``, imported there, so the bound chain loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bumpwave import bw_coefficients, gaussians, nearest_samples
from .envelope import EPS_B, EPS_W, EnvelopeSet, OutOfValidatedRange
from .hexgeom import cell_distances


class SingularSystem(ValueError):
    """Numeric block system is singular (spikes too close or degenerate)."""


# the envelope kind of each block, in NormBounds field order, and the
# far-tail constant its sum holds
_BLOCK_KINDS = ("bump", "bump_dx", "bump_dy", "wave1", "wave2", "wave1_dx",
                "wave2_dx", "wave1_dy", "wave2_dy")
_BLOCK_EPS = (EPS_B,) * 3 + (EPS_W,) * 6


@dataclass(frozen=True)
class NormBounds:
    """Infinity-norm bounds on the nine blocks of the interpolation system.

    Diagonal blocks are recorded as deviations from the identity
    (``i_minus_b``, ``i_minus_w1x``, ``i_minus_w2y``); the rest are plain
    norms.  Each sum already holds its far-tail constant ``EPS_B`` or
    ``EPS_W``.
    """

    i_minus_b: float
    b_x: float
    b_y: float
    w1: float
    w2: float
    i_minus_w1x: float
    w2x: float
    w1y: float
    i_minus_w2y: float


@dataclass(frozen=True)
class SchurReport:
    """Coefficient bounds from the Schur-complement chain.

    ``conditions_hold`` records, in order, the three invertibility
    conditions: the second wave diagonal block, the first Schur complement,
    and the final one.  When a condition fails the dependent fields are NaN.
    """

    conditions_hold: tuple
    alpha_inf: float
    beta_inf: float
    gamma_inf: float
    alpha_lb: float


def block_norm_bounds(delta: float, table: EnvelopeSet) -> NormBounds:
    """Sum each block's envelope at every cell's constrained distance.

    Any spike other than the one at the origin lies in a unique cell of the
    partition at Delta, at radial distance at least ``d_U``; the envelopes
    are radial and non-increasing, so the row sum of any block is at most
    the sum of envelope values over the 216 cells, plus the tail constant
    for everything beyond the eighth layer.
    """
    if delta < 2.0:
        raise OutOfValidatedRange(f"delta {delta} < 2")
    stack = np.array([table.tables[kind] for kind in _BLOCK_KINDS])
    sums = table.sums(stack, cell_distances(delta))
    return NormBounds(*(sums + _BLOCK_EPS).tolist())


def schur_bounds(nb: NormBounds) -> SchurReport:
    """Run the scalar bound chain; record which conditions fail.  gamma is
    eliminated through the W2 row, gamma = -W2y^-1 (B_y alpha + W1y beta), so
    its bound equals beta's only when the norms are x <-> y symmetric."""
    nan = math.nan
    if not nb.i_minus_w2y < 1.0:
        return SchurReport((False, False, False), nan, nan, nan, nan)
    w2y_inv = 1.0 / (1.0 - nb.i_minus_w2y)
    i_minus_s1 = nb.i_minus_w1x + nb.w2x * w2y_inv * nb.w1y
    if not i_minus_s1 < 1.0:
        return SchurReport((True, False, False), nan, nan, nan, nan)
    s1_inv = 1.0 / (1.0 - i_minus_s1)
    s2 = nb.b_x + nb.w2x * w2y_inv * nb.b_y
    i_minus_s3 = (nb.i_minus_b + nb.w1 * s1_inv * s2
                  + nb.w2 * w2y_inv * (nb.w1y * s1_inv * s2 + nb.b_y))
    if not i_minus_s3 < 1.0:
        return SchurReport((True, True, False), nan, nan, nan, nan)
    s3_inv = 1.0 / (1.0 - i_minus_s3)
    return SchurReport(
        conditions_hold=(True, True, True),
        alpha_inf=s3_inv,
        beta_inf=s1_inv * s2 * s3_inv,
        gamma_inf=w2y_inv * (nb.w1y * s1_inv * s2 + nb.b_y) * s3_inv,
        alpha_lb=1.0 - s3_inv * i_minus_s3,
    )


# -- numeric certificate ----------------------------------------------------

@dataclass(frozen=True)
class NumericCertificate:
    """Floating-point interpolation certificate for a concrete support:
    Q(t) = sum over spikes j and samples i of q[j, i] e^{-|s_ji - t|^2/2}."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    samples: np.ndarray     # (n, 3, 2) the three samples of each spike
    q: np.ndarray           # (n, 3) per-sample Gaussian weights

    def evaluate(self, t):
        """Q(t); t may be (..., 2)."""
        _, g = gaussians(self.samples.reshape(-1, 2), t)
        return g @ self.q.ravel()

    def gradient(self, t):
        d, g = gaussians(self.samples.reshape(-1, 2), t)
        return np.sum((g * self.q.ravel())[..., None] * d, axis=-2)


def numeric_certificate(T, tau, zeta: float, origin=(0.0, 0.0)) -> NumericCertificate:
    """Solve the 3n x 3n interpolation system with dense LU.

    Unknowns are (alpha_j, beta_j, gamma_j) per spike; equations fix
    Q(t_i) = tau_i and grad Q(t_i) = 0.  Not rigorous: this is the
    cross-check construction, not the certified bound chain.
    """
    from scipy.linalg import LinAlgWarning, block_diag, lu_factor, lu_solve

    T = np.asarray(T, dtype=float)
    tau = np.asarray(tau, dtype=float)
    n = len(T)
    if n == 0 or tau.shape != (n,):
        raise ValueError("need one sign per spike")
    samples = nearest_samples(T, zeta, origin)
    mat = bw_coefficients(T, samples)
    # column 3j + k is kind k of spike j; rows are values, then d/dx, d/dy
    d, g = gaussians(samples.reshape(-1, 2), T)
    C = block_diag(*mat)
    M = np.concatenate([g @ C, (g * d[..., 0]) @ C, (g * d[..., 1]) @ C])
    rhs = np.zeros(3 * n)
    rhs[:n] = tau
    with warnings.catch_warnings():
        # zero pivots are reported as SingularSystem below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(M)
    diag = np.abs(np.diag(lu))
    if diag.min() < 1e-12 * diag.max():
        raise SingularSystem(
            f"pivot ratio {diag.min() / diag.max():.2e}; spikes too close?")
    x = lu_solve((lu, piv), rhs)
    w = x.reshape(n, 3)         # rows (alpha_j, beta_j, gamma_j)
    q = np.einsum("jik,jk->ji", mat, w)
    return NumericCertificate(*w.T, samples, q)
