import functools
import os

import numpy as np

from deconv2d.envelope import (
    ALL_KINDS,
    EXTENDED_U_KINDS,
    KIND_INFO,
    EnvelopeGridSpec,
    EnvelopeSet,
    StepEnvelope,
    zeta_band,
)

DESK_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir,
                              "perfbench", "data", "envelopes_desk.npz")


@functools.cache
def desk_reference() -> dict:
    """k1 -> {kind: StepEnvelope}: the benchmark's desk-resolution envelopes
    of bands 1/5/9/13, read (never written) from ``DESK_REFERENCE``, whose
    keys are ``"<k1>.<kind>.<field>"``."""
    fields: dict = {}
    with np.load(DESK_REFERENCE, allow_pickle=False) as npz:
        for key in npz.files:
            k1, kind, name = key.split(".")
            band = fields.setdefault(int(k1), {})
            band.setdefault(kind, {})[name] = npz[key]
    out = {}
    for k1, kinds in fields.items():
        spec = EnvelopeGridSpec(k1=k1)
        out[k1] = {kind: StepEnvelope(
            kind=kind, monotone=bool(f["monotone"]),
            breakpoints=f["breakpoints"], values=f["values"],
            tail=float(f["tail"]), k1=k1, tres=spec.tres, ures=spec.ures)
            for kind, f in kinds.items()}
    return out


def desk_envelopes(k1: int) -> dict:
    """Desk-resolution envelopes of band k1 from the benchmark reference."""
    return desk_reference()[k1]


def sample_quantities(k1: int, n: int, rng, extended_u: bool):
    """Vectorized random (config, t) draws and every bounded quantity.

    Returns radii r plus a dict kind -> sampled quantity (absolute value for
    monotone kinds, signed for the two signed kinds).
    """
    zlo, zhi = zeta_band(k1)
    zeta = rng.uniform(zlo, zhi, n)
    lo = -0.5 if extended_u else 0.0
    u = rng.uniform(lo, 0.5, (n, 2)) * zeta[:, None]
    t = rng.uniform(-10, 10, (n, 2))
    s = np.empty((n, 3, 2))
    s[:, 0] = -u
    s[:, 1, 0] = zeta - u[:, 0]
    s[:, 1, 1] = -u[:, 1]
    s[:, 2, 0] = -u[:, 0]
    s[:, 2, 1] = zeta - u[:, 1]
    eu = np.exp(0.5 * np.sum(u * u, axis=1))
    e2 = np.exp(0.5 * np.sum(s[:, 1] ** 2, axis=1))
    e3 = np.exp(0.5 * np.sum(s[:, 2] ** 2, axis=1))
    c = {
        "B": np.stack([(zeta - u[:, 0] - u[:, 1]) / zeta * eu,
                       u[:, 0] / zeta * e2, u[:, 1] / zeta * e3], axis=1),
        "W1": np.stack([-eu / zeta, e2 / zeta, np.zeros(n)], axis=1),
        "W2": np.stack([-eu / zeta, np.zeros(n), e3 / zeta], axis=1),
    }
    d = s - t[:, None, :]          # s_i - t
    n2 = np.sum(d * d, axis=2)
    E = np.exp(-0.5 * n2)
    r = np.hypot(t[:, 0], t[:, 1])
    out = {}
    for kind, (base, expr, mono) in KIND_INFO.items():
        cc = c[base]
        if expr == "val":
            q = np.abs(np.sum(cc * E, axis=1))
        elif expr == "dx":
            q = np.abs(np.sum(cc * d[:, :, 0] * E, axis=1))
        elif expr == "dy":
            q = np.abs(np.sum(cc * d[:, :, 1] * E, axis=1))
        elif expr == "eig_abs":
            # oracle: true largest-|.| eigenvalue of the assembled Hessian
            hxx = np.sum(cc * (d[:, :, 0] ** 2 - 1) * E, axis=1)
            hyy = np.sum(cc * (d[:, :, 1] ** 2 - 1) * E, axis=1)
            hxy = np.sum(cc * d[:, :, 0] * d[:, :, 1] * E, axis=1)
            disc = np.sqrt(((hxx - hyy) / 2) ** 2 + hxy ** 2)
            q = np.maximum(np.abs((hxx + hyy) / 2 + disc),
                           np.abs((hxx + hyy) / 2 - disc))
        elif expr == "eig_max":
            hxx = np.sum(cc * (d[:, :, 0] ** 2 - 1) * E, axis=1)
            hyy = np.sum(cc * (d[:, :, 1] ** 2 - 1) * E, axis=1)
            hxy = np.sum(cc * d[:, :, 0] * d[:, :, 1] * E, axis=1)
            q = (hxx + hyy) / 2 + np.sqrt(((hxx - hyy) / 2) ** 2 + hxy ** 2)
        elif expr == "slope":
            safe = np.maximum(r, 1e-12)
            proj = (d[:, :, 0] * t[:, None, 0] + d[:, :, 1] * t[:, None, 1]) / safe[:, None]
            q = np.sum(cc * proj * E, axis=1)
        out[kind] = q
    return r, out


def mc_envelope_violations(envs: dict, k1: int, n: int, seed: int,
                           kinds=ALL_KINDS) -> dict:
    """Count envelope violations over n Monte-Carlo samples per u-regime."""
    table = EnvelopeSet(envs)
    counts = {}
    for extended in (False, True):
        group = [k for k in kinds
                 if (k in EXTENDED_U_KINDS) == extended]
        if not group:
            continue
        rng = np.random.default_rng(seed + int(extended))
        r, q = sample_quantities(k1, n, rng, extended_u=extended)
        bins = table.bins(r)
        for kind in group:
            counts[kind] = int(np.sum(q[kind] > table.tables[kind][bins]))
    return counts
