"""The shared bin lookup of ``EnvelopeSet`` against per-kind lookups.

The oracle below is the per-kind formulation of the certifier's sums: every
kind is looked up on its own with ``searchsorted`` and the tail applied with
``np.where``, each segment maximum is taken over a mask of the bins the
segment meets, and the sums are formed from the looked-up values.  The table
route must give the same bits.  Both read the same ``hexgeom`` distance
tables; ``tests/test_hexgeom.py`` checks those against direct geometry.
"""

import numpy as np
import pytest

from conftest import desk_envelopes
from deconv2d.certify import (
    EPS_SEG,
    N_SEGMENTS,
    SegmentBounds,
    qtri_segment_bounds,
)
from deconv2d.envelope import (
    ALL_KINDS,
    EPS_B,
    EPS_W,
    EnvelopeSet,
    StepEnvelope,
)
from deconv2d.hexgeom import cell_distances, segment_distances
from deconv2d.schur import NormBounds, block_norm_bounds, schur_bounds

BANDS = (1, 5, 9, 13)   # the bands of the desk reference
DELTAS = (4.0, 4.65, 5.0, 5.5, 5.749999999999994, 6.0, 7.3)


# -- oracle: per-kind lookups -------------------------------------------------

def oracle_query(env, r):
    r = np.asarray(r, dtype=float)
    idx = np.searchsorted(env.breakpoints, r, side="left") - 1
    idx = np.clip(idx, 0, len(env.values) - 1)
    return np.where(r > env.breakpoints[-1], env.tail, env.values[idx])


def oracle_seg_max(env, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    top = env.breakpoints[-1]
    last = len(env.values) - 1
    lo = np.clip(np.searchsorted(env.breakpoints, a, side="left") - 1, 0, last)
    hi = np.searchsorted(env.breakpoints, np.minimum(b, top), side="left") - 1
    hi = np.minimum(np.maximum(hi, lo), last)
    bins = np.arange(len(env.values))
    covered = (bins >= lo[..., None]) & (bins <= hi[..., None])
    m = np.max(np.where(covered, env.values, -np.inf), axis=-1)
    return np.where(b > top, np.maximum(m, env.tail), m)


def oracle_grad_norm(envs, prefix, r):
    dx = oracle_query(envs[prefix + "_dx"], r)
    dy = oracle_query(envs[prefix + "_dy"], r)
    return np.sqrt(dx * dx + dy * dy)


def oracle_segment_bounds(delta, n, envs, schur):
    edges = np.append(np.arange(n) * delta / n, delta)
    a, b = edges[:-1], edges[1:]
    d_u = np.maximum(segment_distances(delta, n),
                     np.maximum(a, delta - b)[:, None])
    al, be, ga = schur.alpha_inf, schur.beta_inf, schur.gamma_inf
    q = lambda kind, r: oracle_query(envs[kind], r)  # noqa: E731
    g = lambda prefix, r: oracle_grad_norm(envs, prefix, r)  # noqa: E731

    neighbor_q = np.sum(al * q("bump", d_u) + be * q("wave1", d_u)
                        + ga * q("wave2", d_u), axis=1)
    wave_self = be * q("wave1", a) + ga * q("wave2", a)
    bump_self = al * q("bump", a)
    q_ub = bump_self + wave_self + neighbor_q + EPS_SEG
    q_lb = -(wave_self + neighbor_q + EPS_SEG)

    omega = oracle_seg_max(envs["bump_slope"], a, b)
    grad_self = np.maximum(schur.alpha_lb * omega, al * omega)
    grad_neighbor = np.sum(al * g("bump", d_u) + be * g("wave1", d_u)
                           + ga * g("wave2", d_u), axis=1)
    grad_wave_self = be * g("wave1", a) + ga * g("wave2", a)
    grad_ub = grad_self + grad_wave_self + grad_neighbor + EPS_SEG

    eta = oracle_seg_max(envs["bump_eig_max"], a, b)
    eig_self = np.maximum(schur.alpha_lb * eta, al * eta)
    eig_neighbor = np.sum(al * q("bump_eig", d_u) + be * q("wave1_eig", d_u)
                          + ga * q("wave2_eig", d_u), axis=1)
    eig_wave_self = be * q("wave1_eig", a) + ga * q("wave2_eig", a)
    eig_ub = eig_self + eig_wave_self + eig_neighbor + EPS_SEG

    return SegmentBounds(edges, q_ub, q_lb, grad_ub, eig_ub)


#: block -> (envelope kind, whether the wave epsilon applies), written out
#: here so that a wrong block-to-kind mapping in ``schur`` fails the oracle
ORACLE_BLOCKS = {
    "i_minus_b": ("bump", False),
    "b_x": ("bump_dx", False),
    "b_y": ("bump_dy", False),
    "w1": ("wave1", True),
    "w2": ("wave2", True),
    "i_minus_w1x": ("wave1_dx", True),
    "w2x": ("wave2_dx", True),
    "w1y": ("wave1_dy", True),
    "i_minus_w2y": ("wave2_dy", True),
}


def oracle_block_norm_bounds(delta, envs):
    dists = cell_distances(delta)
    vals = {}
    for name, (kind, is_wave) in ORACLE_BLOCKS.items():
        s = float(np.sum(oracle_query(envs[kind], dists)))
        vals[name] = s + (EPS_W if is_wave else EPS_B)
    return NormBounds(**vals)


# -- tests --------------------------------------------------------------------

def _radii(breakpoints, rng):
    """Every breakpoint, one ulp either side of each, the tail beyond 10 and
    random radii on [0, 12]."""
    bp = np.asarray(breakpoints)
    return np.concatenate([
        bp, np.nextafter(bp, -np.inf)[1:], np.nextafter(bp, np.inf),
        [10.5, 11.0, 1e3, np.inf], rng.uniform(0, 12, 2000)])


@pytest.mark.parametrize("k1", BANDS)
def test_lookup_matches_per_kind_oracle(k1):
    envs = desk_envelopes(k1)
    table = EnvelopeSet(envs)
    r = _radii(table.breakpoints, np.random.default_rng(k1))
    grid = r.reshape(2, -1)  # 2-D, like the segment-by-cell distances
    bins, grid_bins = table.bins(r), table.bins(grid)
    assert np.all(bins[r > 10.0] == len(table.breakpoints) - 1)
    for kind in ALL_KINDS:
        want = oracle_query(envs[kind], r)
        got = table.tables[kind]
        assert got[bins].tobytes() == want.tobytes(), kind
        assert (got[grid_bins].tobytes()
                == oracle_query(envs[kind], grid).tobytes()), kind
        assert got[table.bins(0.0)] == envs[kind].values[0]
        assert got[table.bins(10.0)] == envs[kind].values[-1]
        assert got[table.bins(np.nextafter(10.0, 11.0))] == envs[kind].tail
        assert got[table.bins(11.0)] == envs[kind].tail


@pytest.mark.parametrize("k1", BANDS)
def test_seg_max_matches_per_kind_oracle(k1):
    """The segment-maximum oracle against the brute-force maximum of dense
    ``oracle_query`` samples of [a, b], endpoints included: random segments,
    segments on breakpoints, segments inside one bin and segments reaching
    the tail.  Every bin a segment meets is wider than the sample spacing or
    holds an endpoint, so the two maxima agree exactly."""
    envs = desk_envelopes(k1)
    rng = np.random.default_rng(100 + k1)
    bp = envs["bump"].breakpoints
    ab = np.sort(np.concatenate([
        rng.uniform(0, 10, (100, 2)),
        rng.uniform(0, 12, (40, 2)),
        rng.choice(bp, (40, 2)),
        bp[:-1, None] + np.diff(bp)[:, None] * [0.1, 0.9]]), axis=1)
    ab = ab[ab[:, 0] <= 10.0]  # segments starting past 10 read only the tail
    dense = np.linspace(ab[:, 0], ab[:, 1], 5 * 10**3, axis=1)
    for kind in ("bump_slope", "bump_eig_max", "bump"):
        env = envs[kind]
        brute = np.max(oracle_query(env, dense), axis=1)
        want = oracle_seg_max(env, ab[:, 0], ab[:, 1])
        assert brute.tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("k1", BANDS)
def test_certifier_sums_match_per_kind_oracle(k1):
    """At 100 segments a segment meets at most 2 desk bins; at 10 it meets
    up to 9, so the segment maxima are checked over longer runs of bins.
    Besides DELTAS, every Delta of the grid of ``deconv2d certify
    --delta-min 4.0 --delta-max 6.0`` (the benchmark's sweep) is checked."""
    envs = desk_envelopes(k1)
    table = EnvelopeSet(envs)
    segment_cells = 0
    for delta in sorted({*DELTAS, *np.arange(4.0, 6.0 + 1e-12, 0.05)}):
        nb = block_norm_bounds(delta, table)
        assert repr(nb) == repr(oracle_block_norm_bounds(delta, envs))
        rep = schur_bounds(nb)
        if not (all(rep.conditions_hold) and rep.alpha_inf <= 2.0
                and rep.beta_inf <= 1.0 and rep.gamma_inf <= 1.0):
            continue
        segment_cells += 1
        for n in (10, N_SEGMENTS):
            got = qtri_segment_bounds(delta, n, table, rep)
            want = oracle_segment_bounds(delta, n, envs, rep)
            for f in ("edges", "q_ub", "q_lb", "grad_ub", "eig_ub"):
                assert (getattr(got, f).tobytes()
                        == getattr(want, f).tobytes()), (delta, n, f)
    # every cell but the few outside the Schur chain or coefficient budget
    assert segment_cells == {1: 46, 5: 46, 9: 45, 13: 41}[k1]


def _envelope(**kw):
    base = dict(kind="bump", monotone=True, breakpoints=np.arange(11) / 2.0,
                values=np.linspace(1.0, 0.1, 10), tail=1e-12, k1=1, tres=2,
                ures=2)
    base.update(kw)
    return StepEnvelope(**base)


def test_envelope_set_needs_one_grid():
    ok = {"bump": _envelope(), "wave1": _envelope(kind="wave1")}
    assert EnvelopeSet(ok).tables["wave1"][-1] == 1e-12
    for change in (dict(breakpoints=np.arange(11) / 2.0 + 1e-9),
                   dict(breakpoints=np.arange(21) / 2.0,
                        values=np.linspace(1.0, 0.1, 20)),
                   dict(tres=4), dict(ures=4), dict(k1=2)):
        mixed = {"bump": _envelope(), "wave1": _envelope(kind="wave1", **change)}
        with pytest.raises(ValueError, match="does not share"):
            EnvelopeSet(mixed)
    with pytest.raises(ValueError):
        EnvelopeSet({})
