import dataclasses
import math
import multiprocessing
import os
import pathlib
import select
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import desk_envelopes, mc_envelope_violations
from deconv2d import envelope
from deconv2d.envelope import (
    ALL_KINDS,
    EPS_B,
    EPS_W,
    FormatError,
    EnvelopeGridSpec,
    EnvelopeSet,
    build_envelopes,
    load_envelope_set,
    save_envelope_set,
    tail_chain_sum,
    zeta_band,
)
from deconv2d.interval import (
    exp_outward,
    next_down,
    next_up,
    v_abs,
    v_add,
    v_div,
    v_exp_neg_half,
    v_mul,
    v_mul_nonneg,
    v_neg,
    v_sqr,
    v_sqrt,
    v_sub,
)
from test_interval import Interval

BANDS = (1, 5, 9, 13)


def test_zeta_bands():
    lo, hi = zeta_band(1)
    assert lo == 0.1 and abs(hi - 0.15) < 1e-15
    lo, hi = zeta_band(16)
    assert abs(lo - 0.85) < 1e-15 and abs(hi - 0.9) < 1e-15
    with pytest.raises(ValueError):
        zeta_band(0)


def test_vectorized_matches_scalar_interval():
    """The array interval ops vs the scalar Interval oracle, bit for bit."""
    rng = np.random.default_rng(42)
    lo = rng.uniform(-5, 5, 500)
    a = (lo, lo + rng.uniform(0, 3, 500))
    lo2 = rng.uniform(-5, 5, 500)
    b = (lo2, lo2 + rng.uniform(0, 3, 500))
    lo3 = rng.uniform(1e-3, 5, 500)
    pos = (lo3, lo3 + rng.uniform(0, 3, 500))  # divisors: 0 < lo <= hi
    nonneg = (np.where(rng.random(500) < 0.1, -1e-17, pos[0]), pos[1])

    def scalar(pair, i):
        return Interval(pair[0][i], pair[1][i])

    for name, vec, sca, y in (
        ("add", v_add, lambda x, y: x + y, b),
        ("sub", v_sub, lambda x, y: x - y, b),
        ("mul", v_mul, lambda x, y: x * y, b),
        ("div", v_div, lambda x, y: x / y, pos),
    ):
        vl, vh = vec(a, y)
        for i in range(500):
            s = sca(scalar(a, i), scalar(y, i))
            assert vl[i] == s.lo and vh[i] == s.hi, name
    for name, vec, sca, x in (
        ("sqr", v_sqr, Interval.sqr, a),
        ("sqrt", v_sqrt, Interval.sqrt, nonneg),
        ("abs", v_abs, abs, a),
        ("neg", v_neg, lambda x: -x, a),
    ):
        vl, vh = vec(x)
        for i in range(500):
            s = sca(scalar(x, i))
            assert vl[i] == s.lo and vh[i] == s.hi, name
    sl, sh = v_sqr(a)
    el, eh = v_exp_neg_half((sl, sh))
    for i in range(500):
        e = Interval(-0.5 * sh[i], -0.5 * sl[i]).exp()  # halving is exact
        assert el[i] == e.lo and eh[i] == e.hi


def _frac_interval(j: int, denom: int) -> Interval:
    return Interval(math.nextafter((j - 1) / denom, -math.inf),
                    math.nextafter(j / denom, math.inf))


def _u_cell_coeffs(zlo: float, zhi: float, j: int, k: int, ures: int):
    """Scalar oracle for one u-cell's coefficient intervals and sample
    rectangles, one Interval operation at a time."""
    Z = Interval(zlo, zhi)
    one = Interval.point(1.0)
    f1 = _frac_interval(j, ures)
    f2 = _frac_interval(k, ures)
    g2, g3 = one - f1, one - f2
    zsq = Z.sqr()
    eu = ((f1.sqr() + f2.sqr()) * zsq).scale(0.5).exp()
    e2 = ((g2.sqr() + f2.sqr()) * zsq).scale(0.5).exp()
    e3 = ((f1.sqr() + g3.sqr()) * zsq).scale(0.5).exp()
    inv = one / Z
    coeffs = {
        "B": ((one - f1 - f2) * eu, f1 * e2, f2 * e3),
        "W1": (-(inv * eu), inv * e2, None),
    }
    ux, uy = f1 * Z, f2 * Z
    samples = ((-ux, -uy), (g2 * Z, -uy), (-ux, g3 * Z))
    return coeffs, samples


@pytest.mark.parametrize("k1", [1, 16])
@pytest.mark.parametrize("lo", [1, -4], ids=["normal", "extended"])
def test_batched_u_cells_match_scalar_oracle(k1, lo):
    """Every u-cell of the desk u-box (lo = 1) and of the extended box
    (lo = 1 - ures/2): batched coefficients, their absolute values and
    the sample rectangles equal the scalar oracle bit for bit."""
    ures = 10
    zlo, zhi = zeta_band(k1)
    j, k = (g.ravel() for g in np.mgrid[lo:ures // 2 + 1, lo:ures // 2 + 1])
    coeffs, samples = envelope._u_cells(zlo, zhi, j, k, ures)

    def same(pair, iv, u):
        return pair[0][u] == iv.lo and pair[1][u] == iv.hi

    for u in range(len(j)):
        want_c, want_s = _u_cell_coeffs(zlo, zhi, int(j[u]), int(k[u]), ures)
        assert set(coeffs) == set(want_c)
        for base, want in want_c.items():
            for got, iv in zip(coeffs[base], want):
                assert (got is None) == (iv is None), (base, u)
                if iv is not None:
                    assert same(got, iv, u), (base, u)
                    assert same(v_abs(got), abs(iv), u), (base, u)
        for got, want in zip(samples, want_s):
            assert same(got[0], want[0], u) and same(got[1], want[1], u), u


@pytest.mark.parametrize("k1", BANDS)
def test_desk_build_matches_benchmark_reference(k1):
    """A fresh desk build equals the benchmark's recorded desk envelopes bit
    for bit (values, breakpoints, tail and monotonicity of all 14 kinds).
    The other tests certify on that reference, so this is what detects a
    reference out of step with the builder."""
    envs = build_envelopes(EnvelopeGridSpec(k1=k1))
    ref = desk_envelopes(k1)
    assert set(envs) == set(ref) == set(ALL_KINDS)
    for kind, e in envs.items():
        r = ref[kind]
        assert e.values.tobytes() == r.values.tobytes(), kind
        assert e.breakpoints.tobytes() == r.breakpoints.tobytes(), kind
        assert (np.float64(e.tail).tobytes()
                == np.float64(r.tail).tobytes()), kind
        assert e.monotone == r.monotone, kind


def test_w2_kinds_are_own_copies_of_mirrored_w1():
    """Each W2 kind is its x <-> y mirrored W1 kind under its own name, in
    an array of its own."""
    envs = build_envelopes(EnvelopeGridSpec(k1=1, tres=2, ures=2))
    for w2, w1 in (("wave2", "wave1"), ("wave2_dx", "wave1_dy"),
                   ("wave2_dy", "wave1_dx"), ("wave2_eig", "wave1_eig")):
        a, b = envs[w2], envs[w1]
        assert a.kind == w2 and b.kind == w1
        assert a.values.tobytes() == b.values.tobytes() and a.tail == b.tail
        assert not np.shares_memory(a.values, b.values), w2


@pytest.mark.parametrize("ures", [2, 4])
def test_build_independent_of_chunk_size(monkeypatch, ures):
    """The t-cells are evaluated in runs of ``_CHUNK_CELLS`` cells; runs of
    7 cells, and of 120 cells (about three x-rows), neither dividing the
    1 332 cells kept at tres 2, cutting rows and the signed kinds' bin spans
    at chunk boundaries, give the same bits as one chunk holding them
    all.  At ures 4 the normal u-box holds owner/mirror pairs, whose kinds
    share terms, and each chunk's running maxima span several owners."""
    spec = EnvelopeGridSpec(k1=1, tres=2, ures=ures)
    n = 20 * spec.tres
    builds = {}
    for size in (7, 3 * n, n * n):
        monkeypatch.setattr(envelope, "_CHUNK_CELLS", size)
        builds[size] = build_envelopes(spec)
    whole = builds.pop(n * n)
    for size, chunked in builds.items():
        for kind in ALL_KINDS:
            assert (chunked[kind].values.tobytes()
                    == whole[kind].values.tobytes()), (size, kind)


_ACCUMULATE = envelope._accumulate


def _nonempty_task(spec, part, parts):
    """``_accumulate`` that refuses a task holding no owner u-cell (a
    module-level function, so that the pool can pickle it)."""
    assert 0 <= part < parts <= spec.ures * (spec.ures + 1) // 2, (part, parts)
    return _ACCUMULATE(spec, part, parts)


@pytest.mark.parametrize("k1, ures", [(1, 2), (13, 2), (1, 4), (1, 6)])
def test_parallel_build_matches_serial(monkeypatch, k1, ures):
    """The owner u-cells (j <= k: 3, 10 and 21 at ures 2, 4 and 6) split
    across 2 workers, one task or several each, across more workers than
    the u-box has owners (8 at ures 2), or into more tasks than owners (8
    workers x 4 and 2 x 16 tasks at every ures), give the bits of the
    in-process build in all 14 kinds and tails; the task count is capped at
    the owner count, so no task is empty, and no worker is left running."""
    spec = EnvelopeGridSpec(k1=k1, tres=2, ures=ures)
    monkeypatch.setattr(envelope, "_accumulate", _nonempty_task)
    builds = {}
    for workers, tasks in ((1, 1), (2, 1), (2, 4), (8, 4), (2, 16)):
        monkeypatch.setattr(envelope, "_workers", lambda: workers)
        monkeypatch.setattr(envelope, "_TASKS_PER_WORKER", tasks)
        builds[workers, tasks] = build_envelopes(spec)
        assert multiprocessing.active_children() == []
    serial = builds.pop((1, 1))
    for split_by, split in builds.items():
        for kind in ALL_KINDS:
            assert (split[kind].values.tobytes()
                    == serial[kind].values.tobytes()), (split_by, kind)
            assert (np.float64(split[kind].tail).tobytes()
                    == np.float64(serial[kind].tail).tobytes()), \
                (split_by, kind)


def test_failed_worker_reaches_caller_and_leaves_no_process(monkeypatch):
    """An exception raised in the workers reaches the caller with its type,
    and the build leaves no worker process behind."""
    def fail(sample, cells, lower):
        raise OverflowError("sample arrays")

    monkeypatch.setattr(envelope, "_workers", lambda: 2)
    monkeypatch.setattr(envelope, "_sample_arrays", fail)  # forked: inherited
    with pytest.raises(OverflowError, match="sample arrays"):
        build_envelopes(EnvelopeGridSpec(k1=1, tres=2, ures=4))
    assert multiprocessing.active_children() == []


_HOLD_WORKERS = """
import os, time
from deconv2d import envelope

def hold(*args):
    os.write(1, b"%d\\n" % os.getpid())  # one write: lines never interleave
    time.sleep(60)

envelope._accumulate = hold
envelope._workers = lambda: 2
envelope.build_envelopes(envelope.EnvelopeGridSpec(k1=1, tres=2, ures=4))
"""


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_end_with_a_killed_build():
    """A build killed by SIGKILL runs no cleanup; its two workers, both busy
    in a task, end with it instead of waiting on the pool for ever."""
    proc = subprocess.Popen([sys.executable, "-c", _HOLD_WORKERS],
                            stdout=subprocess.PIPE)
    try:
        out = b""
        while out.count(b"\n") < 2:
            assert select.select([proc.stdout], [], [], 30)[0], "no worker"
            chunk = os.read(proc.stdout.fileno(), 64)
            assert chunk, "the build ended"
            out += chunk
        pids = [int(pid) for pid in out.split()]
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids))


@pytest.mark.parametrize("tres, size",
                         [(2, 3 * 40), (10, 8192),
                          (10, envelope._CHUNK_CELLS)])
def test_row_chunks_match_per_cell_evaluation(tres, size):
    """The chunks hold the cells with rmin <= 10 in row-major order, in
    runs of ``size`` cells (at desk resolution: in four chunks, and in the
    chunk the build uses), and gather the interval work on each coordinate
    from the grid's x- and y-interval tables.  On every kept cell, a
    chunk's sample arrays (with and without the lower end of E), every
    shape and its |t| equal the same expressions on full-size per-cell
    coordinates bit for bit, for u-cells of the normal and of the extended
    u-box."""
    n = 20 * tres
    edges = -10.0 + np.arange(n + 1) / tres
    XL, YL = (g.ravel() for g in np.meshgrid(edges[:-1], edges[:-1],
                                             indexing="ij"))
    XH, YH = (g.ravel() for g in np.meshgrid(edges[1:], edges[1:],
                                             indexing="ij"))
    near = [np.where((lo <= 0) & (hi >= 0), 0.0,
                     np.minimum(np.abs(lo), np.abs(hi)))
            for lo, hi in ((XL, XH), (YL, YH))]
    rmin = np.maximum(next_down(np.hypot(*near)), 0.0)
    zlo, zhi = zeta_band(5)
    j, k = np.array([1, 3, 5, -4]), np.array([1, 5, 2, 5])
    _, samples = envelope._u_cells(zlo, zhi, j, k, 10)

    def same(got, want):
        if isinstance(got, np.ndarray):
            return got.tobytes() == want.tobytes()
        return all(g is w is None or same(g, w) for g, w in zip(got, want))

    chunks = envelope._t_chunks(tres, size)
    assert all(len(cells.row) == size for cells in chunks[:-1])
    kept = np.concatenate([cells.row * n + cells.col for cells in chunks])
    assert kept.tobytes() == np.flatnonzero(rmin <= 10).tobytes()
    for cells in chunks:
        cell = cells.row * n + cells.col
        tx, ty = (XL[cell], XH[cell]), (YL[cell], YH[cell])
        tn = v_sqrt(v_add(v_sqr(tx), v_sqr(ty)))
        assert same(cells.tn, tn)
        each = np.arange(len(cell))
        per_cell = envelope._TCells(tx=tx, ty=ty, row=each, col=each, tn=tn,
                                    bmax_idx=cells.bmax_idx,
                                    span_bins=cells.span_bins)
        for u in range(len(j)):
            for sx, sy in samples:
                s = (envelope._pick(sx, u), envelope._pick(sy, u))
                snorm = v_sqrt(v_add(v_sqr(s[0]), v_sqr(s[1])))[1]
                got, want = {}, {}
                for lower in (True, False):
                    got[lower] = envelope._sample_arrays(s, cells, lower)
                    want[lower] = envelope._sample_arrays(s, per_cell, lower)
                    g, w = got[lower], want[lower]
                    assert same(envelope._pick(g[0], cells.row), w[0])
                    assert same(envelope._pick(g[1], cells.col), w[1])
                    assert same(g[2:], w[2:]), (u, lower)
                exprs = ("val", "dx", "dy", "eig_abs", "eig_max", "slope")
                for expr in exprs:
                    assert same(
                        envelope._shape(expr, s, snorm, got[True], cells),
                        envelope._shape(expr, s, snorm, want[True],
                                        per_cell)), (u, expr)
                assert same(
                    envelope._shape("eig_abs", s, snorm, got[False], cells),
                    envelope._shape("eig_abs", s, snorm, want[True],
                                    per_cell)), u


def _full_square(tres, size):
    """``_t_chunks`` without the trim: every cell of [-10, 10]^2, in one
    chunk, with the bins of its radii."""
    n = 20 * tres
    edges = -10.0 + np.arange(n + 1) / tres
    t = (edges[:-1], edges[1:])
    row, col = np.divmod(np.arange(n * n), n)
    far = np.maximum(np.abs(t[0]), np.abs(t[1]))
    near = np.where((t[0] <= 0) & (t[1] >= 0), 0.0,
                    np.minimum(np.abs(t[0]), np.abs(t[1])))
    rmax = next_up(np.hypot(far[row], far[col]))
    rmin = np.maximum(next_down(np.hypot(near[row], near[col])), 0.0)
    bmax = np.minimum(np.floor(rmax * tres).astype(int), 10 * tres - 1)
    blo = np.maximum(np.ceil(rmin * tres - 1e-9).astype(int) - 1, 0)
    span_bins = tuple((blo + off <= bmax, (blo + off)[blo + off <= bmax])
                      for off in range(int(np.max(bmax - blo)) + 1))
    tsq = v_sqr(t)
    tn = v_sqrt(v_add(envelope._pick(tsq, row), envelope._pick(tsq, col)))
    return (envelope._TCells(tx=t, ty=t, row=row, col=col, tn=tn,
                             bmax_idx=bmax, span_bins=span_bins),)


@pytest.mark.parametrize("k1", [1, 16])
@pytest.mark.parametrize("ures", [2, 4])
def test_trimmed_build_matches_full_square(monkeypatch, k1, ures):
    """Sweeping only the cells that meet the disc r <= 10 gives the bits of
    a sweep of the whole [-10, 10]^2 square in all 14 kinds and tails."""
    spec = EnvelopeGridSpec(k1=k1, tres=2, ures=ures)
    trimmed = build_envelopes(spec)
    kept = envelope._t_chunks(2, envelope._CHUNK_CELLS)
    assert sum(len(c.row) for c in kept) < 40 * 40
    monkeypatch.setattr(envelope, "_t_chunks", _full_square)
    full = build_envelopes(spec)
    for kind in ALL_KINDS:
        assert (trimmed[kind].values.tobytes()
                == full[kind].values.tobytes()), kind
        assert trimmed[kind].tail == full[kind].tail, kind


def _cell_table(chunks):
    """The kept cells of ``chunks`` in order: their ids row * n + col, and
    for each its monotone bin, its first signed bin and its signed span."""
    ids, bmax, blo, span = [], [], [], []
    for cells in chunks:
        ids.append(cells.row * cells.tx[0].size + cells.col)
        bmax.append(cells.bmax_idx)
        (first, idx), = cells.span_bins[:1]
        assert first.all()  # every kept cell reaches its first signed bin
        blo.append(idx)
        span.append(sum(mask.astype(int) for mask, _ in cells.span_bins))
    return tuple(np.concatenate(a) for a in (ids, bmax, blo, span))


@pytest.mark.parametrize("tres", [1, 2, 3, 10, 40])
def test_t_grid_is_transpose_closed(tres):
    """The premise of the pair sweep: x and y read one interval table, the
    kept cells are closed under (r, c) -> (c, r), and a cell's transpose
    feeds the same monotone bin and the same span of signed bins.  The
    grid's edges -10 + i / tres need not be symmetric about 0."""
    n = 20 * tres
    chunks = envelope._t_chunks(tres, envelope._CHUNK_CELLS)
    assert all(cells.tx is cells.ty for cells in chunks)
    ids, bmax, blo, span = _cell_table(chunks)
    where = np.full(n * n, -1)
    where[ids] = np.arange(ids.size)
    row, col = np.divmod(ids, n)
    t = where[col * n + row]
    assert np.all(t >= 0)
    for a in (bmax, blo, span):
        assert a[t].tobytes() == a.tobytes()


def _transposed(cells):
    """Index of each cell's transpose in one chunk holding every kept
    cell."""
    n = cells.tx[0].size
    where = np.full(n * n, -1)
    where[cells.row * n + cells.col] = np.arange(cells.row.size)
    return where[cells.col * n + cells.row]


def _mirror_pair(k1, j, k, ures):
    """Coefficients, samples and sample norms of u-cell (j, k) (index 0)
    and of its mirror (k, j) (index 1)."""
    zlo, zhi = zeta_band(k1)
    coeffs, samples = envelope._u_cells(zlo, zhi, np.array([j, k]),
                                        np.array([k, j]), ures)
    out = []
    for u in (0, 1):
        s = [(envelope._pick(sx, u), envelope._pick(sy, u))
             for sx, sy in samples]
        c = {base: [envelope._pick(iv, u) for iv in cs]
             for base, cs in coeffs.items()}
        out.append((c, s, [v_sqrt(v_add(v_sqr(x), v_sqr(y)))[1]
                           for x, y in s]))
    return out


def _bits(a):
    """The bytes of an array or scalar, or of each part of a tuple or list
    (None stays None)."""
    if a is None:
        return None
    if isinstance(a, (tuple, list)):
        return tuple(_bits(x) for x in a)
    return np.asarray(a).tobytes()


def _at(a, idx):
    """An array, or each end of an interval, gathered at ``idx``."""
    return a[idx] if isinstance(a, np.ndarray) else envelope._pick(a, idx)


@pytest.mark.parametrize("k1", [1, 16])
@pytest.mark.parametrize("j, k", [(1, 2), (2, 5), (-4, 5), (-1, 3), (-3, 0)],
                         ids=["normal-1-2", "normal-2-5", "extended--4-5",
                              "extended--1-3", "extended--3-0"])
def test_mirror_u_cell_from_owner_shapes(k1, j, k):
    """U' = (k, j) against U = (j, k), on every kept desk t-cell: U''s
    sample i is U's sample (0, 2, 1)[i] mirrored, and its sample arrays,
    each shape and each kind on its own samples have, at every cell, the
    bits of U's at the transposed cell, with dx and dy exchanged.  Of the
    coefficients, B's c2 and c3 exchange and W1(U') is (-inv eu, inv e3) of
    U; B's c1 of U' rounds otherwise, and U' reads its own."""
    ures = 10
    (cu, su, nu), (cm, sm, nm) = _mirror_pair(k1, j, k, ures)
    perm = (0, 2, 1)
    # samples and their norms
    for i in range(3):
        (x, y), (mx, my) = su[perm[i]], sm[i]
        assert _bits((mx, my)) == _bits((y, x)), i
        assert _bits(nm[i]) == _bits(nu[perm[i]]), i
    # coefficients
    zlo, zhi = zeta_band(k1)
    one, Z = (1.0, 1.0), (zlo, zhi)
    f1 = (next_down((j - 1) / ures), next_up(j / ures))
    f2 = (next_down((k - 1) / ures), next_up(k / ures))
    e3 = exp_outward(*v_mul(v_mul(
        v_add(v_sqr(f1), v_sqr(v_sub(one, f2))), v_sqr(Z)), (0.5, 0.5)))
    inv = v_div(one, Z)
    assert _bits(cm["B"][1:]) == _bits(cu["B"][:0:-1])
    assert _bits(cm["W1"]) == _bits([cu["W1"][0], v_mul(inv, e3), None])
    # arrays, shapes and kinds, cell by cell
    (cells,) = envelope._t_chunks(ures, envelope._CHUNK_CELLS)
    t = _transposed(cells)
    swap = {"dx": "dy", "dy": "dx"}
    mine, owner = {}, {}  # expr -> U''s shapes, U's in U''s sample order
    for i in range(3):
        for lower in (True, False):
            dx, dy, n2, E = envelope._sample_arrays(su[perm[i]], cells, lower)
            mdx, mdy, mn2, mE = envelope._sample_arrays(sm[i], cells, lower)
            assert _bits((mdx, mdy)) == _bits((dy, dx)), (i, lower)
            assert _bits(mn2) == _bits(_at(n2, t)), (i, lower)
            assert _bits(mE[0]) == _bits(None if E[0] is None else E[0][t])
            assert _bits(mE[1]) == _bits(E[1][t]), (i, lower)
        arrays = envelope._sample_arrays(sm[i], cells, True)
        owner_arrays = envelope._sample_arrays(su[perm[i]], cells, True)
        for expr in ("val", "dx", "dy", "eig_abs", "eig_max", "slope"):
            got = envelope._shape(expr, sm[i], nm[i], arrays, cells)
            shape = envelope._shape(swap.get(expr, expr), su[perm[i]],
                                    nu[perm[i]], owner_arrays, cells)
            assert _bits(got) == _bits(_at(shape, t)), (i, expr)
            mine.setdefault(expr, []).append(got)
            owner.setdefault(expr, []).append(shape)
    for kind, (base, expr, _) in envelope.KIND_INFO.items():
        if kind in envelope._MIRRORED:
            continue
        cs = [v_abs(c) if c is not None and expr == "eig_abs" else c
              for c in cm[base]]
        got = envelope._kind_values(expr, cs, mine[expr])
        want = envelope._kind_values(expr, cs, owner[expr])[t]
        assert got.tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("k1", [1, 16])
@pytest.mark.parametrize("j, k", [(1, 2), (2, 5), (-4, 5)],
                         ids=["normal-1-2", "normal-2-5", "extended--4-5"])
def test_owner_and_mirror_share_read_only_terms(k1, j, k):
    """The kinds of U = (j, k) and of its mirror U' = (k, j) read U's
    shapes of one expr (U' in its own sample order) and one dict of formed
    terms, as the sweep does.  Every kind has the bits of its
    evaluation with terms of its own; U' forms anew only B's c1' s1 (where
    c1' rounds otherwise) and W1's inv e3 s3; every shared term is
    read-only, so a write into it raises, and keeps the bits of the term
    formed alone."""
    (cu, su, nu), (cm, _, _) = _mirror_pair(k1, j, k, 10)
    (cells,) = envelope._t_chunks(10, envelope._CHUNK_CELLS)
    perm = (0, 2, 1)
    for expr in ("val", "dx", "dy", "eig_abs", "eig_max", "slope"):
        shapes = [envelope._shape(expr, s, n, envelope._sample_arrays(
            s, cells, True), cells) for s, n in zip(su, nu)]
        own = [shapes[i] for i in perm]
        for base in ("B",) if expr in ("eig_max", "slope") else ("B", "W1"):
            owner, mirror = ([v_abs(c) if c is not None and expr == "eig_abs"
                              else c for c in cs[base]] for cs in (cu, cm))
            formed = {}
            got = [envelope._kind_values(expr, owner, shapes, formed),
                   envelope._kind_values(expr, mirror, own, formed)]
            want = [envelope._kind_values(expr, owner, shapes),
                    envelope._kind_values(expr, mirror, own)]
            assert _bits(got) == _bits(want), (expr, base)
            fresh = _bits(mirror[0]) != _bits(owner[0])
            assert len(formed) == {"B": 3 + fresh, "W1": 3}[base], (expr, base)
            alone = {_bits(envelope._term(expr, c, shape))
                     for cs, ss in ((owner, shapes), (mirror, own))
                     for c, shape in zip(cs, ss) if c is not None}
            assert {_bits(term) for term in formed.values()} == alone
            for term in formed.values():
                for a in (term,) if expr == "eig_abs" else term:
                    with pytest.raises(ValueError, match="read-only"):
                        a += 0.0


def _every_u_cell(spec):
    """The bins of the ten built kinds from a sweep of every u-cell of the
    extended u-box on its own samples, one kind at a time, with the lower
    end of E, reduced as ``build_envelopes`` reduces them: values of all
    14 kinds."""
    half = spec.ures // 2
    m = 10 * spec.tres
    j, k = (g.ravel() for g in np.mgrid[1 - half:half + 1, 1 - half:half + 1])
    coeffs, samples = envelope._u_cells(*zeta_band(spec.k1), j, k, spec.ures)
    bins = {}
    for u in range(j.size):
        s = [(envelope._pick(sx, u), envelope._pick(sy, u))
             for sx, sy in samples]
        snorms = [v_sqrt(v_add(v_sqr(x), v_sqr(y)))[1] for x, y in s]
        for kind, (base, expr, mono) in envelope.KIND_INFO.items():
            if kind in envelope._MIRRORED or (
                    min(j[u], k[u]) < 1
                    and kind not in envelope.EXTENDED_U_KINDS):
                continue
            cs = [None if c is None else envelope._pick(
                v_abs(c) if expr == "eig_abs" else c, u)
                for c in coeffs[base]]
            b = bins.setdefault(kind, np.zeros(m) if mono
                                else np.full(m, -np.inf))
            for cells in envelope._t_chunks(spec.tres, envelope._CHUNK_CELLS):
                shapes = [None if c is None else envelope._shape(
                    expr, x, snorm, envelope._sample_arrays(x, cells, True),
                    cells) for c, x, snorm in zip(cs, s, snorms)]
                vals = envelope._kind_values(expr, cs, shapes)
                if mono:
                    np.maximum.at(b, cells.bmax_idx, vals)
                else:
                    for mask, idx in cells.span_bins:
                        np.maximum.at(b, idx, vals[mask])
    out = {}
    for kind, (_, _, mono) in envelope.KIND_INFO.items():
        v = bins[envelope._MIRRORED.get(kind, kind)]
        if mono:
            v = np.maximum(np.maximum.accumulate(v[::-1])[::-1],
                           envelope.FLOOR)
        out[kind] = v
    return out


@pytest.mark.parametrize("k1", [1, 16])
@pytest.mark.parametrize("tres, ures", [(2, 2), (2, 4), (3, 6)])
def test_build_matches_every_u_cell_sweep(k1, tres, ures):
    """Sweeping only the owner u-cells (j <= k) and forming each mirror's
    kinds from the owner's shapes gives the bits of a sweep of every u-cell
    on its own samples, in all 14 kinds."""
    spec = EnvelopeGridSpec(k1=k1, tres=tres, ures=ures)
    built, oracle = build_envelopes(spec), _every_u_cell(spec)
    for kind in ALL_KINDS:
        assert built[kind].values.tobytes() == oracle[kind].tobytes(), kind


@pytest.mark.parametrize("k1", [1, 16])
def test_upper_only_eig_abs_matches_full_interval(k1):
    """The eig_abs kinds form only the upper end of their sum; on every kept
    cell it equals max(|lo|, |hi|) of the whole interval evaluation
    (v_sub, the clamp at 1 of both ends, v_mul_nonneg, v_mul by the
    coefficient's absolute value, v_add), for u-cells of the normal and of
    the extended u-box, with and without the lower end of E."""
    ures = 10
    zlo, zhi = zeta_band(k1)
    j, k = np.array([1, 5, 3, -4, 0, 2]), np.array([1, 5, 4, -4, 3, -1])
    coeffs, samples = envelope._u_cells(zlo, zhi, j, k, ures)
    (cells,) = envelope._t_chunks(ures, envelope._CHUNK_CELLS)
    for u in range(len(j)):
        s = [(envelope._pick(sx, u), envelope._pick(sy, u))
             for sx, sy in samples]
        snorms = [v_sqrt(v_add(v_sqr(x), v_sqr(y)))[1] for x, y in s]
        for base in ("B", "W1"):
            cs = [None if c is None else envelope._pick(v_abs(c), u)
                  for c in coeffs[base]]
            want = None
            for c, sample in zip(cs, s):
                if c is not None:
                    *_, n2, E = envelope._sample_arrays(sample, cells, True)
                    m = v_sub(n2, (1.0, 1.0))
                    m = (np.maximum(m[0], 1.0), np.maximum(m[1], 1.0))
                    term = v_mul(c, v_mul_nonneg(m, E))
                    want = term if want is None else v_add(want, term)
            want = np.maximum(np.abs(want[0]), np.abs(want[1]))
            for lower in (True, False):
                shapes = [envelope._shape(
                    "eig_abs", sample, snorm,
                    envelope._sample_arrays(sample, cells, lower), cells)
                    for sample, snorm in zip(s, snorms)]
                got = envelope._kind_values("eig_abs", cs, shapes)
                assert got.tobytes() == want.tobytes(), (u, base, lower)


@pytest.mark.parametrize("tres", [1, 2, 10, 40])
def test_kept_cells_reach_every_bin(tres):
    """The kept cells' spans reach every signed bin 0..m-1, so no signed
    kind is left with an empty (-inf) bin, and the monotone kinds' bins
    lie in 0..m-1."""
    m = 10 * tres
    reached = np.zeros(m, dtype=bool)
    for cells in envelope._t_chunks(tres, envelope._CHUNK_CELLS):
        assert cells.bmax_idx.min() >= 0 and cells.bmax_idx.max() < m
        for mask, idx in cells.span_bins:
            reached[idx] = True
    assert reached.all()


def test_unreached_signed_bin_is_refused(monkeypatch):
    """A signed kind's bin that no t-cell reaches stays -inf; the build
    raises (under ``python -O`` too) instead of returning it as a bound."""
    chunks = envelope._t_chunks(2, envelope._CHUNK_CELLS)
    monkeypatch.setattr(envelope, "_workers", lambda: 1)
    monkeypatch.setattr(envelope, "_t_chunks", lambda tres, size: tuple(
        dataclasses.replace(c, span_bins=c.span_bins[1:]) for c in chunks))
    with pytest.raises(RuntimeError, match="bump_slope: no t-cell reaches"):
        build_envelopes(EnvelopeGridSpec(k1=1, tres=2, ures=2))


def test_tails_below_floor_on_every_band():
    """The premise of the trim: on every band, each monotone kind's tail,
    its bound beyond r = 10, is at most FLOOR, the least bin value."""
    for k1 in range(1, 17):
        for kind in ALL_KINDS:
            if envelope.KIND_INFO[kind][2]:
                tail = envelope._tail_value(kind, *zeta_band(k1))
                assert 0 < tail <= envelope.FLOOR, (k1, kind)


@pytest.fixture(scope="module")
def envs():
    return desk_envelopes(5)


def test_bump_envelope_attains_one(envs):
    table = EnvelopeSet(envs)
    assert table.tables["bump"][table.bins(0.0)] >= 1.0


def test_monotone_non_increasing(envs):
    for e in envs.values():
        if e.monotone:
            assert np.all(np.diff(e.values) <= 0), e.kind
            assert np.all(e.values >= envelope.FLOOR)


def test_tails_below_two_em9(envs):
    table = EnvelopeSet(envs)
    for e in envs.values():
        assert e.tail <= 2e-9, e.kind
        assert table.tables[e.kind][table.bins(10.5)] == e.tail


def test_signed_envelopes_negative_near_spike(envs):
    # the certifier's curvature test needs strict negativity close in: every
    # bin meeting [0, 0.05 * 4.5] is negative
    e = envs["bump_eig_max"]
    assert np.max(e.values[e.breakpoints[:-1] < 0.05 * 4.5]) < 0


def test_mc_soundness_sampled():
    """Reduced-size Monte-Carlo soundness audit (full size in acceptance)."""
    envs = desk_envelopes(5)
    counts = mc_envelope_violations(envs, 5, 2 * 10**4, seed=99)
    assert counts and all(v == 0 for v in counts.values()), counts


def test_resolution_monotonicity():
    """A finer t-grid never gives a larger (looser) envelope: on bands 1
    and 13, each bin of the tres = 8 build of every kind is at most the
    tres = 4 bin that contains it."""
    for k1 in (1, 13):
        coarse = build_envelopes(EnvelopeGridSpec(k1=k1, tres=4, ures=4))
        fine = build_envelopes(EnvelopeGridSpec(k1=k1, tres=8, ures=4))
        assert set(fine) == set(coarse) == set(ALL_KINDS)
        for kind in ALL_KINDS:
            assert np.all(fine[kind].values
                          <= np.repeat(coarse[kind].values, 2)), (k1, kind)


def test_tail_constants():
    assert (EPS_B, EPS_W) == (2e-12, 2e-10)


def test_tail_chain_direct_summation():
    """On every band the direct layer sum stays within the constants that
    block_norm_bounds adds: EPS_B for bump kinds, EPS_W for the wave kinds
    (which carry the extra 1/zeta_lo)."""
    for k1 in range(1, 17):
        zlo, zhi = zeta_band(k1)
        s = tail_chain_sum(zhi)
        assert 0 < s <= EPS_B, k1
        assert s / zlo <= EPS_W, k1


def test_cache_round_trip(tmp_path):
    """All 14 kinds of bands 1/5/9/13 come back bit for bit, with band and
    resolutions, and the builder's fresh files load."""
    for k1 in BANDS:
        envs = desk_envelopes(k1)
        path = save_envelope_set(str(tmp_path), envs)
        assert path == str(tmp_path / f"k{k1:02d}.npz")
        back = load_envelope_set(str(tmp_path), k1)
        assert set(back) == set(ALL_KINDS)
        for kind, e in envs.items():
            b = back[kind]
            assert b.kind == kind and b.monotone == e.monotone, (k1, kind)
            assert b.values.tobytes() == e.values.tobytes(), (k1, kind)
            assert (b.breakpoints.tobytes()
                    == e.breakpoints.tobytes()), (k1, kind)
            assert (np.float64(b.tail).tobytes()
                    == np.float64(e.tail).tobytes()), (k1, kind)
            assert (b.k1, b.tres, b.ures) == (k1, 10, 10), (k1, kind)
    # fresh builds at another resolution, the widest band included
    for k1 in (1, 16):
        save_envelope_set(str(tmp_path), build_envelopes(
            EnvelopeGridSpec(k1, tres=2, ures=2)))
        assert set(load_envelope_set(str(tmp_path), k1)) == set(ALL_KINDS)


def test_cache_errors(tmp_path):
    """A truncated file, a missing kind, a values array that does not
    fill its bins or another schema version is a FormatError."""
    path = save_envelope_set(str(tmp_path), desk_envelopes(5))
    with np.load(path, allow_pickle=False) as npz:
        fields = {key: npz[key] for key in npz.files}

    def refused(match, **changes):
        data = {**fields, **changes}
        np.savez(path, **{k: v for k, v in data.items() if v is not None})
        with pytest.raises(FormatError, match=match):
            load_envelope_set(str(tmp_path), 5)

    refused("no 'bump_eig.values'", **{"bump_eig.values": None})
    refused("bump has", **{"bump.values": fields["bump.values"][:-1]})
    refused("version 1", version=1)
    np.savez(path, **fields)
    data = pathlib.Path(path).read_bytes()
    for size in (0, 10, len(data) // 2, len(data) - 1):
        pathlib.Path(path).write_bytes(data[:size])
        with pytest.raises(FormatError):
            load_envelope_set(str(tmp_path), 5)


def _swapped(a, i, j):
    a = a.copy()
    a[[i, j]] = a[[j, i]]
    return a


def _nudged(a, i):
    a = a.copy()
    a[i] = np.nextafter(a[i], np.inf)
    return a


def _nan_at(a, i):
    a = a.copy()
    a[i] = np.nan
    return a


@pytest.mark.parametrize("match, change", [
    # header fields: 0-d integers that EnvelopeGridSpec accepts
    ("k1 is not 0-D", lambda f: {"k1": np.array([5])}),
    ("version is not 0-D", lambda f: {"version": 2.0}),
    ("tres 0", lambda f: {"tres": 0}),
    ("ures 3", lambda f: {"ures": 3}),
    # breakpoints: 1-D, strictly increasing, from 0.0 to 10.0 ...
    ("breakpoints is not 1-D", lambda f: {"breakpoints": f["breakpoints"][None]}),
    ("breakpoints do not rise", lambda f: {"breakpoints": f["breakpoints"][::-1]}),
    ("breakpoints do not rise",
     lambda f: {"breakpoints": _swapped(f["breakpoints"], 3, 4)}),
    ("breakpoints do not rise",
     lambda f: {"breakpoints": f["breakpoints"] / 2}),
    # ... and are the builder's grid of the stored tres, to the last bit
    ("breakpoints are not the tres 40 grid", lambda f: {"tres": 40, "ures": 40}),
    ("breakpoints are not the tres 10 grid",
     lambda f: {"breakpoints": _nudged(f["breakpoints"], 37)}),
    # every value finite (here a signed kind, which carries no floor)
    ("bump_slope.values is not 1-D finite",
     lambda f: {"bump_slope.values": _nan_at(f["bump_slope.values"], 7)}),
    # monotone kinds: >= FLOOR and non-increasing
    ("bump.values are not", lambda f: {"bump.values": -f["bump.values"]}),
    ("wave1_dx.values are not",
     lambda f: {"wave1_dx.values": f["wave1_dx.values"][::-1]}),
    # tails: finite and > 0
    ("wave2.tail 0.0 is not > 0", lambda f: {"wave2.tail": 0.0}),
    ("wave2.tail is not 0-D", lambda f: {"wave2.tail": np.inf}),
    ("wave2.tail is not 0-D", lambda f: {"wave2.tail": f["wave2.values"]}),
])
def test_cache_refuses_what_the_builder_never_writes(tmp_path, match, change):
    """Each load rule refuses a file that breaks it alone, naming the file
    and the field (the builder's own files meet every rule:
    ``test_cache_round_trip``)."""
    path = save_envelope_set(str(tmp_path), desk_envelopes(5))
    with np.load(path, allow_pickle=False) as npz:
        fields = {key: npz[key] for key in npz.files}
    np.savez(path, **{**fields, **change(fields)})
    with pytest.raises(FormatError, match=match) as exc:
        load_envelope_set(str(tmp_path), 5)
    assert str(exc.value).startswith(path)


def test_cache_set_refuses_another_band_or_kind(tmp_path):
    """A band-13 file renamed to band 1 must not load as band 1, and
    envelopes that share no breakpoints are not written."""
    os.rename(save_envelope_set(str(tmp_path), desk_envelopes(13)),
              tmp_path / "k01.npz")
    with pytest.raises(FormatError, match="band 13"):
        load_envelope_set(str(tmp_path), 1)
    mixed = {**desk_envelopes(1), "bump": desk_envelopes(5)["bump"]}
    with pytest.raises(ValueError, match="breakpoints"):
        save_envelope_set(str(tmp_path / "mixed"), mixed)
