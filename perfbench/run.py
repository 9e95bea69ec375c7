#!/usr/bin/env python3
"""Benchmark of deconv2d's two jobs: proving recovery and measuring it.

Run one workload in one process, from the root of a checkout:

    python3 perfbench/run.py --workload certify_sweep --seed 3 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):

  envelope_build  build_envelopes at desk resolution, one op per band 1 and 13
  certify_sweep   certify_cell over bands 1/5/9/13 x the Delta grid of
                  `deconv2d certify --delta-min 4.0 --delta-max 6.0`
  phase_diagram   single-trial phase_diagram calls on both sides of the
                  recovery transition

A run repeats whole passes over the workload's ops until --seconds have been
measured; the seed sets the op order of every pass.  Each output is checked
against the reference recorded in perfbench/data.  With --trace 0 the run
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload all --seed 3

runs every workload untraced and traced, one child process at a time, and
adds the tracing overhead (traced minus untraced wall time per pass).
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import os

# Load comes from this one process: one BLAS thread, never more than nproc.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import hashlib
import importlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ENVELOPES = HERE / "data" / "envelopes_desk.npz"
REFERENCE = HERE / "data" / "reference.json"
OUT = HERE / "out"

MODULES = ("envelope", "hexgeom", "schur", "certify", "kernels", "solver",
           "experiments")
BANDS = (1, 5, 9, 13)
# envelope_build builds the narrowest and the widest grid-spacing band only:
# 5 and 9 run the same code for the same time and would add 16 s per run.
BUILD_BANDS = (1, 13)
RES = 10  # desk resolution: tres = ures = 10
# np.arange arguments of `deconv2d certify --delta-min 4.0 --delta-max 6.0`
# (default step 0.05).  Unrounded on purpose: the grid holds
# Delta = 5.749999999999994, which raises ValueError on every band (B2).
GRID_ARGS = (4.0, 6.0 + 1e-12, 0.05)
ZETA = 0.5
N_SPIKES = 25
# Phase-diagram trial pool: (kernel, Delta in kernel units, master seed of a
# one-cell, one-trial phase_diagram call).  Gaussian 0.75 hits the 10^5
# iteration cap; Gaussian 1.5 at seed 2 converges slowly (seeds 0 and 1 are
# capped like 0.75); Gaussian 2.0 and Airy 3.0 are well separated.
# The 40 short trials give op_p50_ms enough samples to be steady.
TRIALS = (("gaussian", 0.75, 0), ("gaussian", 1.5, 2),
          *(("gaussian", 2.0, m) for m in range(20)),
          *(("airy", 3.0, m) for m in range(20)))
SETUP_REPS = 3
STAGES = ("certified", "schur", "coefficient_bounds", "far_field",
          "no_negative_curvature", "no_gradient_extension", "q_upper",
          "q_lower", "error")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
_SELF_TIMED = ("envelope.kernel", "envelope.reduce", "envelope.query",
               "hexgeom.partition", "hexgeom.d_U", "hexgeom.segment_distance",
               "schur.block_norms", "schur.chain", "certify.segment_bounds",
               "certify.search", "solver.assemble", "kernels.eval",
               "solver.opnorm", "solver.pdhg")
_CALLS = {"envelope.kernel_calls": "envelope.kernel",
          "envelope.query_calls": "envelope.query",
          "hexgeom.d_U_calls": "hexgeom.d_U",
          "hexgeom.segment_distance_calls": "hexgeom.segment_distance",
          "certify.segment_bounds_calls": "certify.segment_bounds",
          "certify.regions_integrals_calls": "certify.regions_integrals",
          "kernels.eval_calls": "kernels.eval",
          "solver.bp_calls": "solver.pdhg"}
_TRIAL_TAGS = tuple(dict.fromkeys(f"{k}-{d}" for k, d, _ in TRIALS))
PER_LAYER = (
    *((f"{layer}_s", "s") for layer in _SELF_TIMED),
    *((name, "count") for name in _CALLS),
    ("envelope.kernel_elements", "count"),
    ("envelope.exp_elements", "count"),
    *((f"certify.stage.{stage}", "count") for stage in STAGES),
    ("solver.capped", "count"),
    *((f"experiments.trial_s.{tag}", "s") for tag in _TRIAL_TAGS),
    ("trace.setup_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.passes", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_est_s", "s"),
)


class SetupError(RuntimeError):
    """The checkout lacks the package or the benchmark's data."""


# -- set-up --------------------------------------------------------------------

def load_package() -> SimpleNamespace:
    """Import deconv2d from this checkout's src/, as fresh module objects."""
    if not (SRC / "deconv2d" / "__init__.py").is_file():
        raise SetupError(f"no deconv2d package under {SRC}")
    for name in [m for m in sys.modules
                 if m == "deconv2d" or m.startswith("deconv2d.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{m: importlib.import_module(f"deconv2d.{m}")
                             for m in MODULES})
    if SRC not in Path(pkg.envelope.__file__).resolve().parents:
        raise SetupError(f"deconv2d imported from {pkg.envelope.__file__}, "
                         f"not from {SRC}")
    return pkg


def load_envelope_arrays() -> dict:
    """k1 -> kind -> SimpleNamespace(values, breakpoints, tail, monotone)."""
    out: dict = {}
    with np.load(ENVELOPES, allow_pickle=False) as npz:
        for key in npz.files:
            k1, kind, field = key.split(".")
            entry = out.setdefault(int(k1), {}).setdefault(
                kind, SimpleNamespace())
            setattr(entry, field, npz[key])
    for kinds in out.values():
        for e in kinds.values():
            e.tail = float(e.tail)
            e.monotone = bool(e.monotone)
    return out


def watch_capped(pkg, patches: tracing.Patches) -> SimpleNamespace:
    """Note every NotConverged that leaves basis_pursuit, re-raised as is.

    recovery_trial turns a capped solve into a plain "not recovered"; seen
    from outside, a trial is recovered, not recovered or capped.
    """
    watch = SimpleNamespace(capped=0)
    not_converged = pkg.solver.NotConverged

    def wrap(basis_pursuit):
        def watched(*args, **kwargs):
            try:
                return basis_pursuit(*args, **kwargs)
            except not_converged:
                watch.capped += 1
                raise
        return watched

    patches.rebind(pkg.solver, "basis_pursuit", wrap)
    return watch


def step_envelopes(pkg, arrays: dict) -> dict:
    """The benchmark's fixed desk envelopes as the package's StepEnvelope."""
    return {k1: {kind: pkg.envelope.StepEnvelope(
                kind=kind, monotone=e.monotone,
                breakpoints=e.breakpoints.copy(), values=e.values.copy(),
                tail=e.tail, k1=k1, tres=RES, ures=RES)
                 for kind, e in kinds.items()}
            for k1, kinds in arrays.items()}


def _same_bits(env, ref) -> bool:
    return (np.asarray(env.values, dtype=float).tobytes() == ref.values.tobytes()
            and np.asarray(env.breakpoints, dtype=float).tobytes()
            == ref.breakpoints.tobytes()
            and np.float64(env.tail).tobytes() == np.float64(ref.tail).tobytes())


# -- workloads -------------------------------------------------------------------
# check() returns (outcome, label): outcome is ok, raised, capped or mismatch
# (every outcome but ok is a failed op; mismatch also makes the run incorrect).

class EnvelopeBuild:
    """One op: build_envelopes(EnvelopeGridSpec(k1)) at desk resolution."""

    def __init__(self, pkg, arrays: dict, reference: dict, watch):
        self.pkg, self.ref = pkg, arrays

    def warm_up(self):
        pass

    def ops(self) -> list:
        return list(BUILD_BANDS)

    def tag(self, k1) -> str:
        return f"band{k1}"

    def run(self, k1):
        env = self.pkg.envelope
        return env.build_envelopes(env.EnvelopeGridSpec(k1, tres=RES, ures=RES))

    def check(self, k1, out):
        ref = self.ref[k1]
        same = set(out) == set(ref) and all(
            _same_bits(out[kind], ref[kind]) for kind in ref)
        return ("ok" if same else "mismatch"), ""

    def summary(self, records) -> list[str]:
        return []


class CertifySweep:
    """One op: certify_cell(Delta, k1) on the fixed desk envelopes."""

    def __init__(self, pkg, arrays: dict, reference: dict, watch):
        self.pkg = pkg
        self.grid = np.arange(*GRID_ARGS)
        self.config = pkg.certify.CertifyConfig(step_envelopes(pkg, arrays))
        self.ref = reference["certify"]

    def warm_up(self):
        # The first cell of every sweep fills the segment-cell distance
        # table; a CLI user pays that on every invocation.
        self.pkg.certify.certify_cell(self.grid[-1], BANDS[-1], self.config)

    def ops(self) -> list:
        return [(k1, i) for k1 in BANDS for i in range(len(self.grid))]

    def tag(self, op) -> str:
        return f"band{op[0]}"

    def run(self, op):
        k1, i = op
        return self.pkg.certify.certify_cell(self.grid[i], k1, self.config)

    def check(self, op, rep):
        ref = self.ref[f"{op[0]}:{op[1]}"]
        label = rep.stage or "certified"
        if "error" in ref:
            # raised when the references were recorded: no verdict to compare
            return "ok", label
        same = ((rep.verdict, rep.u1, rep.u2)
                == (ref["verdict"], ref["u1"], ref["u2"]))
        return ("ok" if same else "mismatch"), label

    def summary(self, records) -> list[str]:
        first = {}
        for r in records:
            if r.label == "certified":
                k1, i = r.op
                first[k1] = min(first.get(k1, i), i)
        thresholds = ", ".join(
            f"band {k1}: {float(self.grid[first[k1]]):.2f}" if k1 in first
            else f"band {k1}: none" for k1 in BANDS)
        stages = Counter(r.label for r in records)
        return [f"  thresholds (least certified Delta): {thresholds}",
                "  stages: " + ", ".join(f"{s} {stages[s]}" for s in STAGES
                                         if stages[s])]


class PhaseDiagram:
    """One op: phase_diagram(kernel, [Delta], [0.5], 1 trial, seed)."""

    def __init__(self, pkg, arrays: dict, reference: dict, watch):
        self.pkg, self.ref, self.watch = pkg, reference["phase"], watch

    def warm_up(self):
        pass

    def ops(self) -> list:
        return list(TRIALS)

    def tag(self, op) -> str:
        return f"{op[0]}-{op[1]}"

    def run(self, op):
        kernel, delta, seed = op
        capped = self.watch.capped
        rows = self.pkg.experiments.phase_diagram(
            kernel, [delta], [ZETA], 1, seed, pattern="full_grid",
            n_spikes=N_SPIKES)
        return rows[0][5], self.watch.capped > capped

    def check(self, op, out):
        successes, capped = out
        if capped:
            return "capped", "capped"
        label = "recovered" if successes == 1 else "not_recovered"
        ref = self.ref[trial_key(op)]
        if ref["capped"]:
            # capped when the references were recorded: no outcome to compare
            return "ok", label
        same = successes in (0, 1) and (successes == 1) == ref["recovered"]
        return ("ok" if same else "mismatch"), label

    def summary(self, records) -> list[str]:
        lines = []
        for tag in _TRIAL_TAGS:
            got = Counter(r.label for r in records if self.tag(r.op) == tag)
            ms = [1000 * r.secs for r in records if self.tag(r.op) == tag]
            lines.append(f"  {tag}: " + ", ".join(
                f"{k} {got[k]}" for k in ("recovered", "not_recovered",
                                           "capped", "error") if got[k])
                + f"; median {statistics.median(ms):.1f} ms")
        return lines


WORKLOADS = {"envelope_build": EnvelopeBuild,
             "certify_sweep": CertifySweep,
             "phase_diagram": PhaseDiagram}


def trial_key(op) -> str:
    kernel, delta, seed = op
    return f"{kernel}-{delta}-{seed}"


def set_up(name: str, trace: bool):
    """Import, load the fixed inputs and fill lazy caches; with ``trace``
    the layer wrappers go in before any of the package's work runs."""
    pkg = load_package()
    patches = tracing.Patches()
    watch = watch_capped(pkg, patches)
    tracer, missing = None, []
    if trace:
        tracer = tracing.Tracer()
        missing = tracer.install(pkg, patches)
    try:
        arrays = load_envelope_arrays()
        reference = json.loads(REFERENCE.read_text())
        workload = WORKLOADS[name](pkg, arrays, reference, watch)
        workload.warm_up()
    except BaseException:
        patches.restore()
        raise
    return SimpleNamespace(workload=workload, patches=patches,
                           watch=watch, tracer=tracer, missing=missing)


# -- measuring -------------------------------------------------------------------

def measure(workload, seconds: float, seed: int, tracer=None):
    """Whole passes over the ops, in seeded order, until ``seconds`` of
    passes have run.  Returns (records, pass wall times)."""
    rng = random.Random(seed)
    records, walls = [], []
    while sum(walls) < seconds or not walls:
        order = workload.ops()
        rng.shuffle(order)
        done = []
        start = time.perf_counter()
        for op in order:
            if tracer is not None:
                tracer.op, tracer.tag = len(records) + len(done), workload.tag(op)
            t = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a raising op is a failed op; go on
                out = exc
            done.append((op, time.perf_counter() - t, out))
        walls.append(time.perf_counter() - start)
        for op, secs, out in done:  # checked outside the timed pass
            if isinstance(out, Exception):
                outcome, label = "raised", "error"
                detail = f"{type(out).__name__}: {out}"
            else:
                (outcome, label), detail = workload.check(op, out), ""
            records.append(SimpleNamespace(op=op, secs=secs, outcome=outcome,
                                           label=label, detail=detail))
    return records, walls


def tally(records):
    """(attempted, failed, correct): every outcome but ok is a failure; a
    mismatch against the reference also makes the run incorrect."""
    failed = sum(r.outcome != "ok" for r in records)
    correct = not any(r.outcome == "mismatch" for r in records)
    return len(records), failed, correct


def child_setup_s(name: str) -> float:
    """Set-up time of a fresh process (import, inputs, lazy caches)."""
    cp = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--setup-only"], capture_output=True, text=True, timeout=150,
        check=True)
    return json.loads(cp.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end_metrics(records, walls, setups) -> dict:
    secs = [r.secs for r in records]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(records) / sum(walls),
        "op_p50_ms": 1000 * statistics.median(secs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(state, records, walls, setup_s) -> dict:
    tr = state.tracer
    m = {f"{layer}_s": tr.self_s[layer] for layer in _SELF_TIMED}
    m.update({name: tr.calls[layer] for name, layer in _CALLS.items()})
    m["envelope.kernel_elements"] = tr.elements["envelope.kernel"]
    m["envelope.exp_elements"] = tr.elements["envelope.exp"]
    stages = Counter(r.label for r in records
                     if isinstance(state.workload, CertifySweep))
    m.update({f"certify.stage.{s}": stages[s] for s in STAGES})
    m["solver.capped"] = state.watch.capped
    m.update({f"experiments.trial_s.{tag}": tr.trial_s[tag]
              for tag in _TRIAL_TAGS})
    m["trace.setup_s"] = setup_s
    m["trace.wall_s"] = sum(walls)
    m["trace.other_s"] = setup_s + sum(walls) - tr.accounted_s()
    m["trace.passes"] = len(walls)
    m["trace.spans"] = len(tr.starts)
    m["trace.overhead_est_s"] = len(tr.starts) * tracing.span_cost_s()
    return m


# -- machine record ----------------------------------------------------------------

def _git_head() -> str:
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "deconv2d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, str]:
    """(name and version, thread count) of the BLAS numpy loaded."""
    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (OPENBLAS_NUM_THREADS)"
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps")
                if "openblas" in line.lower() and line.rstrip().endswith(".so")}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    fn = getattr(dll, sym)
                    fn.restype = ctypes.c_int
                    threads = str(fn())
                    break
    except OSError:
        pass
    return f"{dep['name']} {dep['version']}", threads


def machine_record() -> dict:
    import scipy
    blas, threads = _blas()
    return {"git": _git_head(), "source_sha256": _source_sha256(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads}


# -- entry points ------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    try:
        state = set_up(args.workload, bool(args.trace))
    except (SetupError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot set up {args.workload}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        state.patches.restore()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        records, walls = measure(state.workload, args.seconds, args.seed,
                                 state.tracer)
    finally:
        state.patches.restore()
    attempted, failed, correct = tally(records)
    machine = machine_record()
    if args.trace:
        metrics = per_layer_metrics(state, records, walls, setup_s)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        state.tracer.write(OUT / f"spans-{args.workload}.npz", T0,
                           {"machine": machine, "seed": args.seed,
                            "workload": args.workload})
    else:
        setups = [setup_s] + [child_setup_s(args.workload)
                              for _ in range(SETUP_REPS - 1)]
        metrics = end_to_end_metrics(records, walls, setups)
        units = dict(END_TO_END)

    print("machine: " + json.dumps(machine))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} pass(es), {attempted} ops")
    if state.missing:
        print("  not found, layer reads 0: " + ", ".join(state.missing))
    for name, value in metrics.items():
        print(f"  {name:34s} {_fmt(value):>12s} {units[name]}")
    secs = sorted(r.secs for r in records)
    if len(secs) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(secs, n=10)[-1]
        print(f"  op_p90_ms {1000 * p90:.6g} ms (n = {len(secs)})")
    print(f"  op samples: n = {len(secs)}; failed_share: {failed}/{attempted}"
          f" = {failed / attempted:.4f}")
    for r in records:
        if r.outcome != "ok":
            print(f"  failed op {r.op}: {r.outcome} {r.detail}".rstrip())
    for line in state.workload.summary(records):
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    for name in WORKLOADS:
        result = {}
        for trace in (0, 1):
            cp = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=600)
            print(cp.stdout, end="")
            if cp.returncode:
                print(cp.stderr, end="", file=sys.stderr)
                return cp.returncode
            result[trace] = json.loads(cp.stdout.strip().splitlines()[-1])
        plain = result[0]["metrics"]["wall_s"]["value"]
        traced = result[1]["metrics"]
        per_pass = traced["trace.wall_s"]["value"] / traced["trace.passes"]["value"]
        print(f"{name}: tracing overhead {per_pass - plain:+.3f} s per pass "
              f"({per_pass / plain - 1:+.1%} of the untraced wall_s)")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum measured time; passes are never cut")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
