"""Span tracing for the benchmark, installed from outside the package.

Every timed layer function is wrapped by re-binding its name in the module
(or class) where the caller looks it up, so nothing under ``src/`` changes
and the wrappers are removed again by ``Patches.restore``.  A span records
(name, start, end, parent span, op id); spans stay in memory and are
written once, when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, layer): the module is the one the *caller* reads the
# name from.  Layers named here partition the traced time; whatever they do
# not cover is reported as trace.other_s.
TIMED = (
    ("envelope", "build_envelopes", "envelope.reduce"),
    ("envelope", "v_add", "envelope.kernel"),
    ("envelope", "v_sub", "envelope.kernel"),
    ("envelope", "v_mul", "envelope.kernel"),
    ("envelope", "v_sqr", "envelope.kernel"),
    ("envelope", "v_sqrt", "envelope.kernel"),
    ("envelope", "v_exp_neg_half", "envelope.kernel"),
    ("envelope", "StepEnvelope.query_many", "envelope.query"),
    ("envelope", "StepEnvelope.seg_max", "envelope.query"),
    ("certify", "build_partition", "hexgeom.partition"),
    ("schur", "d_U", "hexgeom.d_U"),
    ("certify", "segment_cell_distance", "hexgeom.segment_distance"),
    ("certify", "block_norm_bounds", "schur.block_norms"),
    ("certify", "schur_bounds", "schur.chain"),
    ("certify", "qtri_segment_bounds", "certify.segment_bounds"),
    ("certify", "find_u1_u2", "certify.search"),
    ("solver", "synthesize", "solver.assemble"),
    ("solver", "assemble_operator", "solver.assemble"),
    ("solver", "kernel_eval", "kernels.eval"),
    ("solver", "operator_norm", "solver.opnorm"),
    ("solver", "basis_pursuit", "solver.pdhg"),
)
# counted, not timed: called too often for a span each
COUNTED = (("certify", "regions_integrals", "certify.regions_integrals"),)
# one span per recovery trial, its inclusive time filed under the op's tag
TRIAL = ("experiments", "recovery_trial")
# kernel functions whose result size is counted as elements processed
EXP_FUNCTION = "v_exp_neg_half"


class Patches:
    """Re-bound names and their originals, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def rebind(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _owner(pkg, module: str, dotted: str):
    """(object holding the name, attribute) for ``Class.attr`` or ``attr``."""
    owner = getattr(pkg, module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self):
        self.op = -1                      # op id of the spans being recorded
        self.tag = ""                     # tag of the current op
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("l")
        self.ops = array("l")
        self._stack: list[list] = []      # [span index, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.elements: Counter = Counter()
        self.trial_s: defaultdict[str, float] = defaultdict(float)

    def _span(self, name: str, layer: str | None, fn, on_result=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        starts, ends, stack = self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            self.parents.append(stack[-1][0] if stack else -1)
            self.names.append(nid)
            self.ops.append(self.op)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[idx] = t
                stack.pop()
                dur = t - starts[idx]
                if stack:
                    stack[-1][1] += dur
                if layer is None:
                    self.trial_s[self.tag] += dur
                else:
                    self.self_s[layer] += dur - frame[1]
                    self.calls[layer] += 1
            if on_result is not None:
                on_result(out)
            return out

        return span

    def _counter(self, layer: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, pkg, patches: Patches) -> list[str]:
        """Wrap every layer function of the freshly imported package.

        Returns the names it could not find; their layers then read 0, so a
        refactor that moves a function shows up without breaking the run.
        """
        missing = []

        def rebind(module, dotted, wrap):
            try:
                owner, attr = _owner(pkg, module, dotted)
                patches.rebind(owner, attr, wrap)
            except (AttributeError, KeyError):
                missing.append(f"{module}.{dotted}")

        for module, dotted, layer in TIMED:
            on_result = None
            if layer == "envelope.kernel":
                on_result = self._element_counter(dotted == EXP_FUNCTION)
            rebind(module, dotted, functools.partial(
                self._span, f"{module}.{dotted}", layer, on_result=on_result))
        for module, dotted, layer in COUNTED:
            rebind(module, dotted, functools.partial(self._counter, layer))
        rebind(*TRIAL, functools.partial(self._span, ".".join(TRIAL), None))
        return missing

    def _element_counter(self, is_exp: bool):
        elements = self.elements

        def count(out):
            n = int(np.size(out[0]))
            elements["envelope.kernel"] += n
            if is_exp:
                elements["envelope.exp"] += n

        return count

    def accounted_s(self) -> float:
        """Sum of the self times of every timed layer."""
        return sum(self.self_s.values())

    def write(self, path, t0: float, meta: dict) -> None:
        """Write every span (times in seconds from ``t0``) and ``meta``."""
        np.savez_compressed(
            path,
            names=np.array(self.span_names),
            name=np.frombuffer(self.names, dtype=np.int_),
            start=np.frombuffer(self.starts, dtype=float) - t0,
            end=np.frombuffer(self.ends, dtype=float) - t0,
            parent=np.frombuffer(self.parents, dtype=np.int_),
            op=np.frombuffer(self.ops, dtype=np.int_),
            meta=np.array(json.dumps(meta)))


def span_cost_s(calls: int = 20000) -> float:
    """Measured time one span adds to a call of a trivial function."""
    def noop():
        return None

    wrapped = Tracer()._span("probe", "probe", noop)
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - t - plain, 0.0) / calls
