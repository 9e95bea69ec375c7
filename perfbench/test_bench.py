"""The benchmark's own checks: run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench
import tracer as tracing


@pytest.fixture
def pkg():
    return bench.load_package()


@pytest.fixture
def arrays():
    return bench.load_envelope_arrays()


@pytest.fixture
def reference():
    return json.loads(bench.REFERENCE.read_text())


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER)


def _outputs(pkg, arrays):
    """Small instances of every workload's op, as comparable bytes."""
    env = pkg.envelope.build_envelopes(pkg.envelope.EnvelopeGridSpec(
        5, tres=2, ures=2))
    config = pkg.certify.CertifyConfig(bench.step_envelopes(pkg, arrays),
                                       n_segments=10)
    reports = []
    for delta, k1 in ((6.0, 13), (4.2, 1), (5.0, 5)):
        rep = pkg.certify.certify_cell(delta, k1, config)
        reports.append(repr(dataclasses.astuple(rep)))
    rows = pkg.experiments.phase_diagram("airy", [3.0], [bench.ZETA], 1, 0)
    return ([(k, e.values.tobytes(), e.tail) for k, e in sorted(env.items())],
            reports, rows)


def test_traced_outputs_are_bit_identical_and_names_restored(pkg, arrays):
    plain = _outputs(pkg, arrays)
    names = {(m, d): tracing._owner(pkg, m, d) for m, d, _ in tracing.TIMED}
    before = {key: owner.__dict__[attr] for key, (owner, attr) in names.items()}
    patches = tracing.Patches()
    tr = tracing.Tracer()
    assert tr.install(pkg, patches) == []
    try:
        traced = _outputs(pkg, arrays)
    finally:
        patches.restore()
    assert traced == plain
    assert tr.calls["envelope.kernel"] > 0 and tr.calls["solver.pdhg"] == 1
    assert tr.calls["certify.search"] > 0 and len(tr.starts) > 0
    for key, (owner, attr) in names.items():
        assert owner.__dict__[attr] is before[key]


def _measure(workload):
    return bench.tally(bench.measure(workload, 0.0, 0)[0])


def test_envelope_value_moved_one_ulp_is_failed(pkg, arrays, reference,
                                                monkeypatch):
    fixed = bench.step_envelopes(pkg, arrays)
    workload = bench.EnvelopeBuild(pkg, arrays, reference, None)
    monkeypatch.setattr(pkg.envelope, "build_envelopes",
                        lambda spec: fixed[spec.k1])
    assert _measure(workload) == (len(bench.BUILD_BANDS), 0, True)
    bump = fixed[bench.BUILD_BANDS[0]]["bump"]
    bump.values[7] = np.nextafter(bump.values[7], np.inf)
    assert _measure(workload) == (len(bench.BUILD_BANDS), 1, False)


def test_flipped_verdict_is_failed(pkg, arrays, reference, monkeypatch):
    workload = bench.CertifySweep(pkg, arrays, reference, None)
    ref = workload.ref

    def recorded(delta, k1, config):
        i = int(np.flatnonzero(workload.grid == delta)[0])
        r = ref[f"{k1}:{i}"]
        if "error" in r:
            raise ValueError("recorded as raising")
        verdict = r["verdict"]
        if (k1, i) == (5, 20):
            verdict = ("failed(q_upper)" if verdict == "certified"
                       else "certified")
        return pkg.certify.CertificateReport(delta, k1, r["u1"], r["u2"], (),
                                             None, True, verdict)

    monkeypatch.setattr(pkg.certify, "certify_cell", recorded)
    records, _ = bench.measure(workload, 0.0, 0)
    assert bench.tally(records) == (164, 5, False)
    assert sum(r.outcome == "raised" for r in records) == 4


def test_capped_trial_is_failed_not_unrecovered(pkg, arrays, reference,
                                                monkeypatch):
    patches = tracing.Patches()
    watch = bench.watch_capped(pkg, patches)
    workload = bench.PhaseDiagram(pkg, arrays, reference, watch)

    def capped(K, y, *args, **kwargs):
        raise pkg.solver.NotConverged("cap", np.zeros(K.shape[1]))

    monkeypatch.setattr(pkg.solver, "_primal_dual", capped)
    op = ("airy", 3.0, 0)
    try:
        out = workload.run(op)
    finally:
        patches.restore()
    assert out == (0, True)
    assert workload.check(op, out) == ("capped", "capped")
    assert watch.capped == 1


def test_bare_directory_fails_without_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no package to run."""
    shutil.copy(bench.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cp = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                         "phase_diagram", "--seconds", "1"], cwd=tmp_path,
                        capture_output=True, text=True, timeout=120)
    assert cp.returncode != 0
    assert '"correct"' not in cp.stdout
