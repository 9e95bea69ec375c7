#!/usr/bin/env python3
"""Record the benchmark's fixed inputs and reference outputs.

    python3 perfbench/make_reference.py

Builds the desk-resolution envelope sets of bands 1/5/9/13 with the
checkout's own code into data/envelopes_desk.npz.  These are both the inputs
of certify_sweep and the reference of envelope_build.  Then runs every
certify cell and every phase-diagram trial of the benchmark once and writes
verdict/u1/u2 and trial outcomes to data/reference.json, with the machine
record.  Run it only to move the references to a new commit; it takes about
two minutes.
"""

import run as bench  # first: it pins the BLAS thread count before numpy loads

import json
import sys
from collections import Counter

import numpy as np

import tracer as tracing


def main() -> int:
    pkg = bench.load_package()
    env = pkg.envelope
    arrays = {}
    for k1 in bench.BANDS:
        built = env.build_envelopes(
            env.EnvelopeGridSpec(k1, tres=bench.RES, ures=bench.RES))
        for kind, e in built.items():
            arrays[f"{k1}.{kind}.values"] = e.values
            arrays[f"{k1}.{kind}.breakpoints"] = e.breakpoints
            arrays[f"{k1}.{kind}.tail"] = np.float64(e.tail)
            arrays[f"{k1}.{kind}.monotone"] = np.bool_(e.monotone)
    bench.ENVELOPES.parent.mkdir(exist_ok=True)
    np.savez(bench.ENVELOPES, **arrays)

    envelopes = bench.load_envelope_arrays()
    patches = tracing.Patches()
    watch = bench.watch_capped(pkg, patches)
    try:
        sweep = bench.CertifySweep(pkg, envelopes, {"certify": {}}, watch)
        certify, stages, thresholds = {}, Counter(), {}
        for k1, i in sweep.ops():
            delta = float(sweep.grid[i])
            try:
                rep = sweep.run((k1, i))
            except ValueError as exc:
                certify[f"{k1}:{i}"] = {"delta": delta,
                                        "error": type(exc).__name__}
                stages["error"] += 1
                continue
            certify[f"{k1}:{i}"] = {"delta": delta, "verdict": rep.verdict,
                                    "u1": rep.u1, "u2": rep.u2}
            stages[rep.stage or "certified"] += 1
            if rep.certified:
                thresholds.setdefault(str(k1), delta)

        trials = bench.PhaseDiagram(pkg, envelopes, {"phase": {}}, watch)
        phase = {}
        for op in trials.ops():
            successes, capped = trials.run(op)
            phase[bench.trial_key(op)] = {"recovered": successes == 1,
                                          "capped": capped}
    finally:
        patches.restore()

    reference = {"recorded_on": bench.machine_record(),
                 "thresholds": thresholds, "stages": dict(stages),
                 "certify": certify, "phase": phase}
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps({"thresholds": thresholds, "stages": dict(stages),
                      "phase": Counter("capped" if v["capped"] else
                                       "recovered" if v["recovered"] else
                                       "not_recovered"
                                       for v in phase.values())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
