"""Smoke test: each fast demo script runs to completion.

The demos read the package's public results (for example
``CertificateReport.segments``), so an API change that breaks one shows up
here.  ``recovery_phase.py`` is left out: its solver trials take about
30 s on two cores, against about 5 s for the four demos here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["certify_band", "conditioning",
                                  "dual_certificate", "envelope_profiles"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
