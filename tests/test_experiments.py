import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_envelopes, phase_reference
from deconv2d import envelope
from deconv2d.envelope import ALL_KINDS, load_envelope_set, save_envelope_set
from deconv2d.experiments import (
    cli_main,
    parse_config,
    phase_diagram,
    svd_conditioning,
    write_csv,
)


@pytest.fixture(scope="module")
def svd_rows():
    return svd_conditioning([2.0, 0.5, 0.0], [0.5])


def test_svd_duplicate_lattice_degenerates(svd_rows):
    # 64 coincident spikes leave a rank-one matrix: everything past the
    # leading singular value vanishes, including the median
    dp0 = [r for r in svd_rows if r[0] == 0.0][0]
    assert dp0[2] == 0.0 and dp0[3] == 0.0


def test_svd_conditioning_drop(svd_rows):
    by_dp = {r[0]: r for r in svd_rows}
    assert by_dp[0.5][2] / by_dp[2.0][2] < 1e-2
    # singular values are positive and ordered within each row
    for r in svd_rows:
        assert 0.0 <= r[2] <= r[3]


def test_svd_zeta_insensitive():
    rows = svd_conditioning([1.5], [0.2, 0.6, 1.0])
    smin = [r[2] for r in rows]
    assert max(smin) / min(smin) < 10.0


def test_phase_diagram_rates_and_determinism():
    rows = phase_diagram("gaussian", [2.0], [0.5], trials=2, seed=1)
    assert rows == phase_diagram("gaussian", [2.0], [0.5], trials=2, seed=1)
    (delta, zeta, kernel, pattern, trials, succ, rate, undecided), = rows
    assert (delta, zeta, kernel, pattern) == (2.0, 0.5, "gaussian", "full_grid")
    assert succ == trials == 2 and rate == 1.0 and undecided == 0


def test_phase_diagram_benchmark_trials_keep_their_outcomes():
    """Every uncapped trial of the benchmark pool (full_grid, 25 spikes,
    zeta 0.5 kernel units, one trial per call) is decided as recorded."""
    uncapped = {key: ref["recovered"] for key, ref in phase_reference().items()
                if not ref["capped"]}
    assert uncapped
    wrong = []
    for key, recovered in uncapped.items():
        kernel, delta, seed = key.rsplit("-", 2)
        (row,) = phase_diagram(kernel, [float(delta)], [0.5], 1, int(seed),
                               pattern="full_grid", n_spikes=25)
        if (row[5] == 1) != recovered:
            wrong.append(key)
    assert not wrong, wrong


def test_phase_diagram_unknown_kernel():
    with pytest.raises(ValueError, match="boxcar"):
        phase_diagram("boxcar", [2.0], [0.5], 1, 0)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    vals = [0.1 + 0.2, 1e-300, -3.5, 7.062499999999999]
    write_csv(str(path), ["a", "b", "c", "d"], [vals])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "c", "d"]
    assert [float(x) for x in rows[1]] == vals
    assert open(path, "rb").read().count(b"\r") == 0  # LF endings


def test_parse_config(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("# a comment\nseed = 9\ndelta-step = 0.1  # inline\n\n")
    assert parse_config(str(p)) == {"seed": "9", "delta_step": "0.1"}
    p.write_text("no equals here\n")
    with pytest.raises(ValueError):
        parse_config(str(p))


def test_cli_recover_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli_main(["recover", "--delta", "2.0", "--zeta", "0.5",
                   "--trials", "2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["delta", "zeta", "kernel", "pattern", "trials",
                             "successes", "rate", "undecided"]
    assert rows[0]["rate"] == "1.0" and rows[0]["kernel"] == "gaussian"


def test_cli_recover_is_phase_diagram(tmp_path):
    """``recover`` is another name for ``phase-diagram``: the same flags,
    ``--n-spikes`` included, write the same bytes."""
    flags = ["--delta", "2.0", "--zeta", "0.5", "--trials", "2",
             "--n-spikes", "9"]
    written = []
    for command in ("recover", "phase-diagram"):
        out = tmp_path / f"{command}.csv"
        assert cli_main([command] + flags + ["--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_cli_envelopes_file_count(tmp_path):
    out = tmp_path / "env"
    rc = cli_main(["envelopes", "--k1", "5", "--resolution", "4",
                   "--out", str(out)])
    assert rc == 0
    assert os.listdir(out) == ["k05.npz"]
    envs = load_envelope_set(str(out), 5)
    assert set(envs) == set(ALL_KINDS)
    assert (envs["bump"].tres, envs["bump"].ures) == (4, 4)


def test_cli_envelopes_resolution_cap(tmp_path, capsys, monkeypatch):
    """Resolution 46 needs 500 * 46**4 cells, more than the cap: the CLI
    refuses it before a t-grid of that resolution is built.  The paper
    resolution (40) passes the cap and reaches the grid."""
    def reached(tres, size):
        raise RuntimeError(f"grid at {tres}")

    monkeypatch.setattr(envelope, "_t_chunks", reached)
    out = tmp_path / "env"
    rc = cli_main(["envelopes", "--k1", "1", "--resolution", "46",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{500 * 46**4} cells > cap {envelope.MAX_CELLS}" in err
    assert "grid at" not in err
    assert not out.exists()

    rc = cli_main(["envelopes", "--k1", "1", "--resolution", "paper",
                   "--out", str(out)])
    assert rc == 2
    assert "error: grid at 40" in capsys.readouterr().err


def test_cli_certify_sweep(tmp_path):
    save_envelope_set(str(tmp_path), desk_envelopes(5))
    out = tmp_path / "c.csv"
    rc = cli_main(["certify", "--delta-min", "5.4", "--delta-max", "5.6",
                   "--delta-step", "0.1", "--zeta-bands", "5",
                   "--envelope-cache", str(tmp_path), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k1", "zeta_lo", "zeta_hi", "delta", "verdict",
                             "u1", "u2", "alpha_inf", "beta_inf", "gamma_inf",
                             "alpha_lb", "stage"]
    by_delta = {float(r["delta"]): r for r in rows}
    assert by_delta[5.5]["verdict"] == "certified"
    assert by_delta[5.5]["stage"] == ""
    assert float(by_delta[5.5]["alpha_inf"]) <= 2.0


def test_cli_certify_readme_grid(tmp_path):
    """The README's unrounded 4.0..6.0 grid holds Delta = 5.749999999999994,
    whose last segment edge once overshot Delta and crashed the command."""
    save_envelope_set(str(tmp_path), desk_envelopes(5))
    out = tmp_path / "c.csv"
    rc = cli_main(["certify", "--delta-min", "4.0", "--delta-max", "6.0",
                   "--zeta-bands", "5", "--envelope-cache", str(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 41


def test_cli_certify_refuses_v1_cache(tmp_path, capsys):
    """A directory of pre-npz text envelope files is not read: the command
    is a computation error that names the missing band file, and writes
    nothing."""
    for kind in ALL_KINDS:
        (tmp_path / f"k05_{kind}.env").write_text(
            f"ENVCACHE v1 k1=5 kind={kind} monotone=1 tres=10 ures=10\n"
            "0.0 0.1 1.0\ntail 1e-12\n")
    out = tmp_path / "c.csv"
    rc = cli_main(["certify", "--delta-min", "5.0", "--delta-max", "5.0",
                   "--zeta-bands", "5", "--envelope-cache", str(tmp_path),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k05.npz" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_certify_refuses_a_broken_cache(tmp_path, capsys):
    """A band-5 cache whose nine block kinds hold negated values certified
    Delta = 3.0, 3.5 and 4.0 before the loader checked its values (the real
    cache fails them); now it is a computation error naming the field."""
    path = save_envelope_set(str(tmp_path), desk_envelopes(5))
    with np.load(path, allow_pickle=False) as npz:
        fields = {key: npz[key] for key in npz.files}
    for kind in ("bump", "bump_dx", "bump_dy", "wave1", "wave2", "wave1_dx",
                 "wave2_dx", "wave1_dy", "wave2_dy"):
        fields[f"{kind}.values"] = -fields[f"{kind}.values"]
    np.savez(path, **fields)
    out = tmp_path / "c.csv"
    rc = cli_main(["certify", "--delta-min", "3.0", "--delta-max", "4.0",
                   "--delta-step", "0.5", "--zeta-bands", "5",
                   "--envelope-cache", str(tmp_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "k05.npz: bump.values" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_certify_resolution_must_match_the_cache(tmp_path, capsys):
    """A desk cache is not read as a paper-resolution one, whatever its
    header says: the command is a computation error that names the
    mismatch, and writes nothing."""
    path = save_envelope_set(str(tmp_path), desk_envelopes(5))
    out = tmp_path / "c.csv"
    rc = cli_main(["certify", "--delta-min", "5.5", "--delta-max", "5.5",
                   "--zeta-bands", "5", "--resolution", "paper",
                   "--envelope-cache", str(tmp_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tres 10, ures 10" in err and "--resolution 40" in err
    assert not out.exists()
    # a desk cache whose header claims paper resolution is not read either:
    # its breakpoints are not the tres 40 grid
    with np.load(path, allow_pickle=False) as npz:
        fields = {key: npz[key] for key in npz.files}
    np.savez(path, **{**fields, "tres": 40, "ures": 40})
    rc = cli_main(["certify", "--delta-min", "5.5", "--delta-max", "5.5",
                   "--zeta-bands", "5", "--resolution", "paper",
                   "--envelope-cache", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert "breakpoints are not the tres 40 grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_svd_and_demo(tmp_path):
    """A lattice spacing of 0 (coincident spikes) is a valid input."""
    out = tmp_path / "s.csv"
    assert cli_main(["svd", "--dprime", "2.0", "0", "--zeta", "0.5",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        row, coincident = list(csv.DictReader(fh))
    assert float(row["sigma_min"]) > 1.0
    assert float(coincident["sigma_min"]) == 0.0

    demo = tmp_path / "q.csv"
    assert cli_main(["certificate-demo", "--n-spikes", "2", "--step", "0.5",
                     "--out", str(demo)]) == 0
    with open(demo, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["x", "y", "q"]
    assert max(abs(float(r["q"])) for r in rows) <= 1.0 + 1e-9


def test_cli_certificate_demo_places_sixteen_spikes(tmp_path):
    """Spikes sit on a hexagonal arrangement Delta apart, so any count is
    placed; random placement in a square jammed near 9 spikes."""
    out = tmp_path / "q.csv"
    assert cli_main(["certificate-demo", "--n-spikes", "16", "--step", "0.5",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert max(abs(float(r["q"])) for r in rows) <= 1.0 + 1e-9


def test_cli_certificate_demo_memory(tmp_path):
    """Q is evaluated one grid row at a time, so 40 spikes at the default
    step (110 889 points x 120 samples) stay well under 200 MB; one
    whole-grid call peaked near 570 MB.  The child process reports its own
    peak RSS: VmHWM, in kB.  Not ``ru_maxrss``, which a child started by
    (v)fork and exec inherits from the test process at the fork."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from deconv2d.experiments import cli_main\n"
            "rc = cli_main(sys.argv[1:])\n"
            "print(rc, *[line.split()[1] for line in open('/proc/self/status')\n"
            "            if line.startswith('VmHWM:')])\n")
    out = tmp_path / "q.csv"
    proc = subprocess.run([sys.executable, "-c", code, "certificate-demo",
                           "--n-spikes", "40", "--out", str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, peak_kb = proc.stdout.split()
    assert rc == "0"
    assert int(peak_kb) < 200 * 1024


def test_cli_recover_over_budget_writes_nothing(tmp_path, capsys):
    """Trials whose operator exceeds the dense-entry budget never ran: the
    run is an error (exit 2) naming the budget, not a 0 % success rate."""
    out = tmp_path / "r.csv"
    assert cli_main(["recover", "--delta", "2.0", "--zeta", "0.01",
                     "--trials", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_exit_codes(tmp_path):
    assert cli_main(["recover", "--bogus"]) == 1
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["--help"]) == 0
    # computation error: cache directory does not exist
    rc = cli_main(["certify", "--delta-min", "5.0", "--delta-max", "5.0",
                   "--zeta-bands", "5",
                   "--envelope-cache", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("argv, flag", [
    (["phase-diagram", "--delta", "2.0", "--zeta", "0.5", "--trials", "0"],
     "--trials"),
    (["recover", "--delta", "2.0", "--zeta", "0.5", "--n-spikes", "0"],
     "--n-spikes"),
    (["recover", "--delta", "2.0", "--zeta", "0"], "--zeta"),
    (["recover", "--delta", "-1", "--zeta", "0.5"], "--delta"),
    (["recover", "--delta", "2.0", "--zeta", "nan"], "--zeta"),
    (["phase-diagram", "--delta", "2.0", "0", "--zeta", "0.5"], "--delta"),
    (["phase-diagram", "--delta", "2.0", "--zeta", "inf"], "--zeta"),
    (["recover", "--delta", "2.0", "--zeta", "0.5", "--trials", "1.5"],
     "--trials"),
    (["svd", "--dprime", "2.0", "--zeta", "0"], "--zeta"),
    (["certify", "--delta-min", "5.0", "--delta-max", "5.0",
      "--delta-step", "0", "--zeta-bands", "5"], "--delta-step"),
    (["certificate-demo", "--step", "0"], "--step"),
    (["certificate-demo", "--zeta", "0"], "--zeta"),
    (["certificate-demo", "--delta", "-4.5"], "--delta"),
    (["certify", "--delta-min", "5.0", "--delta-max", "5.0",
      "--zeta-bands", "5", "17"], "--zeta-bands"),
    (["envelopes", "--k1", "0"], "--k1"),
    (["envelopes", "--k1", "1", "--resolution", "abc"], "--resolution"),
    (["envelopes", "--k1", "1", "--resolution", "7"], "--resolution"),
    (["envelopes", "--k1", "1", "--resolution", "0"], "--resolution"),
    (["certify", "--delta-min", "5.0", "--delta-max", "5.0",
      "--zeta-bands", "5", "--resolution", "7"], "--resolution"),
    (["svd", "--dprime", "nan", "--zeta", "0.5"], "--dprime"),
    (["svd", "--dprime", "2.0", "inf", "--zeta", "0.5"], "--dprime"),
    (["certify", "--delta-min", "nan", "--delta-max", "5.0",
      "--zeta-bands", "5"], "--delta-min"),
    (["certify", "--delta-min", "5.0", "--delta-max", "inf",
      "--zeta-bands", "5"], "--delta-max"),
])
def test_cli_rejects_nonpositive_counts_and_spacings(tmp_path, capsys, argv,
                                                      flag):
    """Counts, spacings, bands and resolutions that no run can use are
    usage errors (exit 1) that name the flag, not computation errors deep
    inside a trial or an envelope build."""
    out = tmp_path / "r.csv"
    assert cli_main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_config_precedence(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("trials = 3\nseed = 7\n")
    out = tmp_path / "r.csv"
    rc = cli_main(["--config", str(cfg), "recover", "--delta", "2.0",
                   "--zeta", "0.5", "--seed", "1", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    # config filled in trials; the explicit --seed flag won over the file
    assert row["trials"] == "3"
    # `--config=FILE` and an abbreviated `--conf FILE` read the file too, and
    # an explicit flag wins in its `--flag=value` and abbreviated forms
    save_envelope_set(str(tmp_path), desk_envelopes(5))
    cfg.write_text("delta-step = 0.1\n")
    certify = ["certify", "--delta-min", "5.4", "--delta-max", "5.6",
               "--zeta-bands", "5", "--envelope-cache", str(tmp_path),
               "--out", str(out)]
    for argv, n_rows in (([f"--config={cfg}"] + certify, 3),
                         (["--conf", str(cfg)] + certify, 3),
                         (["--config", str(cfg)] + certify
                          + ["--delta-step=0.2"], 2),
                         (["--config", str(cfg)] + certify
                          + ["--delta-st", "0.2"], 2)):
        assert cli_main(argv) == 0, argv
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == n_rows, argv
    bad = tmp_path / "bad"
    bad.write_text("broken line\n")
    assert cli_main(["--config", str(bad), "recover", "--delta", "2",
                     "--zeta", "0.5", "--out", str(out)]) == 1


def test_cli_config_refuses_unknown_keys(tmp_path, capsys):
    """A key that names no flag of any command (a misspelt ``delta_step``)
    is a bad config file, not a silently kept default; a key of another
    command's flag stays allowed."""
    save_envelope_set(str(tmp_path), desk_envelopes(5))
    cfg = tmp_path / "cfg"
    out = tmp_path / "c.csv"
    certify = ["--config", str(cfg), "certify", "--delta-min", "5.4",
               "--delta-max", "5.6", "--zeta-bands", "5",
               "--envelope-cache", str(tmp_path), "--out", str(out)]
    cfg.write_text("delta_stp = 0.5\n")
    assert cli_main(certify) == 1
    err = capsys.readouterr().err
    assert "bad config file" in err and "delta_stp" in err
    assert not out.exists()
    cfg.write_text("trials = 3\ndelta_step = 0.1\n")
    assert cli_main(certify) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3


@pytest.mark.parametrize("line, flag", [("kernel = gausian", "--kernel"),
                                        ("pattern = full", "--pattern")])
def test_cli_config_refuses_values_outside_choices(tmp_path, capsys, line,
                                                   flag):
    """A config value that the flag's ``choices`` refuse is a bad config
    file (exit 1), as the same value on the command line is a usage error;
    argparse converts string defaults but does not check their choices."""
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "r.csv"
    rc = cli_main(["--config", str(cfg), "phase-diagram", "--delta", "2.0",
                   "--zeta", "0.5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad config file" in err and f"argument {flag}" in err
    assert not out.exists()


def test_cli_config_cannot_supply_required_flags(tmp_path, capsys):
    """A config file sets optional flags only: argparse rejects the missing
    required flag before the file is applied, so the command is a usage
    error (exit 1) and writes nothing."""
    cfg = tmp_path / "cfg"
    cfg.write_text("delta_min = 5.4\n")
    out = tmp_path / "c.csv"
    rc = cli_main(["--config", str(cfg), "certify", "--delta-max", "5.6",
                   "--zeta-bands", "5", "--envelope-cache", str(tmp_path),
                   "--out", str(out)])
    assert rc == 1
    assert "--delta-min" in capsys.readouterr().err
    assert not out.exists()
