"""Experiment drivers and the command-line front end.

Two numerical studies back up the certified theory: singular-value
conditioning of the measurement matrix as the spike lattice shrinks, and
Monte-Carlo recovery phase diagrams over (separation, grid spacing) for the
three kernel models.  Everything is exposed through argparse subcommands
that write plain CSV (header row, LF endings, shortest-repr floats) so any
plotting tool can consume the output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .certify import CertifyConfig, recovery_sweep
from .envelope import (
    EnvelopeGridSpec,
    build_envelopes,
    load_envelope_set,
    save_envelope_set,
    zeta_band,
)
from .kernels import KERNELS
from .schur import numeric_certificate
from .solver import (
    SampleGrid,
    assemble_operator,
    hex_arrangement,
    recovery_trial,
)

SVD_LATTICE = 8      # conditioning study uses an 8x8 spike lattice
SVD_MARGIN = 3.0     # sample-grid margin in kernel units
BANDS = range(1, 17)  # the sixteen zeta bands k1
PHASE_COLUMNS = ["delta", "zeta", "kernel", "pattern", "trials", "successes",
                 "rate"]


def svd_conditioning(dprime_grid, zeta_grid) -> list:
    """Rows (dprime, zeta, sigma_min, sigma_med) for an 8x8 spike lattice.

    sigma_med is the singular value at index ceil(n/2) in descending order
    (the 32nd of 64); it tracks the bulk while sigma_min tracks the
    ill-posedness of the finest separations.  Values at or below the rank
    tolerance of ``np.linalg.matrix_rank`` are round-off and read 0, so
    coincident spikes give exact zeros.
    """
    n = SVD_LATTICE
    model = KERNELS["gaussian"]
    rows = []
    for dp in dprime_grid:
        ii, jj = np.meshgrid(np.arange(n), np.arange(n))
        T = dp * np.stack([ii.ravel(), jj.ravel()], axis=1).astype(float)
        for zeta in zeta_grid:
            grid = SampleGrid.covering(T, zeta, SVD_MARGIN * model.unit)
            K = assemble_operator(T, grid, model)
            sv = np.linalg.svd(K, compute_uv=False)
            sv[sv <= sv[0] * max(K.shape) * np.finfo(float).eps] = 0.0
            med = sv[math.ceil(len(sv) / 2) - 1]
            rows.append((float(dp), float(zeta), float(sv[-1]), float(med)))
    return rows


def _trial_seed(seed: int, cell: int, trial: int) -> int:
    # fold (master seed, cell, trial) into one independent stream id
    return int(np.random.SeedSequence([seed, cell, trial]).generate_state(1)[0])


def phase_diagram(kernel: str, delta_grid, zeta_grid, trials: int, seed: int,
                  pattern: str = "full_grid", n_spikes: int = 25) -> list:
    """Recovery rate per (delta, zeta) cell, in kernel units.

    Returns rows (delta, zeta, kernel, pattern, trials, successes, rate);
    deterministic for a fixed seed.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    model = KERNELS[kernel]
    u = model.unit
    rows = []
    for ci, (delta, zeta) in enumerate(
            (d, z) for d in delta_grid for z in zeta_grid):
        succ = sum(
            recovery_trial(delta * u, zeta * u, n_spikes, pattern,
                           _trial_seed(seed, ci, t), model=model)
            for t in range(trials))
        rows.append((float(delta), float(zeta), kernel, pattern, trials,
                     succ, succ / trials))
    return rows


# -- CSV / config plumbing ---------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain shortest repr even for numpy scalars
    return str(v)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def parse_config(path: str) -> dict:
    """``key = value`` lines, ``#`` comments, UTF-8."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _certify_config(k1_set, resolution: int, cache: str | None) -> CertifyConfig:
    if cache:
        config = CertifyConfig({k1: load_envelope_set(cache, k1)
                                for k1 in k1_set})
        for k1, table in config.tables.items():
            if (table.tres, table.ures) != (resolution, resolution):
                raise ValueError(
                    f"{cache}: band {k1} was built at tres {table.tres}, "
                    f"ures {table.ures}, not at --resolution {resolution}")
        return config
    return CertifyConfig({k1: build_envelopes(
        EnvelopeGridSpec(k1=k1, tres=resolution, ures=resolution))
        for k1 in k1_set})


# -- subcommand bodies -------------------------------------------------------

def _cmd_envelopes(args) -> int:
    envs = build_envelopes(EnvelopeGridSpec(
        k1=args.k1, tres=args.resolution, ures=args.resolution))
    print(f"wrote {save_envelope_set(args.out, envs)}")
    return 0


def _cmd_certify(args) -> int:
    deltas = np.arange(args.delta_min, args.delta_max + 1e-12, args.delta_step)
    config = _certify_config(args.zeta_bands, args.resolution,
                             args.envelope_cache)
    sweep = recovery_sweep(deltas, args.zeta_bands, config)
    rows = []
    for k1 in args.zeta_bands:
        zlo, zhi = zeta_band(k1)
        for r in sweep[k1]["reports"]:
            rows.append((k1, zlo, zhi, r.delta, r.verdict, r.u1, r.u2,
                         r.schur.alpha_inf, r.schur.beta_inf,
                         r.schur.gamma_inf, r.schur.alpha_lb, r.stage))
    write_csv(args.out,
              ["k1", "zeta_lo", "zeta_hi", "delta", "verdict", "u1", "u2",
               "alpha_inf", "beta_inf", "gamma_inf", "alpha_lb", "stage"],
              rows)
    return 0


def _cmd_svd(args) -> int:
    rows = svd_conditioning(args.dprime, args.zeta)
    write_csv(args.out, ["dprime", "zeta", "sigma_min", "sigma_med"], rows)
    return 0


def _cmd_phase_diagram(args) -> int:
    rows = phase_diagram(args.kernel, args.delta, args.zeta, args.trials,
                         args.seed, pattern=args.pattern,
                         n_spikes=args.n_spikes)
    write_csv(args.out, PHASE_COLUMNS, rows)
    return 0


def _cmd_certificate_demo(args) -> int:
    T = hex_arrangement(args.n_spikes, args.delta)
    tau = np.random.default_rng(args.seed).choice([-1.0, 1.0], args.n_spikes)
    cert = numeric_certificate(T, tau, args.zeta)
    lo, hi = T.min() - 2.0, T.max() + 2.0
    xs = np.arange(lo, hi + 1e-12, args.step)
    G = np.stack(np.meshgrid(xs, xs), axis=-1)
    # one grid row at a time: a whole-grid call holds a (points, 3n, 2)
    # offset array, over half a GB at 40 spikes
    Q = [cert.evaluate(row) for row in G]
    rows = [(float(G[i, j, 0]), float(G[i, j, 1]), float(Q[i][j]))
            for i in range(G.shape[0]) for j in range(G.shape[1])]
    write_csv(args.out, ["x", "y", "q"], rows)
    return 0


# -- argument parsing --------------------------------------------------------

def _finite(kind, low=-math.inf):
    """argparse type: a finite ``kind`` (int or float) greater than ``low``;
    NaN is refused."""
    def parse(text: str):
        value = kind(text)
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a {kind.__name__} in ({low}, inf)")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid <name> value"
    return parse


def _resolution(text: str) -> int:
    """argparse type: ``desk`` (10), ``paper`` (40) or bins per unit, held
    to the rules of ``EnvelopeGridSpec``."""
    try:
        res = {"desk": 10, "paper": 40}.get(text) or int(text)
        EnvelopeGridSpec(k1=1, tres=res, ures=res)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return res


def _build_parser():
    """(parser of ``--config`` alone, full parser, subcommand parsers)."""
    pre = argparse.ArgumentParser(prog="deconv2d", add_help=False)
    pre.add_argument("--config",
                     help="key = value defaults file; sets optional flags "
                          "only, required flags must be on the command line")
    p = argparse.ArgumentParser(prog="deconv2d", parents=[pre])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("envelopes", help="build one band's envelope cache")
    sp.add_argument("--k1", type=int, choices=BANDS, metavar="K1",
                    required=True)
    sp.add_argument("--resolution", type=_resolution, default="desk")
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_envelopes)

    sp = sub.add_parser("certify", help="sweep the recovery certifier")
    sp.add_argument("--delta-min", type=_finite(float), required=True)
    sp.add_argument("--delta-max", type=_finite(float), required=True)
    sp.add_argument("--delta-step", type=_finite(float, 0), default=0.05)
    sp.add_argument("--zeta-bands", type=int, choices=BANDS, nargs="+",
                    metavar="K1", required=True)
    sp.add_argument("--resolution", type=_resolution, default="desk")
    sp.add_argument("--envelope-cache")
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_certify)

    sp = sub.add_parser("svd", help="conditioning of the measurement matrix")
    sp.add_argument("--dprime", type=_finite(float), nargs="+", required=True)
    sp.add_argument("--zeta", type=_finite(float, 0), nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_svd)

    sp = sub.add_parser("phase-diagram", aliases=["recover"],
                        help="recovery-rate table")
    sp.add_argument("--kernel", default="gaussian", choices=list(KERNELS))
    sp.add_argument("--delta", type=_finite(float, 0), nargs="+",
                    required=True)
    sp.add_argument("--zeta", type=_finite(float, 0), nargs="+", required=True)
    sp.add_argument("--n-spikes", type=_finite(int, 0), default=25)
    sp.add_argument("--trials", type=_finite(int, 0), default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pattern", default="full_grid",
                    choices=["full_grid", "three_nearest"])
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_phase_diagram)

    sp = sub.add_parser("certificate-demo",
                        help="dump Q on a grid for contour plotting")
    sp.add_argument("--n-spikes", type=_finite(int, 0), default=3)
    sp.add_argument("--delta", type=_finite(float, 0), default=4.5)
    sp.add_argument("--zeta", type=_finite(float, 0), default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--step", type=_finite(float, 0), default=0.1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_certificate_demo)

    return pre, p, sub.choices


def cli_main(argv) -> int:
    pre, parser, commands = _build_parser()
    try:
        path = pre.parse_known_args(argv)[0].config
        config = parse_config(path) if path is not None else {}
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return 1
    except SystemExit:      # --config without a file name
        return 1
    # the file's values become the flags' defaults: argparse converts them
    # with each flag's type, explicit flags override them, and a required
    # flag stays required
    flags = {sp: {a.dest for a in sp._actions if a.option_strings}
             for sp in commands.values()}
    unknown = config.keys() - set().union(*flags.values())
    if unknown:
        print(f"error: bad config file: {path}: no flag of any command is "
              f"named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    for sp, names in flags.items():
        sp.set_defaults(**{k: v for k, v in config.items() if k in names})
        # argparse converts a string default but never checks its choices
        for a in sp._actions:
            if a.dest in config and a.choices is not None:
                try:
                    sp._check_value(a, sp._get_value(a, config[a.dest]))
                except argparse.ArgumentError as exc:
                    print(f"error: bad config file: {path}: {exc}",
                          file=sys.stderr)
                    return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own synopsis; fold --help into success
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(cli_main(sys.argv[1:]))
