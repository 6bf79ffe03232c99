"""Command-line surface.

Subcommands: run, mms, sweep-eps, sweep-delta, verify, inspect.
Exit codes: 0 success, 1 invariant failure (or a run that aborted on a
violated invariant), 2 usage/config errors.

MHD2D_OUTPUT_DIR overrides the config's output_dir; --output-dir
overrides both.  --cfl replaces the Courant number *after* validation:
SimulationParams admits any finite positive cfl, and only `run` and
`verify` skip the cfl <= 1 bound that validate_params adds, so
`verify --cfl 5.0` can demonstrate how the invariant suite catches an
unstable run; `mms` and the sweeps reject cfl > 1 as a config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import Config, parse_config_file
from .core import build_grid, init_state, validate_params
from .errors import FormatError, Mhd2dError, ParseError, ValidationError
from .solver import run
from .storage import read_snapshot, snapshot_header
from .verification import (
    _field_distances,
    default_manufactured_solution,
    delta_sweep,
    epsilon_sweep,
    run_mms,
)

__all__ = ["cli_main", "main"]

# energy gain-rate allowance in the verify suite: a stable split step gains
# at most O(dt) energy per unit time, far below this fraction of E(0)
ENERGY_RATE_SLACK = 0.1
RATIO_TOL = 1e-10
F_MONOTONE_SLACK = 1e-8
FIXED_POINT_TOL = 1e-13


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mhd2d", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--cfl", type=float, default=None,
                       help="Courant number override, finite and > 0; "
                            "run and verify skip validate_params' cfl <= 1")

    p_run = sub.add_parser("run", help="integrate a config and write outputs")
    add_common(p_run)

    p_mms = sub.add_parser("mms", help="manufactured-solution order study")
    add_common(p_mms)
    p_mms.add_argument("--resolutions", type=_list_of(int), default="32,64,128")
    p_mms.add_argument("--dt-max-coeff", type=float, default=None,
                       help="cap dt at coeff*h^2 per resolution (second-order studies)")

    p_se = sub.add_parser("sweep-eps", help="eps -> 0 limit experiment")
    add_common(p_se)
    p_se.add_argument("--eps-list", type=_list_of(float), default=None,
                      help="comma floats, strictly decreasing")

    p_sd = sub.add_parser("sweep-delta", help="delta -> 0 limit experiment")
    add_common(p_sd)
    p_sd.add_argument("--delta-list", type=_list_of(float), default=None)

    p_ver = sub.add_parser("verify", help="run the invariant suite, print PASS/FAIL lines")
    add_common(p_ver)

    p_ins = sub.add_parser("inspect", help="print snapshot header and field stats")
    p_ins.add_argument("snapshot")
    return ap


def _list_of(kind):
    """An argparse type: comma-separated values of `kind`."""

    def parse(raw: str):
        return [kind(s) for s in raw.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def _resolve_output_dir(config: Config, cli_value) -> str:
    if cli_value:
        return cli_value
    env = os.environ.get("MHD2D_OUTPUT_DIR")
    if env:
        return env
    return config.output_dir


def _load(args) -> Config:
    config = parse_config_file(args.config)
    if getattr(args, "cfl", None) is not None:
        if not 0.0 < args.cfl < math.inf:
            raise ValidationError(f"--cfl must be finite and positive, got {args.cfl}")
        config = replace(config, params=replace(config.params, cfl=args.cfl))
        if args.command not in ("run", "verify"):
            validate_params(config.params)
    return config


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "inspect":
            return _cmd_inspect(args)
        config = _load(args)
        outdir = _resolve_output_dir(config, args.output_dir)
        if args.command == "run":
            return _cmd_run(config, outdir)
        if args.command == "mms":
            return _cmd_mms(config, args, outdir)
        if args.command == "sweep-eps":
            return _cmd_sweep(config, args, outdir, which="eps")
        if args.command == "sweep-delta":
            return _cmd_sweep(config, args, outdir, which="delta")
        if args.command == "verify":
            return _cmd_verify(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Mhd2dError as exc:
        print(f"run aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _cmd_run(config: Config, outdir: str) -> int:
    traj, series = run(config, output_dir=outdir)
    last = series.records[-1]
    print(
        f"run {config.run_id}: {series.metadata['steps']} steps to t={last.t:g}, "
        f"energy {series.records[0].energy:.6g} -> {last.energy:.6g}, "
        f"outputs in {os.path.join(outdir, config.run_id)}"
    )
    return 0


def _cmd_mms(config: Config, args, outdir: str) -> int:
    resolutions = tuple(args.resolutions)
    ms = default_manufactured_solution(config.params.Lx, config.params.Ly)
    rep = run_mms(config, ms, resolutions=resolutions, dt_max_coeff=args.dt_max_coeff)
    _report(rep, outdir, f"{config.run_id}_mms.csv")
    return 0


def _report(rep, outdir: str, filename: str) -> None:
    """Print an MMS or sweep report, write its CSV to outdir/filename, say where."""
    print(rep.summary_text())
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, filename)
    rep.to_csv(path)
    print(f"wrote {path}")


def _cmd_sweep(config: Config, args, outdir: str, which: str) -> int:
    if which == "eps":
        values = args.eps_list or [1e-2 * 2.0 ** -k for k in range(5)]
        rep = epsilon_sweep(config, values)
    else:
        values = args.delta_list or [1e-1 * 4.0 ** -k for k in range(5)]
        rep = delta_sweep(config, values)
    _report(rep, outdir, f"{config.run_id}_sweep_{which}.csv")
    failed = [row for row in rep.rows if not row.get("ok", True)]
    if failed:
        print(f"{len(failed)} member(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(config: Config) -> int:
    """Run the config and evaluate every runtime invariant at its tolerance."""
    config = replace(config, record_interval=1, snapshot_interval=10 ** 9)
    grid = build_grid(config.params)
    state0, env = init_state(grid, config.init)

    checks: list[tuple[str, bool, str]] = []
    aborted = None
    try:
        traj, series = run(config, initial_state=state0)
    except Mhd2dError as exc:
        aborted = exc
        traj, series = None, None

    if aborted is not None:
        checks.append(("positivity", False, f"run aborted: {type(aborted).__name__}: {aborted}"))
        checks.append(("maximum-principle", False, "run aborted before completion"))
    else:
        t0 = series.records[0]
        steps = series.metadata["steps"]
        mass_tol = 1e-12 * max(1.0, steps / 1000.0)

        for name in ("mass_rho", "mass_b"):
            col = series.column(name)
            drift = float(np.abs(col - col[0]).max()) / abs(col[0])
            checks.append(
                (f"conservation[{name}]", drift <= mass_tol,
                 f"relative drift {drift:.3e} vs tol {mass_tol:.1e}")
            )

        rmin = float(series.column("ratio_min").min())
        rmax = float(series.column("ratio_max").max())
        ok = rmin >= env.c_star - RATIO_TOL and rmax <= env.c_upper + RATIO_TOL
        checks.append(
            ("maximum-principle", ok,
             f"b/rho in [{rmin:.12g}, {rmax:.12g}], envelope [{env.c_star:.12g}, {env.c_upper:.12g}] +- {RATIO_TOL}")
        )

        checks.append(("positivity", rmin > 0.0 and np.isfinite(series.column("energy")).all(),
                       f"min b/rho = {rmin:.6g}, all records finite"))

        if config.params.eps > 0.0:
            f = series.column("F_convex")
            worst = float(np.max(np.diff(f))) if f.size > 1 else 0.0
            tol = F_MONOTONE_SLACK * f[0]
            checks.append(
                ("monotone-functional", worst <= tol,
                 f"max per-record increase {worst:.3e} vs tol {tol:.1e}")
            )

        rate = series.metadata["max_energy_increase_rate"]
        tol = ENERGY_RATE_SLACK * t0.energy
        checks.append(
            ("energy-dissipation", rate <= tol,
             f"max energy gain rate {rate:.3e} vs tol {tol:.1e}")
        )

        if config.init.kind == "constant" and config.init.u_amp == 0.0:
            _, linf = _field_distances(traj.states[-1], traj.states[0], traj.grid.cell_area)
            dev = max(linf)
            checks.append(
                ("constant-fixed-point", dev <= FIXED_POINT_TOL,
                 f"max field deviation {dev:.3e} vs tol {FIXED_POINT_TOL}")
            )

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} invariants passed")
    return 0 if failed == 0 else 1


def _cmd_inspect(args) -> int:
    try:
        hdr = snapshot_header(args.snapshot)
        state = read_snapshot(args.snapshot)
    except FormatError as exc:  # no run was started: name the file, not a run
        print(f"cannot inspect {args.snapshot}: FormatError: {exc}", file=sys.stderr)
        return 1
    print(f"snapshot {args.snapshot}")
    print(f"  version {hdr['version']}, grid {hdr['nx']} x {hdr['ny']}, time {hdr['time']:.17g}")
    print(f"  fields: {', '.join(hdr['fields'])}")
    for name in hdr["fields"]:
        arr = getattr(state, name)
        print(
            f"  {name}: shape {arr.shape}, min {arr.min():.6g}, "
            f"max {arr.max():.6g}, mean {arr.mean():.6g}"
        )
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
