"""Workload bodies and the checks run on every body's outputs.

A workload object is built once per process from the seeded instance
(inputs.generate).  `prepare()` runs untimed before each body, `body()`
is the timed time-to-solution, and `check(result)` returns the list of
violated acceptance tolerances (empty when the outputs are correct).
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
from sympy.core.cache import clear_cache

import inputs
import mhd2d as m
from mhd2d import storage, verification

# Acceptance tolerances (README of the package, criteria 1, 2, 4, 7 and 11).
MASS_DRIFT_TOL = 1e-11
ENVELOPE_TOL = 1e-10
F_STEP_TOL = 1e-8
MMS_ORDER_WINDOW = (0.8, 1.3)

# Face vectors live at once in the viscous CG (u, r, z, p, A p); they
# dominate the per-step working set.
CG_FACE_VECTORS = 5


def working_set_bytes(nx: int, ny: int) -> int:
    """Computed bytes of the viscous CG vectors on an nx x ny grid."""
    return 8 * CG_FACE_VECTORS * ((nx + 1) * ny + nx * (ny + 1))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class SolverRun:
    """`run()` from a fixed initial state, writing its outputs: reg128-dense."""

    def __init__(self, spec: dict, tmp_dir: str) -> None:
        params, grid, state0, env, _init_s = inputs.setup_instance(m, spec)
        self.grid, self.state0, self.env = grid, state0, env
        self.config = m.Config(params=params, init=m.InitialDataSpec(**spec["init"]),
                               record_interval=1, snapshot_interval=spec["snapshot_interval"],
                               run_id="bench")
        self.out_dir = tmp_dir
        self.working_set = working_set_bytes(grid.nx, grid.ny)

    def prepare(self) -> None:
        shutil.rmtree(os.path.join(self.out_dir, self.config.run_id), ignore_errors=True)

    def body(self):
        return m.run(self.config, initial_state=self.state0, output_dir=self.out_dir)

    def cell_steps(self, result) -> int:
        return self.grid.nx * self.grid.ny * result[1].metadata["steps"]

    def digest(self, result) -> str:
        s = result[0].states[-1]
        return _digest(s.rho, s.b, s.ux, s.uy, np.float64(s.t))

    def summary(self, result) -> dict:
        return {"steps": result[1].metadata["steps"], "t_end": result[0].states[-1].t}

    def check(self, result) -> list[str]:
        traj, series = result
        bad = []
        for col in ("mass_rho", "mass_b"):
            mass = series.column(col)
            drift = float(np.abs(mass - mass[0]).max() / mass[0])
            if not drift <= MASS_DRIFT_TOL:
                bad.append(f"{col} drift {drift:.3e} > {MASS_DRIFT_TOL}")
        rmin = float(series.column("ratio_min").min())
        rmax = float(series.column("ratio_max").max())
        if not (rmin >= self.env.c_star - ENVELOPE_TOL and rmax <= self.env.c_upper + ENVELOPE_TOL):
            bad.append(f"b/rho left [{self.env.c_star}, {self.env.c_upper}]: [{rmin}, {rmax}]")
        f = series.column("F_convex")
        rise = float(np.max(np.diff(f)))
        if not rise <= F_STEP_TOL * f[0]:
            bad.append(f"F_convex rose by {rise:.3e} in one step (tol {F_STEP_TOL}*F0)")
        return bad + self._check_files(traj, series)

    def _check_files(self, traj, series) -> list[str]:
        run_dir = os.path.join(self.out_dir, self.config.run_id)
        bad = []
        if storage.read_timeseries_csv(os.path.join(run_dir, "timeseries.csv")).records != series.records:
            bad.append("timeseries.csv does not read back bit-exact")
        names = sorted(n for n in os.listdir(run_dir) if n.endswith(".mhd2"))
        if len(names) != len(traj.states):
            bad.append(f"{len(names)} snapshots written for {len(traj.states)} states")
        for name, st in zip(names, traj.states):
            back = storage.read_snapshot(os.path.join(run_dir, name))
            same = back.t == st.t and all(
                getattr(back, f).tobytes() == getattr(st, f).tobytes()
                for f in ("rho", "b", "ux", "uy"))
            if not same:
                bad.append(f"{name} does not read back bit-exact")
        return bad


class MmsStudy:
    """`run_mms` with upwind transport over three resolutions: mms-upwind."""

    def __init__(self, spec: dict, tmp_dir: str) -> None:
        params, _grid, _state0, ms, _init_s = inputs.setup_instance(m, spec)
        self.ms = ms
        self.config = m.Config(params=params)
        self.resolutions = tuple(spec["resolutions"])
        self.working_set = working_set_bytes(max(self.resolutions), max(self.resolutions))
        self._cell_steps = 0

    def prepare(self) -> None:
        # Each study pays the symbolic work a fresh process would.
        clear_cache()
        self._cell_steps = 0

    def body(self):
        # run_mms does not report step counts; count them at its `run` calls.
        orig = verification.run

        def counted(config, **kw):
            traj, series = orig(config, **kw)
            self._cell_steps += config.params.nx * config.params.ny * series.metadata["steps"]
            return traj, series

        verification.run = counted
        try:
            return m.run_mms(self.config, self.ms, resolutions=self.resolutions)
        finally:
            verification.run = orig

    def cell_steps(self, result) -> int:
        return self._cell_steps

    def digest(self, result) -> str:
        errs = [result.l2_errors[k] + result.linf_errors[k] for k in sorted(result.l2_errors)]
        return _digest(np.array(errs, dtype=float))

    def summary(self, result) -> dict:
        return {"orders": result.orders, "cell_steps": self._cell_steps}

    def check(self, result) -> list[str]:
        lo, hi = MMS_ORDER_WINDOW
        return [f"MMS order[{k}] = {o:.3f} outside [{lo}, {hi}]"
                for k, o in result.orders.items() if not lo <= o <= hi]


def make(spec: dict, tmp_dir: str):
    return (MmsStudy if spec["kind"] == "mms" else SolverRun)(spec, tmp_dir)
