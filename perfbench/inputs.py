"""Seeded input generation for the benchmark workloads.

Pure Python on purpose: the set-up probe imports this module before it
starts timing `import mhd2d`, so nothing here may import numpy, sympy or
the package.  A seed picks one entry of a fixed menu; every entry was
chosen so that `init_state` accepts the data (no BoundViolation) and the
manufactured rho*, b* stay >= 1 - 3/10 > 0.

reg128-dense pins `dt_max` below the CFL step of every menu entry, so
all seeds take the same number of steps (run.py reports it) and the
seed changes the data, not the amount of work.
"""

from __future__ import annotations

import random
import time

WORKLOADS = ("reg128-dense", "mms-upwind")

# Ratio-profile initial data with a nonzero solenoidal velocity:
# rho0 = 1 + rho_amp cos(kx pi x) cos(ky pi y), b0/rho0 = 1.1 + ratio_amp
# cos(jx pi x) cos(jy pi y), u = u_amp * (no-slip sin*sin envelope).
# The amplitudes move the Krylov iteration count by up to 4% (and the
# wall time with it), which would show as run-to-run spread, so a seed
# picks one of eight variants of one data set: signs of the amplitudes
# and a transpose (kx, ky, jx, jy) -> (ky, kx, jy, jx).  They form two
# classes of reflections/transposes of the unit square; within a class
# every variant takes the same iterations (2250 and 2264 Krylov
# iterations over a reg128-dense body).
# Entries: (rho_amp, ratio_amp, u_amp, transposed).
_RATIO_VARIANTS = (
    (0.1, 0.35, 0.12, False), (0.1, 0.35, -0.12, True),
    (-0.1, -0.35, 0.12, True), (-0.1, -0.35, -0.12, False),
    (0.1, -0.35, 0.12, True), (0.1, -0.35, -0.12, False),
    (-0.1, 0.35, 0.12, False), (-0.1, 0.35, -0.12, True),
)
_RATIO_MID = 1.1
_KXY, _JXY = (2, 1), (1, 0)

# Manufactured-solution amplitudes as exact rationals (numerator, denominator):
# rho* = 1 + A_rho cx cy e^-t, b* = 1 + A_b cx cy e^-t,
# ux* = A_ux sx sy e^-t, uy* = -A_uy sx sy e^-t.  The amplitudes move the
# cost of sympy's simplify (A_ux == A_uy makes it 40% cheaper) and the
# CFL step count, which would show as run-to-run spread, so a seed picks
# one of the eight reflections and transposes of one solution on the
# unit square: a reflection in x flips the signs of A_rho, A_b and A_ux,
# one in y those of A_rho, A_b and A_uy, and the transpose maps
# (A_ux, A_uy) to (-A_uy, -A_ux).  rho*, b* stay >= 4/5.
# Entries: (A_rho, A_b, A_ux, A_uy) as numerators over _MMS_DENOMINATOR.
_MMS_DENOMINATOR = 20
_MMS_VARIANTS = (
    (4, 3, 5, 4), (-4, -3, -5, 4), (4, 3, -4, -5), (-4, -3, 4, -5),
    (-4, -3, 5, -4), (4, 3, -5, -4), (-4, -3, -4, 5), (4, 3, 4, 5),
)

# Fixed physics and run controls of reg128-dense: `steps` steps of
# dt_max, a record every step and a snapshot every SNAPSHOT_INTERVAL.
REG128_PARAMS = dict(nx=128, ny=128, eps=1e-2, delta=1e-2, Gamma=6.0, gamma=1.4,
                     mu=0.1, lam=0.0, dt_max=2.5e-4)
REG128_STEPS = 80
SNAPSHOT_INTERVAL = 10

MMS_PARAMS = dict(eps=1e-2, delta=0.0, mu=0.1, lam=0.0, t_final=0.05, advect_scheme="upwind")
MMS_RESOLUTIONS = (32, 64, 128)


def generate(workload: str, seed: int) -> dict:
    """The full, JSON-serialisable description of one workload instance."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mms-upwind":
        amps = {k: (num, _MMS_DENOMINATOR)
                for k, num in zip(("A_rho", "A_b", "A_ux", "A_uy"), rng.choice(_MMS_VARIANTS))}
        return {"workload": workload, "seed": seed, "kind": "mms",
                "params": dict(MMS_PARAMS), "resolutions": list(MMS_RESOLUTIONS),
                "amplitudes": amps}
    rho_amp, ratio_amp, u_amp, transposed = rng.choice(_RATIO_VARIANTS)
    (kx, ky), (jx, jy) = (_KXY[::-1], _JXY[::-1]) if transposed else (_KXY, _JXY)
    init = dict(kind="ratio-profile", rho_amp=rho_amp, kx=kx, ky=ky,
                ratio_mid=_RATIO_MID, ratio_amp=ratio_amp, jx=jx, jy=jy, u_amp=u_amp)
    params = dict(REG128_PARAMS, t_final=REG128_STEPS * REG128_PARAMS["dt_max"])
    return {"workload": workload, "seed": seed, "kind": "solver", "params": params,
            "init": init, "steps": REG128_STEPS, "snapshot_interval": SNAPSHOT_INTERVAL}


def manufactured_solution(m, amplitudes: dict):
    """Build the sympy manufactured solution of an `mms` instance."""
    import sympy as sp

    x, y, t = sp.symbols("x y t", real=True)
    a = {k: sp.Rational(*v) for k, v in amplitudes.items()}
    cc = sp.cos(sp.pi * x) * sp.cos(sp.pi * y) * sp.exp(-t)
    ss = sp.sin(sp.pi * x) * sp.sin(sp.pi * y) * sp.exp(-t)
    return m.ManufacturedSolution(rho=1 + a["A_rho"] * cc, b=1 + a["A_b"] * cc,
                                  ux=a["A_ux"] * ss, uy=-a["A_uy"] * ss)


def setup_instance(m, spec: dict):
    """The timed set-up after `import mhd2d`: validate, build the grid, make
    the initial state.  For `mms` the initial state is the manufactured
    solution sampled on the finest grid.  Returns (params, grid, state,
    extra, init_s): extra is the envelope or the manufactured solution,
    init_s the seconds spent making the initial state."""
    if spec["kind"] == "mms":
        n = max(spec["resolutions"])
        params = m.validate_params(m.SimulationParams(nx=n, ny=n, **spec["params"]))
        grid = m.build_grid(params)
        t0 = time.perf_counter()
        ms = manufactured_solution(m, spec["amplitudes"])
        state = ms.sample(grid, 0.0)
        return params, grid, state, ms, time.perf_counter() - t0
    params = m.validate_params(m.SimulationParams(**spec["params"]))
    grid = m.build_grid(params)
    t0 = time.perf_counter()
    state, env = m.init_state(grid, m.InitialDataSpec(**spec["init"]))
    return params, grid, state, env, time.perf_counter() - t0
