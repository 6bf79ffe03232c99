"""Time integration of the regularized system (and its eps=delta=0 target mode).

One step is a Lie splitting in three stages:

  1. explicit monotone transport of rho and b by the current velocity
     (identical linear update for both scalars, which is what propagates
     the ratio envelope C*rho <= b <= C^*rho exactly);
  2. implicit Neumann diffusion solves for eps*Lap(rho), eps*Lap(b)
     (M-matrix, unconditionally stable, mass restored to the exact value
     the matrix column sums dictate);
  3. momentum update: explicit advection + pressure gradient +
     eps*(grad rho . grad)u, then one implicit solve for the full
     viscous operator mu*Lap(u) + (mu+lam)*grad(div u) with no-slip.

Diffusion and viscosity being implicit removes every h^2 time-step
restriction; the step size is limited by the advective/acoustic CFL
condition only, with the artificial-pressure sound speed included so the
explicit pressure coupling stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Grid, SimulationParams, State, build_grid, init_state
from .eos import pressure_total, sound_speed_sq
from .errors import DegenerateState, LinearSolveDivergence, PositivityLoss
from .operators import (
    eps_gradrho_gradu,
    face_average_x,
    face_average_y,
    gradient_cc_to_face,
    laplacian_neumann,
    momentum_advection,
    upwind_scalar_flux_div,
)

__all__ = [
    "pressure_total",
    "stable_dt",
    "implicit_diffusion_solve",
    "step",
    "run",
    "StepReport",
    "Trajectory",
    "Sources",
]


class Sources(NamedTuple):
    """Manufactured source fields: scalars at centers, forces at faces."""

    rho: np.ndarray
    b: np.ndarray
    ux: np.ndarray
    uy: np.ndarray


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    max_ratio_drift: float
    energy_before: float
    energy_after: float
    linear_solver_iters: int


@dataclass
class Trajectory:
    """Snapshots of a run, dense enough for space-time quadratures."""

    grid: Grid
    params: SimulationParams
    times: list[float]
    states: list[State]

    def append(self, state: State) -> None:
        self.times.append(state.t)
        self.states.append(state)


# ------------------------------------------------------------------
# Time-step control
# ------------------------------------------------------------------

def stable_dt(state: State, params: SimulationParams, grid: Grid) -> float:
    """CFL-limited step from the advective and acoustic speeds.

    dt = cfl / ((umax + c)/hx + (vmax + c)/hy), with c the maximal
    acoustic speed (artificial pressure included) and the eps-drag speed
    eps*|grad rho| folded into the advective speeds.  Diffusion and
    viscosity are implicit, so they impose no h^2 restriction; dt_max,
    when set, caps the result.  Raises DegenerateState, naming the
    offending fields, if the result is not finite (a NaN or inf in the
    state would otherwise slip past every later dt check).
    """
    rho_min = float(state.rho.min())
    if rho_min <= 0.0:
        raise DegenerateState(f"stable_dt needs rho > 0, got min rho = {rho_min}")
    c = float(np.sqrt(sound_speed_sq(state.rho, state.b, params).max()))
    umax = float(np.abs(state.ux).max())
    vmax = float(np.abs(state.uy).max())
    if params.eps > 0.0:
        g = gradient_cc_to_face(grid, state.rho)
        umax += params.eps * float(np.abs(g.x).max())
        vmax += params.eps * float(np.abs(g.y).max())
    dt = params.cfl / ((umax + c) / grid.hx + (vmax + c) / grid.hy)
    if not np.isfinite(dt):
        bad = [f for f in ("rho", "b", "ux", "uy") if not np.isfinite(getattr(state, f)).all()]
        raise DegenerateState(
            f"stable_dt is not finite (dt={dt}); non-finite values in {', '.join(bad)}"
        )
    if params.dt_max is not None:
        dt = min(dt, params.dt_max)
    return dt


# ------------------------------------------------------------------
# Implicit scalar diffusion (conjugate gradients)
# ------------------------------------------------------------------

def _laplacian_dirichlet_cc(grid: Grid, q: np.ndarray) -> np.ndarray:
    """5-point Laplacian of a cell scalar with zero wall value (sign-flip ghosts)."""
    g = np.empty((grid.nx + 2, grid.ny + 2))
    g[1:-1, 1:-1] = q
    g[0, 1:-1] = -q[0, :]
    g[-1, 1:-1] = -q[-1, :]
    g[1:-1, 0] = -q[:, 0]
    g[1:-1, -1] = -q[:, -1]
    return (g[2:, 1:-1] - 2.0 * q + g[:-2, 1:-1]) / grid.hx ** 2 + (
        g[1:-1, 2:] - 2.0 * q + g[1:-1, :-2]
    ) / grid.hy ** 2


def implicit_diffusion_solve(
    grid: Grid,
    q: np.ndarray,
    coef: float,
    dt: float,
    bc: str = "neumann",
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve (I - coef*dt*Lap) q' = q by conjugate gradients.

    Relative residual is driven below `tol` (well under the 1e-10 the
    solver contract requires).  For Neumann walls the cell sum of q' is
    restored to the exact value the unit column sums of the matrix
    dictate.  Raises LinearSolveDivergence after 10*(nx+ny) iterations.
    """
    x, _ = _diffusion_solve_counted(grid, q, coef, dt, bc, tol, max_iter)
    return x


def _diffusion_solve_counted(grid, q, coef, dt, bc, tol=1e-12, max_iter=None):
    c = coef * dt
    if c < 0.0:
        raise ValueError("coef*dt must be nonnegative")
    if c == 0.0:
        return q.copy(), 0
    if bc == "neumann":
        lap = lambda v: laplacian_neumann(grid, v)
    elif bc == "dirichlet":
        lap = lambda v: _laplacian_dirichlet_cc(grid, v)
    else:
        raise ValueError(f"unknown bc {bc!r}")
    if max_iter is None:
        max_iter = 10 * (grid.nx + grid.ny)

    b = q
    bnorm = float(np.sqrt(np.sum(b * b)))
    if bnorm == 0.0:
        return np.zeros_like(q), 0

    x = q.copy()
    r = b - (x - c * lap(x))
    p = r.copy()
    rr = float(np.sum(r * r))
    it = 0
    while np.sqrt(rr) > tol * bnorm:
        if it >= max_iter:
            raise LinearSolveDivergence(
                f"diffusion CG stalled after {it} iterations, "
                f"residual {np.sqrt(rr) / bnorm:.3e}"
            )
        Ap = p - c * lap(p)
        alpha = rr / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        rr_new = float(np.sum(r * r))
        p = r + (rr_new / rr) * p
        rr = rr_new
        it += 1

    if bc == "neumann":
        # the matrix has unit column sums; pin the cell sum to the exact value
        x += (np.sum(b) - np.sum(x)) / x.size
    return x, it


# ------------------------------------------------------------------
# Implicit viscous solve (preconditioned CG on stacked face fields)
# ------------------------------------------------------------------

def _viscous_matvec(grid, rfx, rfy, dt, mu, lam, ux, uy):
    """rho_f*u - dt*(mu*Lap_noslip(u) + (mu+lam)*grad(div u)), fused.

    Single pass per component with a shared div field; identical result
    to composing laplacian_velocity_noslip and grad_div_velocity.
    """
    hx, hy = grid.hx, grid.hy
    hx2, hy2 = hx * hx, hy * hy
    div = (ux[1:, :] - ux[:-1, :]) / hx + (uy[:, 1:] - uy[:, :-1]) / hy

    ax = np.zeros_like(ux)
    lapx = (ux[2:, :] - 2.0 * ux[1:-1, :] + ux[:-2, :]) / hx2
    lapx[:, 0] += (ux[1:-1, 1] - 3.0 * ux[1:-1, 0]) / hy2
    lapx[:, -1] += (ux[1:-1, -2] - 3.0 * ux[1:-1, -1]) / hy2
    lapx[:, 1:-1] += (ux[1:-1, 2:] - 2.0 * ux[1:-1, 1:-1] + ux[1:-1, :-2]) / hy2
    ax[1:-1, :] = (
        rfx[1:-1, :] * ux[1:-1, :]
        - dt * (mu * lapx + (mu + lam) * (div[1:, :] - div[:-1, :]) / hx)
    )

    ay = np.zeros_like(uy)
    lapy = (uy[:, 2:] - 2.0 * uy[:, 1:-1] + uy[:, :-2]) / hy2
    lapy[0, :] += (uy[1, 1:-1] - 3.0 * uy[0, 1:-1]) / hx2
    lapy[-1, :] += (uy[-2, 1:-1] - 3.0 * uy[-1, 1:-1]) / hx2
    lapy[1:-1, :] += (uy[2:, 1:-1] - 2.0 * uy[1:-1, 1:-1] + uy[:-2, 1:-1]) / hx2
    ay[:, 1:-1] = (
        rfy[:, 1:-1] * uy[:, 1:-1]
        - dt * (mu * lapy + (mu + lam) * (div[:, 1:] - div[:, :-1]) / hy)
    )
    return ax, ay


def _viscous_diag(grid, rfx, rfy, dt, mu, lam):
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    dx = rfx + dt * (mu * (2.0 / hx2 + 2.0 / hy2) + (mu + lam) * 2.0 / hx2)
    dx = dx * np.ones_like(rfx)
    dx[:, 0] += dt * mu / hy2  # sign-flip ghost strengthens the wall rows
    dx[:, -1] += dt * mu / hy2
    dy = rfy + dt * (mu * (2.0 / hx2 + 2.0 / hy2) + (mu + lam) * 2.0 / hy2)
    dy = dy * np.ones_like(rfy)
    dy[0, :] += dt * mu / hx2
    dy[-1, :] += dt * mu / hx2
    return dx, dy


def _viscous_solve(grid, rfx, rfy, mx, my, dt, mu, lam, guess, tol=1e-10):
    """Solve (rho_f*I - dt*(mu*Lap + (mu+lam)*grad div)) u = m, no-slip.

    The operator is symmetric positive definite in the plain face inner
    product (uniform mesh), so Jacobi-preconditioned CG applies.
    Returns (ux, uy, iterations).
    """
    max_iter = 10 * (grid.nx + grid.ny)
    dgx, dgy = _viscous_diag(grid, rfx, rfy, dt, mu, lam)

    bx, by = mx, my
    bnorm = float(np.sqrt(np.sum(bx * bx) + np.sum(by * by)))
    if bnorm == 0.0:
        return np.zeros_like(mx), np.zeros_like(my), 0

    ux, uy = guess
    ux = ux.copy()
    uy = uy.copy()
    ax, ay = _viscous_matvec(grid, rfx, rfy, dt, mu, lam, ux, uy)
    rx = bx - ax
    ry = by - ay
    rx[0, :] = 0.0
    rx[-1, :] = 0.0
    ry[:, 0] = 0.0
    ry[:, -1] = 0.0
    zx = rx / dgx
    zy = ry / dgy
    px, py = zx.copy(), zy.copy()
    rz = float(np.sum(rx * zx) + np.sum(ry * zy))
    it = 0
    while np.sqrt(np.sum(rx * rx) + np.sum(ry * ry)) > tol * bnorm:
        if it >= max_iter:
            raise LinearSolveDivergence(
                f"viscous CG stalled after {it} iterations"
            )
        apx, apy = _viscous_matvec(grid, rfx, rfy, dt, mu, lam, px, py)
        alpha = rz / float(np.sum(px * apx) + np.sum(py * apy))
        ux += alpha * px
        uy += alpha * py
        rx -= alpha * apx
        ry -= alpha * apy
        zx = rx / dgx
        zy = ry / dgy
        rz_new = float(np.sum(rx * zx) + np.sum(ry * zy))
        beta = rz_new / rz
        px = zx + beta * px
        py = zy + beta * py
        rz = rz_new
        it += 1

    ux[0, :] = 0.0
    ux[-1, :] = 0.0
    uy[:, 0] = 0.0
    uy[:, -1] = 0.0
    return ux, uy, it


# ------------------------------------------------------------------
# One step
# ------------------------------------------------------------------

def step(
    state: State,
    params: SimulationParams,
    grid: Grid,
    dt_cap: float | None = None,
    sources: Callable[[Grid, float], Sources] | None = None,
) -> tuple[State, StepReport]:
    """Advance one split step; see the module docstring for the stages.

    Raises PositivityLoss (with a diagnostic dump in the message) if rho
    or b leaves the positive cone, and LinearSolveDivergence from the
    implicit stages.
    """
    from .diagnostics import ratio_bounds, total_energy

    dt = stable_dt(state, params, grid)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not dt > 0.0:
        raise DegenerateState(f"nonpositive time step {dt}")

    rho, b, ux, uy = state.rho, state.b, state.ux, state.uy
    scheme = params.advect_scheme
    energy_before = total_energy(state, params, grid)
    rmin0, rmax0 = ratio_bounds(state)
    src = sources(grid, state.t) if sources is not None else None
    iters = 0

    # (1) explicit transport, same linear update for both scalars
    rho1 = rho - dt * upwind_scalar_flux_div(grid, rho, ux, uy, scheme)
    b1 = b - dt * upwind_scalar_flux_div(grid, b, ux, uy, scheme)
    if src is not None:
        rho1 = rho1 + dt * src.rho
        b1 = b1 + dt * src.b

    # (2) implicit diffusion
    if params.eps > 0.0:
        rho1, it_r = _diffusion_solve_counted(grid, rho1, params.eps, dt, "neumann")
        b1, it_b = _diffusion_solve_counted(grid, b1, params.eps, dt, "neumann")
        iters += it_r + it_b

    _check_positive(rho1, b1, state.t, dt)

    # (3) momentum
    if params.freeze_velocity:
        ux1, uy1 = ux, uy
    else:
        P = pressure_total(rho, b, params)
        gP = gradient_cc_to_face(grid, P)
        adv = momentum_advection(grid, rho, ux, uy, scheme)
        drag = eps_gradrho_gradu(grid, rho, ux, uy, params.eps)
        mx = face_average_x(rho) * ux - dt * (adv.x + gP.x + drag.x)
        my = face_average_y(rho) * uy - dt * (adv.y + gP.y + drag.y)
        if src is not None:
            mx = mx + dt * src.ux
            my = my + dt * src.uy
        mx[0, :] = 0.0
        mx[-1, :] = 0.0
        my[:, 0] = 0.0
        my[:, -1] = 0.0
        ux1, uy1, vit = _viscous_solve(
            grid,
            face_average_x(rho1),
            face_average_y(rho1),
            mx,
            my,
            dt,
            params.mu,
            params.lam,
            guess=(ux, uy),
        )
        iters += vit

    new_state = State(rho=rho1, b=b1, ux=ux1, uy=uy1, t=state.t + dt)
    energy_after = total_energy(new_state, params, grid)
    rmin1, rmax1 = ratio_bounds(new_state)
    drift = max(rmin0 - rmin1, rmax1 - rmax0, 0.0)
    report = StepReport(
        dt_used=dt,
        max_ratio_drift=drift,
        energy_before=energy_before,
        energy_after=energy_after,
        linear_solver_iters=iters,
    )
    return new_state, report


def _check_positive(rho, b, t, dt):
    ok = np.isfinite(rho).all() and np.isfinite(b).all()
    if ok and rho.min() > 0.0 and b.min() > 0.0:
        return
    i_r = np.unravel_index(np.argmin(rho), rho.shape)
    i_b = np.unravel_index(np.argmin(b), b.shape)
    raise PositivityLoss(
        "positivity lost during transport/diffusion: "
        f"t={t:.6g}, dt={dt:.3g}, min rho={rho.min():.6g} at {i_r}, "
        f"min b={b.min():.6g} at {i_b}"
    )


# ------------------------------------------------------------------
# Run driver
# ------------------------------------------------------------------

def run(
    config,
    initial_state: State | None = None,
    sources: Callable[[Grid, float], Sources] | None = None,
    record_times: Sequence[float] | None = None,
    max_steps: int | None = None,
    output_dir=None,
):
    """Integrate to t_final, collecting diagnostics and snapshots.

    Deterministic for a fixed config.  Recording is step-interval based
    (config.record_interval / config.snapshot_interval); pass
    `record_times` instead to force records and snapshots at exact time
    points (the step is then capped to land on them), which is how sweep
    members end up on a shared quadrature grid.  When `output_dir` is
    given, the time series and snapshots are written there, and whatever
    has been computed is flushed before an abort propagates.

    Returns (Trajectory, DiagnosticsSeries).
    """
    from .diagnostics import DiagnosticsSeries, record_state

    params = config.params
    grid = build_grid(params)
    if initial_state is None:
        state, _env = init_state(grid, config.init)
    else:
        state = initial_state

    series = DiagnosticsSeries(
        metadata={
            "run_id": getattr(config, "run_id", "run"),
            "elastic_energy": "isothermal(rho*log rho)" if params.gamma == 1.0 else "gamma-law",
            "energy_pos_drift": 0.0,
            "max_step_energy_increase": 0.0,
            "max_energy_increase_rate": 0.0,
            "steps": 0,
        }
    )
    traj = Trajectory(grid=grid, params=params, times=[], states=[])

    rts = None
    if record_times is not None:
        rts = [t for t in sorted(float(t) for t in record_times) if t > 0.0]

    series.append(record_state(state, params, grid))
    traj.append(state)

    t_final = params.t_final
    tiny = 1e-12 * max(1.0, abs(t_final))
    steps = 0
    try:
        while t_final - state.t > tiny and (max_steps is None or steps < max_steps):
            target = t_final
            if rts:
                while rts and rts[0] <= state.t + tiny:
                    rts.pop(0)
                if rts and rts[0] < target:
                    target = rts[0]
            state, rep = step(state, params, grid, dt_cap=target - state.t, sources=sources)
            if abs(state.t - target) <= 4.0 * tiny:
                state = replace(state, t=target)
            steps += 1
            inc = max(rep.energy_after - rep.energy_before, 0.0)
            series.metadata["energy_pos_drift"] += inc
            series.metadata["max_step_energy_increase"] = max(
                series.metadata["max_step_energy_increase"], inc
            )
            series.metadata["max_energy_increase_rate"] = max(
                series.metadata["max_energy_increase_rate"], inc / rep.dt_used
            )
            if record_times is not None:
                if state.t == target and target != t_final:
                    series.append(record_state(state, params, grid))
                    traj.append(state)
            else:
                if steps % config.record_interval == 0:
                    series.append(record_state(state, params, grid))
                if steps % config.snapshot_interval == 0:
                    traj.append(state)
        # terminal record/snapshot, unless the loop already emitted one
        if not series.records or series.records[-1].t != state.t:
            series.append(record_state(state, params, grid))
        if not traj.times or traj.times[-1] != state.t:
            traj.append(state)
        series.metadata["steps"] = steps
    finally:
        if output_dir is not None:
            _flush_outputs(config, traj, series, output_dir)

    return traj, series


def _flush_outputs(config, traj, series, output_dir):
    import os

    from .storage import write_snapshot, write_timeseries_csv

    run_dir = os.path.join(str(output_dir), getattr(config, "run_id", "run"))
    os.makedirs(run_dir, exist_ok=True)
    write_timeseries_csv(series, os.path.join(run_dir, "timeseries.csv"))
    for k, st in enumerate(traj.states):
        write_snapshot(st, os.path.join(run_dir, f"snapshot_{k:05d}.mhd2"))
