"""Time integration of the regularized system (and its eps=delta=0 target mode).

One step is a Lie splitting in three stages:

  1. explicit monotone transport of rho and b by the current velocity and
  2. implicit Neumann diffusion solves for eps*Lap(rho), eps*Lap(b)
     (M-matrix, unconditionally stable, mass restored to the exact value
     the matrix column sums dictate): one scalar stage, run for rho and
     then for b, so both get the identical linear update that propagates
     the ratio envelope C*rho <= b <= C^*rho exactly;
  3. momentum update: explicit advection + pressure gradient +
     eps*(grad rho . grad)u, then one implicit solve for the full
     viscous operator mu*Lap(u) + (mu+lam)*grad(div u) with no-slip.

Diffusion and viscosity being implicit removes every h^2 time-step
restriction; the step size is limited by the advective/acoustic CFL
condition only, with the artificial-pressure sound speed included so the
explicit pressure coupling stays stable.

Both implicit solves are conjugate gradients to a fixed relative residual,
which no caller can loosen: plain CG to 1e-12 for diffusion and
Jacobi-preconditioned CG to 1e-10 for viscosity, started from the old
velocity.  Each works on one flat vector whose rows carry a zero ghost
column, so every stencil neighbour is a contiguous shift; the fused
matvecs and the CG updates run in place in buffers allocated once per
solve.  Dot products use numpy's einsum loop, not BLAS, so the result
does not depend on the BLAS thread count.  A non-finite right-hand side or
residual, CG breakdown and the iteration cap raise LinearSolveDivergence
naming the solve.

Buffers, allocated once per solve:
  viscous    7.5 face vectors: x, b (overwritten by the residual r), p,
             A p, one scratch, the centre and Jacobi diagonals, and div u
             on cells (half a face vector): 1.99 MB at 128^2, about the
             whole of a 2 MB per-core L2;
  diffusion  6 cell vectors: x, b (then r), p, A p, one scratch and the
             diagonal: 0.79 MB at 128^2.
In numpy the scratch holds, in turn, u*mu*dt/hx^2 and u*mu*dt/hy^2
(c/hx^2 and c/hy^2 for diffusion), the grad-div term, alpha*p, alpha*Ap
and, with Jacobi, z = r/jacobi; no two of them are live at once.  The
Jacobi CG takes r.r only where it might end the loop: when j_min*(r.z)
no longer exceeds 4*(tol*|b|)^2, when r.z is not finite and at the
iteration cap.  Until then an iteration costs two dot products, not three.

Passes per iteration: in numpy a viscous iteration makes about 34 passes
over (parts of) its vectors, one per ufunc call.  When the compiled
kernels of _kernels load, the whole loop after |b| is one C call per
solve, which makes three: the matvec, which sums p.Ap while it writes
A p; the update (x, r and z in one loop), which sums r.z while it writes
them; and the direction.  The scratch then holds only z.  Each kernel
does every element's operations in the order of its numpy twin, and each
dot adds in the fixed order of numpy's einsum loop, so both paths give
the same bits; the numpy code runs whenever the kernels cannot be built,
loaded or checked, and nothing else picks the path.  Both paths take
each operator as the one argument tuple of its C kernel, made once per
solve by its builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Grid, SimulationParams, State, build_grid, check_state
from .core import _compiled, field_shapes, init_state, pin_noslip
from .eos import pressure_total, sound_speed_sq
from .errors import DegenerateState, LinearSolveDivergence, PositivityLoss, ValidationError
from .operators import (
    eps_gradrho_gradu,
    face_average_x,
    face_average_y,
    gradient_cc_to_face,
    momentum_advection,
    upwind_scalar_flux_div,
)

__all__ = [
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
    linear_solver_iters: int


@dataclass
class Trajectory:
    """Snapshots of a run, dense enough for space-time quadratures."""

    grid: Grid
    params: SimulationParams
    states: list[State]

    @property
    def times(self) -> list[float]:
        """The snapshot times, read from the states themselves."""
        return [st.t for st in self.states]


# ------------------------------------------------------------------
# Time-step control
# ------------------------------------------------------------------

def _time_resolution(t: float) -> float:
    """Smallest time difference resolved near time t: run() treats two times
    closer than _time_resolution(t_final) as one, and stable_dt rejects a
    step shorter than _time_resolution of the time it starts from."""
    return 1e-12 * max(1.0, abs(t))


def stable_dt(state: State, params: SimulationParams, grid: Grid) -> float:
    """CFL-limited step from the advective and acoustic speeds.

    dt = cfl / ((umax + c)/hx + (vmax + c)/hy), with c the maximal
    acoustic speed (artificial pressure included) and the eps-drag speed
    eps*|grad rho| folded into the advective speeds.  Diffusion and
    viscosity are implicit, so they impose no h^2 restriction; dt_max,
    when set, caps the result.  Raises DegenerateState if the signal
    speed is zero (every term can underflow), naming the offending fields
    if the result is not finite (a NaN or inf in the state would
    otherwise slip past every later dt check), and if, before the dt_max
    cap, it falls below the time resolution at state.t: such steps would
    never bring a run to t_final.  (The floor follows the current time,
    not t_final, because a huge t_final with a step budget is how an
    open-ended run is asked for.)
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
    speed = (umax + c) / grid.hx + (vmax + c) / grid.hy
    if speed <= 0.0:
        raise DegenerateState(f"zero signal speed: (umax + c)/hx + (vmax + c)/hy = {speed}, c = {c}")
    dt = params.cfl / speed
    if not np.isfinite(dt):
        bad = [f for f in field_shapes(grid.nx, grid.ny) if not np.isfinite(getattr(state, f)).all()]
        raise DegenerateState(
            f"stable_dt is not finite (dt={dt}); non-finite values in {', '.join(bad)}"
        )
    floor = _time_resolution(state.t)
    if dt < floor:
        umag = max(float(np.abs(state.ux).max()), float(np.abs(state.uy).max()))
        raise DegenerateState(
            f"CFL time step collapsed: dt={dt:.3g} is below the time resolution "
            f"{floor:.3g} at t={state.t:.6g} (max |u| = {umag:.3g})"
        )
    if params.dt_max is not None:
        dt = min(dt, params.dt_max)
    return dt


# ------------------------------------------------------------------
# Conjugate gradients on flat vectors
# ------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two flat vectors by numpy's own loop, not BLAS.

    A threaded BLAS `ddot` is slower at these sizes and splits the sum by
    thread count, which would make results depend on the BLAS settings.
    """
    return float(np.einsum("i,i->", a, b))


# the outcomes of _cg_iterate, as cg_solve in _kernels.c numbers them
_CG_CONVERGED, _CG_RESIDUAL_NOT_FINITE, _CG_STALLED, _CG_BREAKDOWN = range(4)


def _cg(name, operator, b, x, tol, max_iter, jacobi=None):
    """Conjugate gradients for A x = b, in place on the flat vector x.

    A is the `name` operator ("viscous" or "diffusion") with the arguments
    `operator`, the tuple its builder makes: A v is
    _MATVECS[name](*operator, v, out, s), which may overwrite the scratch
    vector `s`.  With `jacobi` the residual is preconditioned by that
    diagonal, otherwise z = r (plain CG).  `b` is overwritten by the
    residual r = b - A x once its norm is taken.  Besides `x` and `b` the
    solve holds three vectors: p, A p and the scratch.  The loop after the
    norm is _cg_iterate, or, when _kernels.load() gives the library, its
    compiled twin, one call per solve, which gives the same bits.  Returns
    the iteration count; raises LinearSolveDivergence, naming the solve,
    when the right-hand side or the residual is not finite, on breakdown
    (p.Ap <= 0) and after `max_iter` iterations.
    """
    bnorm = math.sqrt(_dot(b, b))
    if not math.isfinite(bnorm):
        raise LinearSolveDivergence(f"{name} CG: right-hand side is not finite (norm {bnorm})")
    if bnorm == 0.0:
        x.fill(0.0)
        return 0

    r = b
    s, ap, p = (np.empty_like(b) for _ in range(3))
    jmin = jmax = far = 0.0
    if jacobi is not None:
        # jmin*(r.z) <= r.r <= jmax*(r.z) for a positive diagonal: while the
        # lower bound stays 2x above the tolerance and the upper one far
        # from overflow, r.r can neither stop the loop nor be non-finite,
        # so it is skipped
        jmin, jmax = float(jacobi.min()), float(jacobi.max())
        if not jmin > 0.0:
            jmin = 0.0
        far = 4.0 * (tol * bnorm) ** 2
    bounds = (tol * bnorm, max_iter, jmin, jmax, far)
    from . import _kernels  # at the first solve, not at import

    lib = _kernels.load()
    if lib is None:
        status, it, value = _cg_iterate(name, operator, x, r, p, ap, s, jacobi, *bounds)
    else:
        z = r if jacobi is None else s
        status, it, value = _kernels.cg_solve(lib, name, operator, x, r, p, ap, z, jacobi,
                                              *bounds)
    if status == _CG_RESIDUAL_NOT_FINITE:
        raise LinearSolveDivergence(f"{name} CG: residual is not finite after {it} iterations")
    if status == _CG_STALLED:
        raise LinearSolveDivergence(
            f"{name} CG stalled after {it} iterations, residual {value / bnorm:.3e}"
        )
    if status == _CG_BREAKDOWN:
        raise LinearSolveDivergence(
            f"{name} CG breakdown at iteration {it}: p.Ap = {value:.3e} is not positive"
        )
    return it


def _cg_iterate(name, operator, x, r, p, ap, s, jacobi, tb, max_iter, jmin, jmax, far):
    """The loop of _cg after the norm of b, which `r` holds on entry:
    r = b - A x, then CG steps until the residual norm is at most `tb`
    (tol*|b|).  The Jacobi CG takes r.r only where it might end the loop:
    when jmin*(r.z) no longer exceeds `far`, 4*(tol*|b|)^2, when
    jmax*(r.z) is not below 1e300 (or r.z not finite) and at the
    iteration cap.  Returns (status, iterations, value): value is the
    residual norm, or p.Ap on breakdown."""
    z = r if jacobi is None else s
    matvec = _MATVECS[name]
    matvec(*operator, x, ap, s)
    np.subtract(r, ap, out=r)
    if jacobi is None:
        np.copyto(p, r)
        rz = _dot(r, r)
    else:
        np.divide(r, jacobi, out=p)
        rz = _dot(r, p)
    it = 0
    while True:
        if jacobi is None or it >= max_iter or not (jmin * rz > far and jmax * rz < 1e300):
            res = math.sqrt(rz if jacobi is None else _dot(r, r))
            if not math.isfinite(res):
                return _CG_RESIDUAL_NOT_FINITE, it, res
            if res <= tb:
                return _CG_CONVERGED, it, res
            if it >= max_iter:
                return _CG_STALLED, it, res
        matvec(*operator, p, ap, s)
        pap = _dot(p, ap)
        if not pap > 0.0:
            return _CG_BREAKDOWN, it, pap
        # x += alpha*p and r -= alpha*Ap through the scratch, then z = r/jacobi
        alpha = rz / pap
        np.multiply(p, alpha, out=s)
        x += s
        np.multiply(ap, alpha, out=s)
        r -= s
        if jacobi is not None:
            np.divide(r, jacobi, out=s)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1


# ------------------------------------------------------------------
# Implicit scalar diffusion
# ------------------------------------------------------------------

def implicit_diffusion_solve(grid: Grid, q: np.ndarray, coef: float, dt: float) -> np.ndarray:
    """Solve (I - coef*dt*Lap) q' = q by conjugate gradients, Neumann walls.

    The relative residual is driven below 1e-12.  The cell sum of q' is
    restored to the exact value the unit column sums of the matrix
    dictate.  Raises
    ValidationError when coef*dt is negative or not finite, and
    LinearSolveDivergence after 10*(nx+ny) iterations, on a non-finite q
    or residual, and on CG breakdown.
    """
    x, _ = _diffusion_solve_counted(grid, q, coef, dt)
    return x


def _diffusion_operator(grid, c):
    """(diag, nx, ny, cx, cy), the arguments of _diffusion_matvec for
    I - c*Lap: `diag` is the flat centre coefficient with the mirror-ghost
    wall closure folded in (zero on the ghosts), cx, cy are c/h^2."""
    nx, ny = grid.nx, grid.ny
    cx, cy = c / grid.hx ** 2, c / grid.hy ** 2
    diag = np.empty((nx, ny + 1))
    diag[:, :ny] = 1.0 + 2.0 * (cx + cy)
    diag[:, ny] = 0.0
    # mirror ghosts: the wall neighbour drops out of the stencil
    d = diag[:, :ny]
    d[0, :] -= cx
    d[-1, :] -= cx
    d[:, 0] -= cy
    d[:, -1] -= cy
    return diag.ravel(), nx, ny, cx, cy


def _diffusion_matvec(diag, nx, ny, cx, cy, v, out, s):
    """out = (I - c*Lap) v on flat cell vectors, 5-point stencil.

    Cells are stored in rows of ny+1 with the last column a ghost held at
    zero, so every neighbour is a contiguous shift of the flat vector.
    The arguments before `v` come from _diffusion_operator.  The scratch
    vector `s` holds v*cx, then v*cy.
    """
    L = ny + 1
    np.multiply(diag, v, out=out)
    np.multiply(v, cx, out=s)
    out[L:] -= s[:-L]
    out[:-L] -= s[L:]
    np.multiply(v, cy, out=s)
    out[1:] -= s[:-1]
    out[:-1] -= s[1:]
    out.reshape(nx, L)[:, -1] = 0.0


def _diffusion_solve_counted(grid, q, coef, dt):
    c = coef * dt
    if not (math.isfinite(c) and c >= 0.0):
        raise ValidationError(f"diffusion solve needs a finite coef*dt >= 0, got {c}")
    if c == 0.0:
        return q.copy(), 0

    nx, ny = grid.nx, grid.ny
    b = np.zeros((nx, ny + 1))
    b[:, :ny] = q
    b = b.ravel()
    x = b.copy()
    it = _cg("diffusion", _diffusion_operator(grid, c), b, x, 1e-12, 10 * (nx + ny))

    x = x.reshape(nx, ny + 1)[:, :ny].copy()
    # the matrix has unit column sums; pin the cell sum to the exact value
    x += (np.sum(q) - np.sum(x)) / x.size
    return x, it


# ------------------------------------------------------------------
# Implicit viscous solve (Jacobi-preconditioned CG on stacked faces)
# ------------------------------------------------------------------
#
# Both face components live in one flat vector, x faces first, in rows
# of ny+1: x faces (nx+1, ny) get a last ghost column held at zero, y
# faces (nx, ny+1) fit as they are.  Every stencil neighbour is then a
# contiguous shift of the flat vector by 1 (y) or ny+1 (x).

def _faces(v: np.ndarray, grid: Grid):
    """(nx+1, ny+1) x-face and (nx, ny+1) y-face views of a flat face vector."""
    L = grid.ny + 1
    n = (grid.nx + 1) * L
    return v[:n].reshape(grid.nx + 1, L), v[n:].reshape(grid.nx, L)


def _face_vector(grid, ux, uy):
    """Pack (ux, uy) into a new flat face vector."""
    v = np.empty((2 * grid.nx + 1) * (grid.ny + 1))
    vx, vy = _faces(v, grid)
    vx[:, :-1] = ux
    vx[:, -1] = 0.0
    vy[...] = uy
    return v


def _viscous_operator(grid, rfx, rfy, dt, mu, lam):
    """The arguments of _viscous_matvec before its vectors, and the
    Jacobi diagonal: ((centre, div, nx, ny, ihx, ihy, cxs, cys, gxs, gys),
    jacobi).

    `centre` is the diagonal of rho_f*I - dt*mu*Lap_noslip, with the
    sign-flip ghost of the tangential walls folded in; it is zero on the
    pinned wall-normal faces and the ghosts, so the matvec leaves them
    zero.  `div` is a cell-vector scratch for div u.  ihx, ihy are 1/h,
    cxs, cys dt*mu/h^2 and gxs, gys dt*(mu+lam)/h.  `jacobi` adds the
    grad-div centre dt*(mu+lam)*2/h^2, giving the diagonal of the whole
    operator; it is 1 on the pinned faces and the ghosts, where the
    residual is held at zero.  Both diagonals are rows of one buffer,
    written in place.
    """
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    cx, cy = dt * mu / hx2, dt * mu / hy2
    centre, jacobi = np.empty((2, (2 * grid.nx + 1) * (grid.ny + 1)))
    dx, dy = _faces(centre, grid)
    np.add(rfx, 2.0 * (cx + cy), out=dx[:, :-1])
    np.add(rfy, 2.0 * (cx + cy), out=dy)
    dx[:, 0] += cy
    dx[:, -2] += cy
    dy[0, :] += cx
    dy[-1, :] += cx
    dx[0, :] = dx[-1, :] = dx[:, -1] = 0.0
    dy[:, 0] = dy[:, -1] = 0.0

    np.copyto(jacobi, centre)
    jx, jy = _faces(jacobi, grid)
    jx[1:-1, :-1] += dt * (mu + lam) * 2.0 / hx2
    jy[:, 1:-1] += dt * (mu + lam) * 2.0 / hy2
    jx[0, :] = jx[-1, :] = jx[:, -1] = 1.0
    jy[:, 0] = jy[:, -1] = 1.0
    div = np.empty(grid.nx * (grid.ny + 1))
    return (centre, div, grid.nx, grid.ny, 1.0 / grid.hx, 1.0 / grid.hy, cx, cy,
            dt * (mu + lam) / grid.hx, dt * (mu + lam) / grid.hy), jacobi


def _viscous_matvec(centre, div, nx, ny, ihx, ihy, cxs, cys, gxs, gys, u, out, s):
    """out = rho_f*u - dt*(mu*Lap_noslip(u) + (mu+lam)*grad(div u)), fused.

    `u` and `out` are flat face vectors (see _face_vector); the arguments
    before them come from _viscous_operator.  div u is formed once, in
    `div`; every term is a contiguous in-place update of `out`.  The
    scratch face vector `s` holds u*cxs, then u*cys, then the grad-div
    term.  Equal, up to round-off, to the componentwise 5-point Laplacian
    with sign-flip tangential ghosts (see noslip_ghosts) plus
    gradient_cc_to_face(divergence_face_to_cc(u)), the reference
    composition kept in the tests.  The wall-normal faces and ghosts of
    `out` are zero.
    """
    L = ny + 1
    n = (nx + 1) * L
    ux, uy, ox, oy = u[:n], u[n:], out[:n], out[n:]
    oi = ox[L:-L]  # interior x faces, rows 1..nx-1
    g = s[:div.size]  # cell-sized head of the scratch

    # div u on cells stored like y faces; the last column is junk that
    # only reaches outputs zeroed below
    np.subtract(ux[L:], ux[:-L], out=div)
    div *= ihx
    np.subtract(uy[1:], uy[:-1], out=g[:-1])
    g[-1] = 0.0
    g *= ihy
    div += g

    # each face sums its terms in one fixed order, which fixes the
    # rounding: centre, the two x neighbours, the two y neighbours, then
    # grad div.  Neighbours come as +L, -L, +1, -1 on x faces and as
    # -L, +L, -1, +1 on y faces, so the shifts stay per face block: one
    # shift of the whole vector would reorder one block's sums.
    np.multiply(centre, u, out=out)
    np.multiply(u, cxs, out=s)
    oi -= s[2 * L:n]
    oi -= s[:n - 2 * L]
    sy = s[n:]  # y-face block of the scratch
    oy[L:] -= sy[:-L]
    oy[:-L] -= sy[L:]
    np.multiply(u, cys, out=s)
    oi -= s[L + 1:n - L + 1]
    oi -= s[L - 1:n - L - 1]
    oy[1:] -= sy[:-1]
    oy[:-1] -= sy[1:]

    np.multiply(div, gxs, out=g)
    oi -= g[L:]
    oi += g[:-L]
    np.multiply(div, gys, out=g)
    oy[1:] -= g[1:]
    oy[1:] += g[:-1]

    ox.reshape(nx + 1, L)[:, -1] = 0.0
    oy.reshape(nx, L)[:, ::ny] = 0.0


# the numpy twin of each operator's compiled matvec, by the solve's name
_MATVECS = {"diffusion": _diffusion_matvec, "viscous": _viscous_matvec}


def _viscous_solve(grid, rfx, rfy, mx, my, dt, mu, lam, guess):
    """Solve (rho_f*I - dt*(mu*Lap + (mu+lam)*grad div)) u = m, no-slip.

    The operator is symmetric positive definite in the plain face inner
    product (uniform mesh), so Jacobi-preconditioned CG applies, on one
    flat face vector starting from `guess`, to a relative residual of
    1e-10.  The wall-normal faces are pinned to zero.  Returns (ux, uy,
    iterations).
    """
    operator, jacobi = _viscous_operator(grid, rfx, rfy, dt, mu, lam)
    b = _face_vector(grid, mx, my)
    pin_noslip(*_faces(b, grid))
    x = _face_vector(grid, *guess)
    it = _cg("viscous", operator, b, x, 1e-10, 10 * (grid.nx + grid.ny), jacobi)
    xx, xy = _faces(x, grid)
    ux, uy = xx[:, :-1].copy(), xy.copy()
    pin_noslip(ux, uy)
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

    Only the fields advance: no diagnostic of either state is computed
    here (run() measures the states it keeps).  Raises PositivityLoss
    (with a diagnostic dump in the message) if rho or b leaves the
    positive cone, DegenerateState from stable_dt, and
    LinearSolveDivergence from the implicit stages.
    """
    dt = stable_dt(state, params, grid)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not dt > 0.0:
        raise DegenerateState(f"nonpositive time step {dt}")

    rho, b, ux, uy = state.rho, state.b, state.ux, state.uy
    scheme = params.advect_scheme
    src = sources(grid, state.t) if sources is not None else None
    iters = 0

    # (1) explicit transport and (2) implicit diffusion: one scalar stage,
    # the same linear update for rho and then for b
    scalars = []
    for name in ("rho", "b"):
        q = getattr(state, name)
        q = q - dt * upwind_scalar_flux_div(grid, q, ux, uy, scheme)
        if src is not None:
            q = q + dt * getattr(src, name)
        if params.eps > 0.0:
            q, it = _diffusion_solve_counted(grid, q, params.eps, dt)
            iters += it
        scalars.append(q)
    rho1, b1 = scalars
    _check_positive(rho1, b1, state.t, dt)

    # (3) momentum
    if params.freeze_velocity:
        ux1, uy1 = ux, uy
    else:
        P = pressure_total(rho, b, params)
        gP = gradient_cc_to_face(grid, P)
        adv = momentum_advection(grid, rho, ux, uy, scheme)
        drag = eps_gradrho_gradu(grid, rho, ux, uy, params.eps)
        mx, my = _momentum_rhs(grid, rho, ux, uy, dt, adv, gP, drag, src)
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
    return new_state, StepReport(dt_used=dt, linear_solver_iters=iters)


def _momentum_rhs(grid, rho, ux, uy, dt, adv, gP, drag, src):
    """(mx, my) = rho_f*u - dt*(adv + grad P + drag), plus dt times the
    manufactured force when `src` is given."""
    mx, my = np.empty_like(ux), np.empty_like(uy)
    if not _compiled("momentum_rhs", rho, ux, uy, *adv, *gP, *drag, mx, my,
                     grid.nx, grid.ny, dt):
        mx = face_average_x(rho) * ux - dt * (adv.x + gP.x + drag.x)
        my = face_average_y(rho) * uy - dt * (adv.y + gP.y + drag.y)
    if src is not None:
        mx += dt * src.ux
        my += dt * src.uy
    return mx, my


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
    (config.record_interval / config.snapshot_interval), and the first and
    the last state are always recorded and stored; pass
    `record_times` instead to force records and snapshots at exact time
    points (the step is then capped to land on them), which is how sweep
    members end up on a shared quadrature grid.  When `output_dir` is
    given, the time series and snapshots are written there, and whatever
    has been computed is flushed before an abort propagates.  A caller's
    `initial_state` is checked (check_state, then stable_dt) before it is
    recorded, so a malformed or degenerate one raises ValidationError or
    DegenerateState with nothing recorded or written.

    Returns (Trajectory, DiagnosticsSeries).
    """
    # imported per call, not at module level, so a patched attribute (perfbench's tracer) is seen
    from .diagnostics import DiagnosticsSeries, record_state, total_energy

    params = config.params
    grid = build_grid(params)
    if initial_state is None:
        state, _env = init_state(grid, config.init)
    else:
        state = initial_state
        check_state(state, grid)
        stable_dt(state, params, grid)

    rts = None
    if record_times is not None:
        rts = [t for t in sorted(float(t) for t in record_times) if t > 0.0]

    series = DiagnosticsSeries(records=[record_state(state, params, grid)])
    traj = Trajectory(grid=grid, params=params, states=[state])
    # total_energy of every state, once: from its record when it has one
    energies, dts = [series.records[0].energy], []

    t_final = params.t_final
    tiny = _time_resolution(t_final)
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
            # the run's last state is both recorded and stored
            last = t_final - state.t <= tiny or steps == max_steps
            if record_times is not None:
                record = snapshot = last or state.t == target
            else:
                record = last or steps % config.record_interval == 0
                snapshot = last or steps % config.snapshot_interval == 0
            if record:
                series.records.append(record_state(state, params, grid))
                energies.append(series.records[-1].energy)
            else:
                energies.append(total_energy(state, params, grid))
            dts.append(rep.dt_used)
            if snapshot:
                traj.states.append(state)
        incs = [max(e1 - e0, 0.0) for e0, e1 in zip(energies, energies[1:])]
        drift = 0.0
        for inc in incs:  # not sum(): from Python 3.12 it is compensated
            drift += inc
        series.metadata = {
            "run_id": config.run_id,
            "elastic_energy": "isothermal(rho*log rho)" if params.gamma == 1.0 else "gamma-law",
            "energy_pos_drift": drift,
            "max_step_energy_increase": max([0.0, *incs]),
            "max_energy_increase_rate": max([0.0, *(i / dt for i, dt in zip(incs, dts))]),
            "steps": steps,
        }
    finally:
        if output_dir is not None:
            _flush_outputs(config, traj, series, output_dir)

    return traj, series


def _flush_outputs(config, traj, series, output_dir):
    import os

    # imported per call, not at module level, so a patched attribute (perfbench's tracer) is seen
    from .storage import write_snapshot, write_timeseries_csv

    run_dir = os.path.join(str(output_dir), config.run_id)
    os.makedirs(run_dir, exist_ok=True)
    write_timeseries_csv(series, os.path.join(run_dir, "timeseries.csv"))
    for k, st in enumerate(traj.states):
        write_snapshot(st, os.path.join(run_dir, f"snapshot_{k:05d}.mhd2"))
