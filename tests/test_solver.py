"""Solver-level contracts: pressure closure, CFL control, the implicit
solves against closed-form eigenmodes and dense oracles, their named
failures, their independence of the BLAS thread count, and the per-step
invariants (fixed point, conservation, envelope, positivity, symmetry)."""

import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import mhd2d
from mhd2d import diagnostics, storage
from mhd2d.config import Config
from mhd2d.core import (
    InitialDataSpec,
    SimulationParams,
    State,
    build_grid,
    init_state,
    validate_params,
)
from mhd2d.diagnostics import ratio_bounds, record_state, total_energy
from mhd2d.errors import (
    DegenerateState,
    LinearSolveDivergence,
    NonpositiveField,
    PositivityLoss,
    ValidationError,
)
from mhd2d.operators import face_average_x, face_average_y
from mhd2d.solver import (
    Sources,
    _cg,
    _diffusion_operator,
    _diffusion_solve_counted,
    _face_vector,
    _faces,
    _viscous_matvec,
    _viscous_operator,
    _viscous_solve,
    implicit_diffusion_solve,
    pressure_total,
    run,
    stable_dt,
    step,
)
from mhd2d.storage import read_timeseries_csv
from scalar_oracles import laplacian_neumann
from velocity_oracles import grad_div_velocity, laplacian_velocity_noslip


def params(**kw):
    return validate_params(SimulationParams(**kw))


def constant_state(grid, rho=1.0, b=1.0):
    return State(
        rho=np.full((grid.nx, grid.ny), float(rho)),
        b=np.full((grid.nx, grid.ny), float(b)),
        ux=np.zeros((grid.nx + 1, grid.ny)),
        uy=np.zeros((grid.nx, grid.ny + 1)),
        t=0.0,
    )


# ------------------------------------------------------------------
# pressure
# ------------------------------------------------------------------

def test_pressure_total_values():
    p = params(a=1.0, gamma=2.0, delta=0.0)
    assert pressure_total(np.array([1.0]), np.array([2.0]), p) == pytest.approx(3.0)
    p2 = params(a=1.0, gamma=1.4, delta=0.1, Gamma=6.0)
    assert pressure_total(np.array([1.0]), np.array([1.0]), p2) == pytest.approx(7.9)


def test_pressure_total_zero_b_diagnostic_mode():
    p = params(a=1.0, gamma=2.0, delta=0.1, Gamma=6.0)
    with pytest.raises(NonpositiveField):
        pressure_total(np.array([1.0]), np.array([0.0]), p)
    with pytest.raises(NonpositiveField):
        pressure_total(np.array([-1.0]), np.array([1.0]), p)


# ------------------------------------------------------------------
# stable_dt
# ------------------------------------------------------------------

def test_stable_dt_acoustic_scaling_with_h():
    p1 = params(nx=16, ny=16, delta=0.0)
    p2 = params(nx=8, ny=8, delta=0.0)
    g1, g2 = build_grid(p1), build_grid(p2)
    dt1 = stable_dt(constant_state(g1), p1, g1)
    dt2 = stable_dt(constant_state(g2), p2, g2)
    assert dt2 == pytest.approx(2.0 * dt1, rel=1e-12)


def test_stable_dt_honors_cap():
    p = params(nx=16, ny=16, dt_max=1e-6)
    g = build_grid(p)
    assert stable_dt(constant_state(g), p, g) == 1e-6


def test_stable_dt_degenerate_state():
    p = params(nx=8, ny=8)
    g = build_grid(p)
    s = constant_state(g)
    bad = State(rho=s.rho - 2.0, b=s.b, ux=s.ux, uy=s.uy, t=0.0)
    with pytest.raises(DegenerateState):
        stable_dt(bad, p, g)


@pytest.mark.parametrize("field", ["ux", "uy"])
def test_stable_dt_nan_velocity_face_names_field(field):
    # one NaN face makes the CFL step NaN, which `dt <= 0` would let through
    # to the stages, where it surfaces as a mislabelled PositivityLoss
    p = params(nx=16, ny=16)
    g = build_grid(p)
    s = constant_state(g)
    getattr(s, field)[3, 5] = np.nan
    with pytest.raises(DegenerateState, match=f"non-finite values in {field}$"):
        stable_dt(s, p, g)
    with pytest.raises(DegenerateState, match=field):
        step(s, p, g)


@pytest.mark.parametrize("cfl", [np.nan, np.inf])
def test_a_non_finite_cfl_is_named_when_the_params_are_built(cfl):
    # a NaN fails no bound test, and stable_dt would name no non-finite field
    p = params(nx=12, ny=12)
    with pytest.raises(ValidationError, match=f"^cfl must be finite, got {cfl}$"):
        replace(p, cfl=cfl)


@pytest.mark.parametrize("speed", [1e100, 1e300])
def test_collapsed_cfl_step_raises_degenerate_state(speed):
    # a huge but finite velocity shrinks the CFL step below the run's time
    # resolution; unguarded, the run creeps (1e100) or the overflowing
    # viscous right-hand side is blamed (1e300)
    cfg = small_config(t_final=0.01)
    g = build_grid(cfg.params)
    s, _ = init_state(g, cfg.init)
    s.ux[8, 5] = speed
    msg = r"CFL time step collapsed: dt=\S+ .* at t=0 " + re.escape(f"(max |u| = {speed:.3g})")
    with np.errstate(over="ignore"), pytest.raises(DegenerateState, match=msg):
        run(cfg, initial_state=s, max_steps=200)


# ------------------------------------------------------------------
# implicit diffusion
# ------------------------------------------------------------------

def test_diffusion_solve_identity_when_coef_zero():
    p = params(nx=8, ny=8)
    g = build_grid(p)
    q = np.random.default_rng(0).random((g.nx, g.ny))
    out = implicit_diffusion_solve(g, q, 0.0, 0.1)
    assert np.array_equal(out, q)
    assert out is not q


def test_diffusion_solve_constant_invariant():
    p = params(nx=8, ny=8)
    g = build_grid(p)
    q = np.full((g.nx, g.ny), 3.2)
    out = implicit_diffusion_solve(g, q, 0.5, 0.1)
    assert np.abs(out - q).max() < 1e-12


def test_diffusion_solve_neumann_eigenmode_amplitude():
    p = params(nx=32, ny=8, Lx=2.0)
    g = build_grid(p)
    X, _ = g.center_mesh()
    mode = np.cos(np.pi * X / g.Lx)
    q = 1.0 + 0.25 * mode
    coef, dt = 0.05, 0.013
    lam = (2.0 - 2.0 * np.cos(np.pi * g.hx / g.Lx)) / g.hx ** 2
    out = implicit_diffusion_solve(g, q, coef, dt)
    expected = 1.0 + 0.25 / (1.0 + coef * dt * lam) * mode
    assert np.abs(out - expected).max() < 1e-10


def test_diffusion_solve_neumann_preserves_cell_sum():
    p = params(nx=16, ny=12)
    g = build_grid(p)
    q = 1.0 + np.random.default_rng(6).random((g.nx, g.ny))
    out = implicit_diffusion_solve(g, q, 0.3, 0.05)
    assert abs(out.sum() - q.sum()) < 1e-12 * q.sum()


def diffusion_cg_capped_at_one(c=100.0):
    """_cg on the system (I - c*Lap) x = q that implicit_diffusion_solve
    builds (rows of ny+1 with a zero ghost, mirror walls folded into the
    diagonal), on an 8x8 grid, with a cap of one iteration."""
    g = build_grid(params(nx=8, ny=8))
    b = np.zeros((g.nx, g.ny + 1))
    b[:, :g.ny] = np.random.default_rng(1).random((g.nx, g.ny))
    b = b.ravel()
    _cg("diffusion", _diffusion_operator(g, c), b, b.copy(), 1e-12, 1)


def test_diffusion_solve_iteration_cap():
    with pytest.raises(LinearSolveDivergence):
        diffusion_cg_capped_at_one()


# ------------------------------------------------------------------
# viscous operator
# ------------------------------------------------------------------

def viscous_apply(g, operator, u):
    """_viscous_matvec of the flat face vector u into fresh buffers, as
    (nx+1, ny) x-face and (nx, ny+1) y-face views."""
    out = np.empty_like(u)
    _viscous_matvec(*operator, u, out, np.empty_like(u))
    fx, fy = _faces(out, g)
    return fx[:, :-1], fy


def test_viscous_matvec_matches_operator_composition():
    p = params(nx=13, ny=9, Lx=1.3, Ly=0.7)
    g = build_grid(p)
    rng = np.random.default_rng(0)
    ux = rng.standard_normal((g.nx + 1, g.ny))
    uy = rng.standard_normal((g.nx, g.ny + 1))
    ux[0, :] = ux[-1, :] = 0.0
    uy[:, 0] = uy[:, -1] = 0.0
    rho = 1.0 + 0.3 * rng.random((g.nx, g.ny))
    rfx, rfy = face_average_x(rho), face_average_y(rho)
    dt, mu, lam = 3.7e-3, 0.23, 0.11
    lap = laplacian_velocity_noslip(g, ux, uy)
    gd = grad_div_velocity(g, ux, uy)
    refx = rfx * ux - dt * (mu * lap.x + (mu + lam) * gd.x)
    refy = rfy * uy - dt * (mu * lap.y + (mu + lam) * gd.y)
    refx[0, :] = refx[-1, :] = 0.0
    refy[:, 0] = refy[:, -1] = 0.0
    operator, _ = _viscous_operator(g, rfx, rfy, dt, mu, lam)
    ax, ay = viscous_apply(g, operator, _face_vector(g, ux, uy))
    assert np.abs(ax - refx).max() < 1e-13
    assert np.abs(ay - refy).max() < 1e-13


def test_viscous_operator_symmetric():
    # <v, A u> == <u, A v> in the plain face inner product
    p = params(nx=10, ny=8)
    g = build_grid(p)
    rng = np.random.default_rng(14)
    rho = 1.0 + rng.random((g.nx, g.ny))
    rfx, rfy = face_average_x(rho), face_average_y(rho)

    def rand_u():
        ux = rng.standard_normal((g.nx + 1, g.ny))
        uy = rng.standard_normal((g.nx, g.ny + 1))
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
        return ux, uy

    operator, _ = _viscous_operator(g, rfx, rfy, 0.01, 0.2, 0.05)
    for _ in range(10):
        u1, v1 = rand_u()
        u2, v2 = rand_u()
        a1x, a1y = viscous_apply(g, operator, _face_vector(g, u1, v1))
        a2x, a2y = viscous_apply(g, operator, _face_vector(g, u2, v2))
        lhs = np.sum(u2 * a1x) + np.sum(v2 * a1y)
        rhs = np.sum(u1 * a2x) + np.sum(v1 * a2y)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


# ------------------------------------------------------------------
# dense oracles: the composed operators probed with unit vectors
# ------------------------------------------------------------------

def oracle_grid():
    # non-square cells on a non-square domain
    return build_grid(params(nx=9, ny=7, Lx=1.3, Ly=0.8))


def dense_viscous(g, rfx, rfy, dt, mu, lam):
    """rho_f*I - dt*(mu*Lap + (mu+lam)*grad div) on the interior faces, with
    the pack/unpack maps between interior-face vectors and face fields."""
    nux = (g.nx - 1) * g.ny
    n = nux + g.nx * (g.ny - 1)

    def unpack(v):
        ux = np.zeros((g.nx + 1, g.ny))
        uy = np.zeros((g.nx, g.ny + 1))
        ux[1:-1, :] = v[:nux].reshape(g.nx - 1, g.ny)
        uy[:, 1:-1] = v[nux:].reshape(g.nx, g.ny - 1)
        return ux, uy

    def pack(ax, ay):
        return np.concatenate((ax[1:-1, :].ravel(), ay[:, 1:-1].ravel()))

    A = np.empty((n, n))
    for k in range(n):
        ux, uy = unpack(np.eye(1, n, k)[0])
        lap = laplacian_velocity_noslip(g, ux, uy)
        gd = grad_div_velocity(g, ux, uy)
        A[:, k] = pack(
            rfx * ux - dt * (mu * lap.x + (mu + lam) * gd.x),
            rfy * uy - dt * (mu * lap.y + (mu + lam) * gd.y),
        )
    return A, pack, unpack


def oracle_viscous_case():
    g = oracle_grid()
    rng = np.random.default_rng(21)
    rho = 1.0 + 0.6 * rng.random((g.nx, g.ny))
    rfx, rfy = face_average_x(rho), face_average_y(rho)
    dt, mu, lam = 0.02, 0.3, 0.17
    return g, rng, rfx, rfy, dt, mu, lam


def test_viscous_solve_matches_dense_oracle():
    g, rng, rfx, rfy, dt, mu, lam = oracle_viscous_case()
    A, pack, unpack = dense_viscous(g, rfx, rfy, dt, mu, lam)
    m = rng.standard_normal(A.shape[0])
    mx, my = unpack(m)
    guess = unpack(0.1 * rng.standard_normal(A.shape[0]))
    ux, uy, it = _viscous_solve(g, rfx, rfy, mx, my, dt, mu, lam, guess=guess)
    ref = np.linalg.solve(A, m)
    assert it > 0
    assert np.linalg.norm(pack(ux, uy) - ref) <= 1e-8 * np.linalg.norm(ref)
    assert np.all(ux[0, :] == 0.0) and np.all(ux[-1, :] == 0.0)
    assert np.all(uy[:, 0] == 0.0) and np.all(uy[:, -1] == 0.0)


def test_viscous_jacobi_diagonal_matches_dense_oracle():
    g, _rng, rfx, rfy, dt, mu, lam = oracle_viscous_case()
    A, pack, _unpack = dense_viscous(g, rfx, rfy, dt, mu, lam)
    _operator, jacobi = _viscous_operator(g, rfx, rfy, dt, mu, lam)
    jx, jy = _faces(jacobi, g)
    ref = np.diag(A)
    assert np.abs(pack(jx[:, :-1], jy) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_diffusion_solve_matches_dense_oracle():
    g = oracle_grid()
    n = g.nx * g.ny
    lap = np.empty((n, n))
    for k in range(n):
        lap[:, k] = laplacian_neumann(g, np.eye(1, n, k)[0].reshape(g.nx, g.ny)).ravel()
    coef, dt = 0.4, 0.03
    q = 1.0 + np.random.default_rng(22).random((g.nx, g.ny))
    ref = np.linalg.solve(np.eye(n) - coef * dt * lap, q.ravel()).reshape(q.shape)
    out = implicit_diffusion_solve(g, q, coef, dt)
    assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(ref)


# ------------------------------------------------------------------
# failures of the implicit solves are loud and named
# ------------------------------------------------------------------

def viscous_problem(n=12):
    g = build_grid(params(nx=n, ny=n))
    rng = np.random.default_rng(5)
    rho = 1.0 + rng.random((g.nx, g.ny))
    mx = rng.standard_normal((g.nx + 1, g.ny))
    my = rng.standard_normal((g.nx, g.ny + 1))
    mx[0, :] = mx[-1, :] = 0.0
    my[:, 0] = my[:, -1] = 0.0
    guess = (np.zeros_like(mx), np.zeros_like(my))
    return g, face_average_x(rho), face_average_y(rho), mx, my, guess


def test_viscous_solve_nan_rhs_raises():
    # the residual test `sqrt(rr) > tol*bnorm` is False for NaN, so an
    # unguarded CG returns its initial guess, finite, after 0 iterations
    g, rfx, rfy, mx, my, guess = viscous_problem()
    mx[4, 5] = np.nan
    with pytest.raises(LinearSolveDivergence, match=r"^viscous CG: right-hand side is not finite"):
        _viscous_solve(g, rfx, rfy, mx, my, 0.01, 0.1, 0.0, guess=guess)


def test_viscous_solve_nan_guess_raises_on_residual():
    g, rfx, rfy, mx, my, (gx, gy) = viscous_problem()
    gy[3, 3] = np.nan
    with pytest.raises(
        LinearSolveDivergence, match=r"^viscous CG: residual is not finite after 0 iterations$"
    ):
        _viscous_solve(g, rfx, rfy, mx, my, 0.01, 0.1, 0.0, guess=(gx, gy))


def test_viscous_solve_breakdown_raises():
    # a negative face density makes the operator indefinite: p.Ap < 0
    g, rfx, rfy, mx, my, guess = viscous_problem()
    with pytest.raises(
        LinearSolveDivergence, match=r"^viscous CG breakdown at iteration 0: p\.Ap = -.* is not positive$"
    ):
        _viscous_solve(g, -rfx, -rfy, mx, my, 1e-3, 0.1, 0.0, guess=guess)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_diffusion_solve_nonfinite_rhs_raises(value):
    # unguarded, an inf or NaN in q comes back as an all-NaN field
    g = build_grid(params(nx=8, ny=8))
    q = 1.0 + np.random.default_rng(3).random((g.nx, g.ny))
    q[2, 6] = value
    with pytest.raises(LinearSolveDivergence, match=r"^diffusion CG: right-hand side is not finite"):
        implicit_diffusion_solve(g, q, 0.5, 0.1)


def test_diffusion_solve_stall_message():
    with pytest.raises(LinearSolveDivergence, match=r"^diffusion CG stalled after 1 iterations, residual "):
        diffusion_cg_capped_at_one()


@pytest.mark.parametrize("coef", [-1.0, np.nan, np.inf])
def test_diffusion_solve_rejects_bad_coefficient(coef):
    # checked before anything is allocated: unchecked, nan and inf end in
    # a mislabelled "residual is not finite after 0 iterations"
    g = build_grid(params(nx=8, ny=8))
    q = 1.0 + np.random.default_rng(3).random((g.nx, g.ny))
    with np.errstate(all="raise"), pytest.raises(ValidationError, match=r"coef\*dt"):
        implicit_diffusion_solve(g, q, coef, 0.1)


def test_viscous_cg_stall_reports_the_current_residual():
    g, rfx, rfy, mx, my, _guess = viscous_problem(24)
    dt, mu, lam = 0.05, 0.3, 0.1
    operator, jacobi = _viscous_operator(g, rfx, rfy, dt, mu, lam)
    b = _face_vector(g, mx, my)
    b0 = b.copy()
    x = np.zeros_like(b)
    with pytest.raises(LinearSolveDivergence, match=r"^viscous CG stalled after 3 iterations") as exc:
        _cg("viscous", operator, b, x, 1e-10, 3, jacobi)
    printed = float(re.search(r"residual (\S+)$", str(exc.value)).group(1))
    ax = np.empty_like(x)
    _viscous_matvec(*operator, x, ax, np.empty_like(x))
    actual = np.linalg.norm(b0 - ax) / np.linalg.norm(b0)
    # 1e-10 is far below: the residual after 3 iterations is still large
    assert actual > 1e-4
    assert printed == pytest.approx(actual, rel=5e-4)


# ------------------------------------------------------------------
# buffer plan of the implicit solves
# ------------------------------------------------------------------

def traced_peak(fn, *args):
    """Peak bytes that fn(*args) holds at once, as numpy reports them to
    tracemalloc; the result is dropped only after the trace stops."""
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_viscous_solve_working_set():
    # x, the right-hand side turned residual, p, Ap, the scratch, the two
    # diagonals and a half-size div: 7.5 face vectors (12 with a buffer
    # per temporary)
    g, rfx, rfy, mx, my, guess = viscous_problem(64)
    peak, (_ux, _uy, it) = traced_peak(
        _viscous_solve, g, rfx, rfy, mx, my, 1e-3, 0.1, 0.05, guess
    )
    assert it > 0
    face_vector = (2 * g.nx + 1) * (g.ny + 1) * 8
    assert peak <= 8.0 * face_vector


def test_diffusion_solve_working_set():
    # x, the right-hand side turned residual, p, Ap, the scratch and the
    # diagonal: 6 cell vectors (9 with a buffer per temporary)
    g = build_grid(params(nx=64, ny=64))
    q = 1.0 + np.random.default_rng(8).random((g.nx, g.ny))
    peak, (_x, it) = traced_peak(_diffusion_solve_counted, g, q, 0.01, 1e-2)
    assert it > 0
    cell_vector = g.nx * (g.ny + 1) * 8
    assert peak <= 6.5 * cell_vector


def test_solves_leave_their_inputs_alone():
    g, rfx, rfy, mx, my, _zeros = viscous_problem()
    guess = (0.1 * mx, 0.1 * my)
    inputs = (rfx, rfy, mx, my, *guess)
    before = [a.copy() for a in inputs]
    _viscous_solve(g, rfx, rfy, mx, my, 0.01, 0.1, 0.05, guess=guess)
    for a, a0 in zip(inputs, before):
        assert np.array_equal(a, a0)

    q = 1.0 + np.random.default_rng(9).random((g.nx, g.ny))
    q0 = q.copy()
    _diffusion_solve_counted(g, q, 0.3, 0.05)
    assert np.array_equal(q, q0)


@pytest.mark.parametrize(
    "field, solve", [("ux", "viscous"), ("rho", "diffusion")]
)
def test_step_nonfinite_source_names_the_solve(field, solve):
    # a NaN force used to come back as the unchanged velocity guess, an inf
    # mass source as a NaN density reported as PositivityLoss
    p = params(nx=12, ny=12, eps=1e-2, delta=1e-2)
    g = build_grid(p)
    s = constant_state(g)

    def bad_sources(grid, t):
        src = Sources(
            rho=np.zeros((grid.nx, grid.ny)),
            b=np.zeros((grid.nx, grid.ny)),
            ux=np.zeros((grid.nx + 1, grid.ny)),
            uy=np.zeros((grid.nx, grid.ny + 1)),
        )
        getattr(src, field)[5, 5] = np.nan if field == "ux" else np.inf
        return src

    with pytest.raises(LinearSolveDivergence, match=f"^{solve} CG: right-hand side is not finite"):
        step(s, p, g, sources=bad_sources)


# ------------------------------------------------------------------
# BLAS thread count
# ------------------------------------------------------------------

BLAS_PROBE = """
import hashlib
import numpy as np
from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, validate_params
from mhd2d.solver import run

p = validate_params(SimulationParams(nx=128, ny=128, eps=1e-2, delta=1e-2, t_final=1.0))
spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                       ratio_mid=1.25, ratio_amp=0.75, jx=1, jy=0)
traj, series = run(Config(params=p, init=spec), max_steps=3)
s = traj.states[-1]
h = hashlib.sha256()
for f in (s.rho, s.b, s.ux, s.uy):
    h.update(np.ascontiguousarray(f).tobytes())
print(series.metadata["steps"], h.hexdigest())
"""


def test_run_bit_identical_across_blas_thread_counts():
    # a dot product routed through threaded BLAS splits its sum by thread
    # count; the solver must give the same bits pinned and unpinned
    src = os.path.dirname(os.path.dirname(mhd2d.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert out[0][0] == "3"
    assert out[0] == out[1]


# ------------------------------------------------------------------
# step invariants
# ------------------------------------------------------------------

def small_config(**kw):
    kw.setdefault("nx", 16)
    kw.setdefault("ny", 16)
    kw.setdefault("eps", 1e-2)
    kw.setdefault("delta", 1e-2)
    kw.setdefault("t_final", 1.0)
    p = params(**kw)
    spec = InitialDataSpec(
        kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
        ratio_mid=1.25, ratio_amp=0.75, jx=1, jy=0,
    )
    return Config(params=p, init=spec)


def test_constant_state_is_fixed_point():
    p = params(nx=12, ny=12, eps=1e-2, delta=1e-2)
    g = build_grid(p)
    s = s0 = constant_state(g)
    for _ in range(5):
        s, _rep = step(s, p, g)
    assert np.all(s.rho == 1.0)
    assert np.all(s.b == 1.0)
    assert np.all(s.ux == 0.0) and np.all(s.uy == 0.0)
    assert total_energy(s, p, g) == total_energy(s0, p, g)


def test_step_computes_no_diagnostics(monkeypatch):
    # step() only advances the fields; run() measures the states it keeps
    def refuse(*args, **kwargs):
        raise AssertionError("step() must not compute diagnostics")

    monkeypatch.setattr(diagnostics, "total_energy", refuse)
    monkeypatch.setattr(diagnostics, "ratio_bounds", refuse)
    cfg = small_config()
    g = build_grid(cfg.params)
    s, _ = init_state(g, cfg.init)
    for _ in range(3):
        s, rep = step(s, cfg.params, g)
    assert s.t > 0.0 and rep.linear_solver_iters > 0


def test_step_rejects_a_nonpositive_time_step():
    cfg = small_config()
    g = build_grid(cfg.params)
    s, _ = init_state(g, cfg.init)
    with pytest.raises(DegenerateState, match="nonpositive time step 0.0"):
        step(s, cfg.params, g, dt_cap=0.0)


def test_step_conserves_mass_and_envelope():
    cfg = small_config()
    g = build_grid(cfg.params)
    s, env = init_state(g, cfg.init)
    m_rho = s.rho.sum()
    m_b = s.b.sum()
    for _ in range(50):
        allowed = stable_dt(s, cfg.params, g)
        s, rep = step(s, cfg.params, g)
        assert rep.dt_used <= allowed * (1 + 1e-12)
    assert abs(s.rho.sum() - m_rho) < 1e-12 * m_rho
    assert abs(s.b.sum() - m_b) < 1e-12 * m_b
    rmin, rmax = ratio_bounds(s)
    assert rmin >= env.c_star - 1e-11
    assert rmax <= env.c_upper + 1e-11
    assert s.rho.min() > 0 and s.b.min() > 0


def test_step_positivity_loss_on_reckless_cfl():
    cfg = small_config()
    reckless = replace(cfg.params, cfl=5.0)  # validate_params would reject cfl > 1
    g = build_grid(reckless)
    s, _ = init_state(g, cfg.init)
    with pytest.raises(PositivityLoss):
        for _ in range(200):
            s, _rep = step(s, reckless, g)


def test_step_preserves_mirror_symmetry():
    # x-mirror-symmetric data stays symmetric to round-off
    cfg = small_config()
    p = replace(cfg.params, ny=8)
    spec = InitialDataSpec(kind="cosine-perturbation", rho_amp=0.1, b_amp=0.05, kx=2, ky=1)
    g = build_grid(p)
    s, _ = init_state(g, spec)
    for _ in range(30):
        s, _rep = step(s, p, g)
    assert np.abs(s.rho - s.rho[::-1, :]).max() < 1e-12
    assert np.abs(s.b - s.b[::-1, :]).max() < 1e-12
    assert np.abs(s.ux + s.ux[::-1, :]).max() < 1e-12
    assert np.abs(s.uy - s.uy[::-1, :]).max() < 1e-12


def test_frozen_velocity_heat_mode_decay():
    p = params(nx=32, ny=8, eps=1e-2, delta=1e-2, t_final=0.2, freeze_velocity=True)
    spec = InitialDataSpec(kind="cosine-perturbation", rho_base=1.0, rho_amp=0.1, b_base=1.0, b_amp=0.1, kx=1, ky=0)
    cfg = Config(params=p, init=spec)
    traj, _ = run(cfg)
    g = traj.grid
    lam = (2.0 - 2.0 * np.cos(np.pi * g.hx / g.Lx)) / g.hx ** 2
    X, _ = g.center_mesh()
    ref = 1.0 + 0.1 * np.cos(np.pi * X / g.Lx) * np.exp(-p.eps * lam * p.t_final)
    err = np.sqrt(np.sum((traj.states[-1].rho - ref) ** 2) / np.sum(ref ** 2))
    assert err < 5e-3
    # velocity stayed pinned
    assert np.all(traj.states[-1].ux == 0.0)


def test_zero_sources_reproduce_plain_run():
    cfg = small_config(t_final=0.02)

    def zero_sources(grid, t):
        return Sources(
            rho=np.zeros((grid.nx, grid.ny)),
            b=np.zeros((grid.nx, grid.ny)),
            ux=np.zeros((grid.nx + 1, grid.ny)),
            uy=np.zeros((grid.nx, grid.ny + 1)),
        )

    tr_a, _ = run(cfg)
    tr_b, _ = run(cfg, sources=zero_sources)
    for f in ("rho", "b", "ux", "uy"):
        assert np.array_equal(getattr(tr_a.states[-1], f), getattr(tr_b.states[-1], f))


# ------------------------------------------------------------------
# run driver
# ------------------------------------------------------------------

def test_run_zero_t_final_initial_diagnostics_only():
    cfg = small_config(t_final=0.0)
    traj, series = run(cfg)
    assert series.metadata["steps"] == 0
    assert len(series.records) == 1
    assert series.records[0].t == 0.0


def test_run_is_deterministic():
    cfg = small_config(t_final=0.02)
    _, s1 = run(cfg)
    _, s2 = run(cfg)
    assert [r.as_row() for r in s1.records] == [r.as_row() for r in s2.records]


def test_run_record_times_are_hit_exactly():
    cfg = small_config(t_final=0.05)
    times = [0.01, 0.025, 0.04, 0.05]
    traj, series = run(cfg, record_times=times)
    assert traj.times == [0.0] + times
    assert [r.t for r in series.records] == [0.0] + times


def test_run_records_equal_record_state_on_stored_states(monkeypatch):
    # run() computes the energy of each state once, inside the state's
    # record when it has one; every record equals record_state evaluated
    # afresh
    cfg = replace(small_config(t_final=0.02), record_interval=1, snapshot_interval=1)
    calls = []
    energy = diagnostics.total_energy
    monkeypatch.setattr(diagnostics, "total_energy", lambda *a: calls.append(a[0]) or energy(*a))
    traj, series = run(cfg)
    monkeypatch.undo()
    steps = series.metadata["steps"]
    assert steps >= 3 and len(calls) == steps + 1
    assert len(series.records) == len(traj.states) == steps + 1
    for rec, st in zip(series.records, traj.states):
        assert rec == record_state(st, cfg.params, traj.grid)


def test_run_measures_unrecorded_states_once_and_keeps_the_last(monkeypatch):
    # states off the record schedule take their energy from total_energy,
    # still once each; the last state is recorded and stored although
    # neither interval divides the step count
    cfg = replace(small_config(t_final=0.05), record_interval=4, snapshot_interval=5)
    calls = []
    energy = diagnostics.total_energy
    monkeypatch.setattr(diagnostics, "total_energy", lambda *a: calls.append(a[0]) or energy(*a))
    traj, series = run(cfg)
    monkeypatch.undo()
    steps = series.metadata["steps"]
    assert steps % 4 and steps % 5
    assert len(calls) == steps + 1
    assert all(a.t < b.t for a, b in zip(calls, calls[1:]))
    assert [r.t for r in series.records] == [s.t for s in calls[::4]] + [calls[-1].t]
    assert traj.times == [s.t for s in calls[::5]] + [calls[-1].t]
    assert series.records[-1].t == traj.states[-1].t == cfg.params.t_final


def test_run_measures_ratio_bounds_once_per_record(monkeypatch):
    cfg = replace(small_config(t_final=0.05), record_interval=5)
    calls = []
    bounds = diagnostics.ratio_bounds
    monkeypatch.setattr(diagnostics, "ratio_bounds", lambda s: calls.append(s) or bounds(s))
    _, series = run(cfg)
    monkeypatch.undo()
    assert series.metadata["steps"] > 10
    assert len(calls) == len(series.records)
    assert [s.t for s in calls] == [r.t for r in series.records]


def test_run_reaches_the_module_attributes_a_tracer_patches(monkeypatch, tmp_path):
    # perfbench traces run() by patching these module attributes; run() and
    # its output flush must look each one up when called, not at import
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(diagnostics, "record_state")
    count(storage, "write_snapshot")
    count(storage, "write_timeseries_csv")
    run(small_config(t_final=0.02), output_dir=tmp_path)
    assert calls["record_state"] >= 2 and calls["write_snapshot"] >= 2
    assert calls["write_timeseries_csv"] == 1


def test_run_max_steps():
    cfg = small_config(t_final=1e9)
    traj, series = run(cfg, max_steps=7)
    assert series.metadata["steps"] == 7


def test_run_gamma_one_metadata_flag():
    cfg = small_config(gamma=1.0, t_final=0.0)
    _, series = run(cfg)
    assert "isothermal" in series.metadata["elastic_energy"]


def test_isothermal_run_keeps_the_energy_inequality_and_the_invariants():
    # gamma = 1 is the endpoint of the paper's gamma >= 1, run past t = 0
    p = params(nx=16, ny=16, gamma=1.0, eps=1e-2, delta=1e-2, t_final=0.05)
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, ratio_mid=1.25, ratio_amp=0.5, u_amp=0.3)
    _, env = init_state(build_grid(p), spec)
    _, series = run(Config(params=p, init=spec, record_interval=1))
    assert series.metadata["elastic_energy"] == "isothermal(rho*log rho)"
    assert len(series.records) > 2
    assert np.all(np.diff(series.column("energy")) <= 0.0)
    f = series.column("F_convex")
    assert np.all(np.diff(f) <= 1e-8 * f[0])
    for name in ("mass_rho", "mass_b"):
        mass = series.column(name)
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
    assert series.column("ratio_min").min() >= env.c_star - 1e-10
    assert series.column("ratio_max").max() <= env.c_upper + 1e-10


@pytest.mark.parametrize("defect", ["shape", "no-slip"])
def test_run_checks_a_callers_initial_state(defect, tmp_path):
    cfg = small_config(t_final=0.01)
    g = build_grid(cfg.params)
    s, _ = init_state(g, cfg.init)
    if defect == "shape":
        s = replace(s, rho=s.rho[:, :-1])
    else:
        s.ux[0, 3] = 0.5
    with pytest.raises(ValidationError):
        run(cfg, initial_state=s, output_dir=tmp_path)
    assert not any(tmp_path.iterdir())


def test_run_with_an_escaping_run_id_writes_nothing(tmp_path):
    # the run_id is checked when the Config is built, before any work
    with pytest.raises(ValidationError, match="run_id '../escaped' is not filesystem-safe"):
        run(replace(small_config(t_final=0.01), run_id="../escaped"), output_dir=tmp_path / "out")
    assert not any(tmp_path.iterdir())


def test_run_degenerate_initial_state_raises_before_recording(tmp_path):
    # recorded unchecked, one x-face at 1e300 overflowed the first record to
    # an inf energy row, flushed to timeseries.csv before the step raised
    cfg = small_config(t_final=0.01)
    g = build_grid(cfg.params)
    s, _ = init_state(g, cfg.init)
    s.ux[8, 5] = 1e300
    with np.errstate(all="raise"), pytest.raises(DegenerateState, match="collapsed"):
        run(cfg, initial_state=s, output_dir=tmp_path)
    csv = tmp_path / cfg.run_id / "timeseries.csv"
    if csv.exists():
        rows = [r.as_row() for r in read_timeseries_csv(csv).records]
        assert np.isfinite(rows).all()
