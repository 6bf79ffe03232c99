"""Functional values against hand arithmetic and brute-force quadrature
oracles, cut-off function properties, and the space-time residual
machinery on states where the answer is known."""

import numpy as np
import pytest

from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, State, build_grid, init_state, validate_params
from mhd2d.diagnostics import (
    TestFunction,
    composition_defect,
    convex_fraction_functional,
    cutoff_tk,
    cutoff_tk_d1,
    cutoff_tk_d2,
    dissipation_rate,
    effective_viscous_flux_field,
    evf_pairing,
    log_entropy,
    log_entropy_comparison,
    ratio_bounds,
    record_state,
    renormalized_residual,
    total_energy,
    weak_residual,
    _bspline,
    _bspline_d1,
    _bspline_d2,
)
from mhd2d.errors import GridMismatch, NonpositiveField, SupportNotCovered, ValidationError
from mhd2d.solver import Trajectory, run


def params(**kw):
    return validate_params(SimulationParams(**kw))


def uniform_state(grid, rho=1.0, b=1.0, t=0.0):
    return State(
        rho=np.full((grid.nx, grid.ny), float(rho)),
        b=np.full((grid.nx, grid.ny), float(b)),
        ux=np.zeros((grid.nx + 1, grid.ny)),
        uy=np.zeros((grid.nx, grid.ny + 1)),
        t=t,
    )


def constant_trajectory(grid, p, times, rho=1.0, b=1.0):
    return Trajectory(grid=grid, params=p,
                      states=[uniform_state(grid, rho, b, t) for t in times])


# ------------------------------------------------------------------
# energy / dissipation
# ------------------------------------------------------------------

def test_total_energy_constant_fields():
    p = params(a=1.0, gamma=2.0, delta=0.0)
    g = build_grid(p)
    assert total_energy(uniform_state(g, 1.0, 1.0), p, g) == pytest.approx(1.5, rel=1e-13)
    assert total_energy(uniform_state(g, 1.0, 2.0), p, g) == pytest.approx(3.0, rel=1e-13)


def test_total_energy_with_artificial_pressure():
    p = params(a=1.0, gamma=2.0, delta=0.1, Gamma=6.0)
    g = build_grid(p)
    # 1 + 0.5 + 0.1/5 * 2^6 = 2.78 on the unit square
    assert total_energy(uniform_state(g, 1.0, 1.0), p, g) == pytest.approx(2.78, rel=1e-13)


def test_total_energy_isothermal_branch():
    p = params(a=1.0, gamma=1.0, delta=0.0)
    g = build_grid(p)
    e = np.e
    val = total_energy(uniform_state(g, e, 1.0), p, g)
    assert val == pytest.approx(e * 1.0 + 0.5, rel=1e-12)  # a*rho*log rho + b^2/2


def test_total_energy_kinetic_interpolation():
    p = params(a=1.0, gamma=2.0, delta=0.0)
    g = build_grid(p)
    s = uniform_state(g)
    ux = np.full((g.nx + 1, g.ny), 0.6)
    ux[0, :] = ux[-1, :] = 0.0
    s2 = State(rho=s.rho, b=s.b, ux=ux, uy=s.uy, t=0.0)
    # brute-force the kinetic quadrature
    ucx = 0.5 * (ux[:-1, :] + ux[1:, :])
    expected = 1.5 + 0.5 * np.sum(ucx ** 2) * g.cell_area
    assert total_energy(s2, p, g) == pytest.approx(expected, rel=1e-13)


def test_dissipation_zero_for_constant_state():
    p = params(eps=1e-2, delta=1e-2)
    g = build_grid(p)
    assert dissipation_rate(uniform_state(g), p, g) == 0.0


def test_dissipation_nonnegative_random():
    p = params(eps=1e-2, delta=1e-2)
    g = build_grid(p)
    rng = np.random.default_rng(3)
    for _ in range(20):
        ux = rng.standard_normal((g.nx + 1, g.ny))
        uy = rng.standard_normal((g.nx, g.ny + 1))
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
        s = State(rho=1 + rng.random((g.nx, g.ny)), b=1 + rng.random((g.nx, g.ny)), ux=ux, uy=uy, t=0.0)
        assert dissipation_rate(s, p, g) >= 0.0


def test_dissipation_linear_shear_hand_quadrature():
    # u = (s*y, 0) sampled raw: duxdy == s at the bottom wall and interior
    # (the odd reflection reproduces the linear profile), while the top wall
    # sees the no-slip layer of a profile that does not vanish there; the
    # total must match a brute-force loop over the declared closure and the
    # interior contribution is exactly mu*s^2 per node
    p = params(mu=0.37, lam=0.21, eps=0.0, nx=12, ny=10, Lx=1.2, Ly=0.9)
    g = build_grid(p)
    shear = 0.83
    _, YC = np.meshgrid(g.xf, g.yc, indexing="ij")
    ux = shear * YC
    st = State(rho=np.ones((g.nx, g.ny)), b=np.ones((g.nx, g.ny)), ux=ux,
               uy=np.zeros((g.nx, g.ny + 1)), t=0.0)
    val = dissipation_rate(st, p, g)

    ref = 0.0
    for i in range(g.nx + 1):  # duxdy over nodes, sign-flip ghosts
        for j in range(g.ny + 1):
            below = -ux[i, 0] if j == 0 else ux[i, j - 1]
            above = -ux[i, g.ny - 1] if j == g.ny else ux[i, j]
            ref += p.mu * ((above - below) / g.hy) ** 2 * g.cell_area
    assert val == pytest.approx(ref, rel=1e-12)

    interior = p.mu * shear ** 2 * (g.nx + 1) * g.ny * g.cell_area
    top_wall = p.mu * np.sum((2.0 * ux[:, -1] / g.hy) ** 2) * g.cell_area
    assert val == pytest.approx(interior + top_wall, rel=1e-12)


# ------------------------------------------------------------------
# simple functionals
# ------------------------------------------------------------------

def test_ratio_bounds_cases():
    p = params()
    g = build_grid(p)
    s = uniform_state(g, 1.0, 2.0)
    assert ratio_bounds(s) == (2.0, 2.0)
    b = np.ones((g.nx, g.ny))
    b[: g.nx // 2, :] = 0.5
    b[g.nx // 2:, :] = 1.5
    s2 = State(rho=np.ones_like(b), b=b, ux=s.ux, uy=s.uy, t=0.0)
    assert ratio_bounds(s2) == (0.5, 1.5)


@pytest.mark.parametrize("functional, rho, b, message", [
    (lambda s, g: ratio_bounds(s), 0.0, 1.0, "ratio_bounds needs rho > 0"),
    (convex_fraction_functional, -1.0, 0.5, "fraction functional needs rho \\+ b > 0"),
    (log_entropy, 1.0, 0.0, "log entropy needs rho, b > 0"),
], ids=["ratio_bounds", "convex_fraction_functional", "log_entropy"])
def test_functionals_reject_nonpositive_fields(functional, rho, b, message):
    g = build_grid(params())
    with pytest.raises(NonpositiveField, match=message):
        functional(uniform_state(g, rho, b), g)


def test_fraction_functional_values():
    p = params()
    g = build_grid(p)
    assert convex_fraction_functional(uniform_state(g, 1.0, 1.0), g) == pytest.approx(0.5, rel=1e-13)
    assert convex_fraction_functional(uniform_state(g, 1.0, 3.0), g) == pytest.approx(0.25, rel=1e-13)


def test_log_entropy_values():
    p = params()
    g = build_grid(p)
    assert log_entropy(uniform_state(g, 1.0, 1.0), g) == pytest.approx(0.0, abs=1e-14)
    assert log_entropy(uniform_state(g, np.e, 1.0), g) == pytest.approx(np.e, rel=1e-13)


def test_effective_viscous_flux_values():
    p = params(a=1.0, gamma=2.0, mu=0.25, lam=0.1, delta=0.0)
    g = build_grid(p)
    evf = effective_viscous_flux_field(uniform_state(g, 1.0, 1.0), p, g)
    assert np.allclose(evf, 1.5, atol=1e-13)
    # uniform expansion: div u = s exactly for u = (s*x, 0)
    s_rate = 0.6
    ux = s_rate * np.tile(g.xf[:, None], (1, g.ny))
    st = State(rho=np.ones((g.nx, g.ny)), b=np.ones((g.nx, g.ny)), ux=ux,
               uy=np.zeros((g.nx, g.ny + 1)), t=0.0)
    evf2 = effective_viscous_flux_field(st, p, g)
    assert np.allclose(evf2, 1.5 - (p.lam + 2 * p.mu) * s_rate, atol=1e-12)


# ------------------------------------------------------------------
# cut-off functions
# ------------------------------------------------------------------

def test_cutoff_values_from_definition():
    assert cutoff_tk(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)   # identity branch
    assert cutoff_tk(4.0, 1.0) == pytest.approx(2.0, abs=1e-15)   # saturation branch
    assert cutoff_tk(2.0, 1.0) == pytest.approx(1.75, abs=1e-15)  # Hermite mid segment
    # scaling T_k(z) = k T(z/k)
    assert cutoff_tk(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert cutoff_tk(8.0, 2.0) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(ValueError):
        cutoff_tk(1.0, 0.5)


def test_cutoff_concave_nondecreasing_lipschitz():
    rng = np.random.default_rng(10)
    for k in (1.0, 2.5):
        z = np.sort(rng.uniform(0.0, 5.0 * k, size=300))
        t = cutoff_tk(z, k)
        d = np.diff(t) / np.diff(z)
        assert np.all(np.diff(t) >= -1e-14)            # non-decreasing
        assert np.all(d <= 1.0 + 1e-12)                # 1-Lipschitz
        assert np.all(np.diff(d) <= 1e-10)             # concave (slopes decrease)


@pytest.mark.parametrize("fn", [cutoff_tk, cutoff_tk_d1, cutoff_tk_d2])
@pytest.mark.parametrize("k", [0.0, 0.5, np.nan])
def test_every_cutoff_rejects_a_level_below_one(fn, k):
    with pytest.raises(ValueError, match="cut-off level k must be >= 1"):
        fn(1.0, k=k)


def test_cutoff_c1_at_joints():
    for k in (1.0, 3.0):
        for z0 in (1.0 * k, 3.0 * k):
            eps = 1e-7
            left = (cutoff_tk(z0, k) - cutoff_tk(z0 - eps, k)) / eps
            right = (cutoff_tk(z0 + eps, k) - cutoff_tk(z0, k)) / eps
            assert abs(left - right) < 1e-5
            assert abs(cutoff_tk_d1(z0, k) - right) < 1e-5


def test_cutoff_second_derivative_matches_differences_of_the_first():
    # central differences of T_k' away from the kinks at k and 3k
    h = 1e-6
    for k in (1.0, 2.5):
        z = k * np.array([0.2, 0.9, 1.1, 2.0, 2.9, 3.1, 5.0])
        num = (cutoff_tk_d1(z + h, k) - cutoff_tk_d1(z - h, k)) / (2.0 * h)
        assert np.abs(num - cutoff_tk_d2(z, k)).max() < 1e-8
        assert np.any(cutoff_tk_d2(z, k) != 0.0)


# ------------------------------------------------------------------
# test functions
# ------------------------------------------------------------------

def test_bspline_c2_at_support_edge():
    for f, tol in ((_bspline, 1e-14), (_bspline_d1, 1e-14), (_bspline_d2, 1e-14)):
        assert abs(f(2.0)) < tol
        assert abs(f(-2.0)) < tol
    # continuity at the inner knot s=1
    eps = 1e-8
    assert abs(_bspline(1 - eps) - _bspline(1 + eps)) < 1e-7
    assert abs(_bspline_d1(1 - eps) - _bspline_d1(1 + eps)) < 1e-7
    assert abs(_bspline_d2(1 - eps) - _bspline_d2(1 + eps)) < 1e-7


def test_bspline_derivative_consistency():
    s = np.linspace(-1.9, 1.9, 401)
    num = np.gradient(_bspline(s), s)
    assert np.abs(num - _bspline_d1(s)).max() < 1e-3


def test_support_not_covered_raised():
    p = params(t_final=1.0)
    g = build_grid(p)
    traj = constant_trajectory(g, p, np.linspace(0.0, 0.3, 4))
    test = TestFunction.centered_in(g, 1.0)  # support reaches 0.9
    with pytest.raises(SupportNotCovered):
        evf_pairing(traj, test)
    with pytest.raises(SupportNotCovered):
        weak_residual(traj, test, "mass")


@pytest.mark.parametrize("center", [dict(x0=0.9, y0=0.5), dict(x0=0.5, y0=0.1)],
                         ids=["x-wall", "y-wall"])
def test_a_spatial_support_across_a_wall_is_not_covered(center):
    # u = 0 and constant fields solve the target system exactly; a bump
    # across a wall drops the boundary term int P phi, which must not be
    # reported as a residual
    p = params(nx=16, ny=16, eps=0.0, delta=0.0, t_final=0.2)
    g = build_grid(p)
    traj = constant_trajectory(g, p, np.linspace(0.0, 0.2, 21))
    assert weak_residual(traj, TestFunction.centered_in(g, 0.2), "momentum") == 0.0
    test = TestFunction(t0=0.1, wt=0.04, wx=0.2, wy=0.2, **center)
    with pytest.raises(SupportNotCovered, match="leaves the domain"):
        weak_residual(traj, test, "momentum")


@pytest.mark.parametrize("name, value", [("wt", 0.0), ("wx", -0.2), ("wy", 0.0),
                                         ("x0", np.nan), ("t0", np.inf)])
def test_test_function_rejects_non_finite_values_and_non_positive_widths(name, value):
    kw = dict(t0=0.5, wt=0.2, x0=0.5, wx=0.2, y0=0.5, wy=0.2)
    kw[name] = value
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        TestFunction(**kw)


@pytest.mark.parametrize("pairing", [
    lambda traj, test: evf_pairing(traj, test, weight="tk", k=0.5),
    lambda traj, test: renormalized_residual(traj, test, h_choice="tk", k=0.5),
], ids=["evf_pairing", "renormalized_residual"])
def test_pairings_check_the_cutoff_level_first(pairing):
    p = params(t_final=1.0)
    g = build_grid(p)
    # the snapshots miss the test's support: k is checked first
    traj = constant_trajectory(g, p, np.linspace(0.0, 0.3, 4))
    with pytest.raises(ValueError, match="cut-off level k must be >= 1, got 0.5"):
        pairing(traj, TestFunction.centered_in(g, 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda traj, test: weak_residual(traj, test, "energy"), "unknown equation 'energy'"),
    (lambda traj, test: renormalized_residual(traj, test, h_choice="log"), "unknown h_choice 'log'"),
    (lambda traj, test: composition_defect(traj, traj, p=1.0), "exponent p must exceed 1, got 1.0"),
], ids=["equation", "h_choice", "exponent"])
def test_residuals_name_a_bad_argument(call, message):
    p = params(t_final=1.0)
    g = build_grid(p)
    traj = constant_trajectory(g, p, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=message):
        call(traj, TestFunction.centered_in(g, 1.0))


# ------------------------------------------------------------------
# pairings and residuals on known states
# ------------------------------------------------------------------

def test_evf_pairing_factorizes_for_constant_in_time_fields():
    p = params(a=1.0, gamma=2.0, mu=0.2, lam=0.0, delta=0.0)
    g = build_grid(p)
    times = np.linspace(0.0, 1.0, 41)
    traj = constant_trajectory(g, p, times, rho=1.2, b=0.7)
    test = TestFunction.centered_in(g, 1.0)
    val = evf_pairing(traj, test)
    X, Y = g.center_mesh()
    evf = effective_viscous_flux_field(traj.states[0], p, g)
    spatial = float(np.sum(test.phi(X, Y) * evf * (1.2 + 0.7))) * g.cell_area
    psi_int = np.trapezoid(test.psi(times), times)
    assert val == pytest.approx(psi_int * spatial, rel=1e-12)


def test_evf_pairing_tk_weight_constant_fields():
    p = params(a=1.0, gamma=2.0, delta=0.0)
    g = build_grid(p)
    times = np.linspace(0.0, 1.0, 41)
    traj = constant_trajectory(g, p, times, rho=0.5, b=0.5)
    test = TestFunction.centered_in(g, 1.0)
    # below the cut-off level both weights are the identity
    assert evf_pairing(traj, test, weight="tk", k=1.0) == pytest.approx(
        evf_pairing(traj, test, weight="sum"), rel=1e-12
    )


def test_evf_pairing_rejects_an_unknown_weight():
    p = params(t_final=1.0)
    g = build_grid(p)
    # the snapshots miss the test's support: the weight is checked first
    traj = constant_trajectory(g, p, np.linspace(0.0, 0.3, 4))
    with pytest.raises(ValueError, match="unknown weight 'bogus', pick 'sum' or 'tk'"):
        evf_pairing(traj, TestFunction.centered_in(g, 1.0), weight="bogus")


def test_weak_residual_constant_state_quadrature_level():
    # exact solution: the residual is pure time-quadrature error; on a grid
    # symmetric about the bump center the trapezoid of psi' cancels to
    # round-off, off-center it shows the second-order quadrature signature
    p = params(a=1.0, gamma=2.0, delta=0.0, eps=0.0, t_final=1.0)
    g = build_grid(p)
    sym = TestFunction.centered_in(g, 1.0)
    traj = constant_trajectory(g, p, np.linspace(0.0, 1.0, 51))
    assert abs(weak_residual(traj, sym, "mass")) < 1e-14

    off = TestFunction(t0=0.43, wt=0.15, x0=0.5 * g.Lx, wx=0.2 * g.Lx,
                       y0=0.5 * g.Ly, wy=0.2 * g.Ly)
    vals = []
    for n_rec in (51, 101):
        tr = constant_trajectory(g, p, np.linspace(0.0, 1.0, n_rec))
        vals.append(abs(weak_residual(tr, off, "mass")))
    assert vals[0] < 1e-3
    assert vals[1] < 0.35 * vals[0]


def test_renormalized_identity_reduces_to_weak_mass():
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.0, ratio_amp=0.25, jx=1, jy=0, u_amp=0.2)
    p = params(nx=16, ny=16, eps=0.0, delta=0.0, t_final=0.4)
    cfg = Config(params=p, init=spec)
    traj, _ = run(cfg, record_times=list(np.linspace(0.0, 0.4, 21)))
    test = TestFunction.centered_in(traj.grid, 0.4)
    a = renormalized_residual(traj, test, h_choice="identity", which="mass")
    b = weak_residual(traj, test, "mass")
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("which", ["rho", "magnetic", "bogus"])
def test_renormalized_residual_rejects_an_unknown_field(which):
    p = params(t_final=1.0)
    g = build_grid(p)
    # the snapshots miss the test's support: the field is checked first
    traj = constant_trajectory(g, p, np.linspace(0.0, 0.3, 4))
    with pytest.raises(ValueError, match=f"unknown field '{which}', pick 'mass' or 'b'"):
        renormalized_residual(traj, TestFunction.centered_in(g, 1.0), which=which)


def test_renormalized_residual_with_diffusion_vanishes_under_refinement():
    # at eps > 0 the residual holds the -eps*h''(q)|grad q|^2 and
    # -eps*h'(q) grad q . grad(psi phi) corrections; rho near 1 (k = 1) and
    # b in about [0.68, 1.93] (k = 1.2) both reach the cut-off's curved
    # segment, so both corrections are nonzero.  Without them the residual
    # stalls (reduction about 1.1); without the h'' one alone the b
    # residual falls about 4x, faster than first-order transport allows.
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.25, ratio_amp=0.5, jx=1, jy=0, u_amp=0.3)
    res = {}
    for n, nrec in ((32, 21), (64, 41)):
        p = params(nx=n, ny=n, eps=1e-2, delta=0.0, t_final=0.5)
        traj, _ = run(Config(params=p, init=spec), record_times=list(np.linspace(0.0, 0.5, nrec)))
        test = TestFunction.centered_in(traj.grid, 0.5)
        res[n] = (renormalized_residual(traj, test, "tk", 1.0, "mass"),
                  renormalized_residual(traj, test, "tk", 1.2, "b"))
    for coarse, fine in zip(res[32], res[64]):
        assert 1.5 <= abs(coarse) / abs(fine) <= 3.0, (coarse, fine)


def test_momentum_weak_residual_constant_state():
    p = params(a=1.0, gamma=2.0, delta=0.0, eps=0.0, t_final=1.0)
    g = build_grid(p)
    traj = constant_trajectory(g, p, np.linspace(0.0, 1.0, 81))
    test = TestFunction.centered_in(g, 1.0)
    # constant pressure: every term vanishes except quadrature noise of the
    # time part, which is zero because rho*u == 0
    assert abs(weak_residual(traj, test, "momentum")) < 1e-12


def _weak_residual_loops(traj, test):
    """The weak residuals as separate loops over the snapshots, each with
    its own test-function sampling and time trapezoid: the oracle for the
    shared space-time quadrature.  Returns (mass, magnetic, momentum)."""
    from mhd2d.eos import pressure_total
    from mhd2d.operators import eps_gradrho_gradu, face_to_center, node_shear

    grid, p = traj.grid, traj.params
    X, Y = grid.center_mesh()
    phi, phix = test.phi(X, Y), test.phi_dx(X, Y)
    phiy, phil = test.phi_dy(X, Y), test.phi_lap(X, Y)
    scalar = {"rho": [], "b": []}
    vals_x, vals_y = [], []
    for st in traj.states:
        ucx, ucy = face_to_center(st.ux, st.uy)
        for name, vals in scalar.items():
            q = getattr(st, name)
            space = np.sum(q * phi) * test.psi_d1(st.t)
            space += np.sum(q * (ucx * phix + ucy * phiy)) * test.psi(st.t)
            if p.eps > 0.0:
                space += p.eps * np.sum(q * phil) * test.psi(st.t)
            vals.append(float(space) * grid.cell_area)

        P = pressure_total(st.rho, st.b, p)
        duxdx = (st.ux[1:, :] - st.ux[:-1, :]) / grid.hx
        duydy = (st.uy[:, 1:] - st.uy[:, :-1]) / grid.hy
        duxdy_n, duydx_n = node_shear(grid, st.ux, st.uy)
        duxdy = 0.25 * (duxdy_n[:-1, :-1] + duxdy_n[:-1, 1:] + duxdy_n[1:, :-1] + duxdy_n[1:, 1:])
        duydx = 0.25 * (duydx_n[:-1, :-1] + duydx_n[:-1, 1:] + duydx_n[1:, :-1] + duydx_n[1:, 1:])
        div = duxdx + duydy
        psi, dpsi = test.psi(st.t), test.psi_d1(st.t)
        drag = eps_gradrho_gradu(grid, st.rho, st.ux, st.uy, p.eps)
        dragx, dragy = face_to_center(drag.x, drag.y)

        sx = np.sum(st.rho * ucx * phi) * dpsi
        sx += np.sum(st.rho * ucx * (ucx * phix + ucy * phiy)) * psi
        sx += np.sum(P * phix) * psi
        sx -= p.mu * np.sum(duxdx * phix + duxdy * phiy) * psi
        sx -= (p.mu + p.lam) * np.sum(div * phix) * psi
        sx -= np.sum(dragx * phi) * psi
        vals_x.append(float(sx) * grid.cell_area)

        sy = np.sum(st.rho * ucy * phi) * dpsi
        sy += np.sum(st.rho * ucy * (ucx * phix + ucy * phiy)) * psi
        sy += np.sum(P * phiy) * psi
        sy -= p.mu * np.sum(duydx * phix + duydy * phiy) * psi
        sy -= (p.mu + p.lam) * np.sum(div * phiy) * psi
        sy -= np.sum(dragy * phi) * psi
        vals_y.append(float(sy) * grid.cell_area)
    rx, ry = float(np.trapezoid(vals_x, traj.times)), float(np.trapezoid(vals_y, traj.times))
    return (float(np.trapezoid(scalar["rho"], traj.times)),
            float(np.trapezoid(scalar["b"], traj.times)), float(np.hypot(rx, ry)))


def test_weak_residuals_equal_the_per_loop_oracle_exactly():
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.2, b_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.0, ratio_amp=0.3, jx=1, jy=1, u_amp=0.3)
    p = params(nx=16, ny=12, eps=1e-2, delta=1e-2, lam=0.05, t_final=0.2)
    traj, _ = run(Config(params=p, init=spec), record_times=list(np.linspace(0.0, 0.2, 17)))
    test = TestFunction.centered_in(traj.grid, 0.2)
    mass, magnetic, momentum = _weak_residual_loops(traj, test)
    assert weak_residual(traj, test, "mass") == mass
    assert weak_residual(traj, test, "magnetic") == magnetic
    assert weak_residual(traj, test, "momentum") == momentum
    assert mass != 0.0 and magnetic != 0.0 and momentum != 0.0


# ------------------------------------------------------------------
# composition defect
# ------------------------------------------------------------------

def test_composition_defect_identical_trajectories():
    p = params()
    g = build_grid(p)
    times = np.linspace(0.0, 1.0, 11)
    tr = constant_trajectory(g, p, times, rho=1.1, b=0.9)
    assert composition_defect(tr, tr) == 0.0


def test_composition_defect_shared_constant_ratio():
    # b = C*rho in both trajectories: fractions agree regardless of rho
    p = params()
    g = build_grid(p)
    times = np.linspace(0.0, 1.0, 11)
    C = 1.7
    rng = np.random.default_rng(4)

    def traj_with(rho_scale):
        states = []
        for t in times:
            rho = rho_scale * (1.0 + 0.5 * rng.random((g.nx, g.ny)))
            states.append(State(rho=rho, b=C * rho, ux=np.zeros((g.nx + 1, g.ny)),
                                uy=np.zeros((g.nx, g.ny + 1)), t=t))
        return Trajectory(grid=g, params=p, states=states)

    d = composition_defect(traj_with(1.0), traj_with(2.0), p=2.0)
    assert d < 1e-25


def test_composition_defect_rejects_an_unknown_component_without_snapshots():
    p = params()
    empty = Trajectory(grid=build_grid(p), params=p, states=[])
    assert composition_defect(empty, empty, component="b") == 0.0
    with pytest.raises(ValueError, match="unknown component 'bogus', pick 'rho' or 'b'"):
        composition_defect(empty, empty, component="bogus")


def test_composition_defect_grid_mismatch():
    p1 = params(nx=8, ny=8)
    p2 = params(nx=16, ny=16)
    g1, g2 = build_grid(p1), build_grid(p2)
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(GridMismatch):
        composition_defect(constant_trajectory(g1, p1, t), constant_trajectory(g2, p2, t))
    tr_a = constant_trajectory(g1, p1, t)
    tr_b = constant_trajectory(g1, p1, t + 0.1)
    with pytest.raises(GridMismatch):
        composition_defect(tr_a, tr_b)


def test_entropy_comparison_identical_trajectories():
    p = params()
    g = build_grid(p)
    tr = constant_trajectory(g, p, np.linspace(0.0, 1.0, 6), rho=1.2, b=0.8)
    lhs, rhs = log_entropy_comparison(tr, tr)
    assert np.allclose(lhs, 0.0, atol=1e-14)
    assert np.allclose(rhs, 0.0, atol=1e-14)


def random_trajectory(g, p, times, rng):
    states = [
        State(
            rho=1.0 + rng.random((g.nx, g.ny)),
            b=1.0 + rng.random((g.nx, g.ny)),
            ux=rng.standard_normal((g.nx + 1, g.ny)),
            uy=rng.standard_normal((g.nx, g.ny + 1)),
            t=t,
        )
        for t in times
    ]
    return Trajectory(grid=g, params=p, states=states)


def test_entropy_comparison_pairs_each_snapshot_once(monkeypatch):
    from mhd2d import diagnostics
    from mhd2d.diagnostics import _divu_pairing, log_entropy

    p = params(nx=10, ny=7)
    g = build_grid(p)
    rng = np.random.default_rng(11)
    times = [0.0, 0.1, 0.25, 0.3, 0.7, 1.0]
    tr, ref = random_trajectory(g, p, times, rng), random_trajectory(g, p, times, rng)

    # the cumulative trapezoid as it was written before the pairings were
    # carried forward: both end points of every panel paired afresh
    lhs_ref, rhs_ref, acc_a, acc_r = [], [], 0.0, 0.0
    for k, (sa, sr) in enumerate(zip(tr.states, ref.states)):
        lhs_ref.append(log_entropy(sa, g) - log_entropy(sr, g))
        if k > 0:
            dt = times[k] - times[k - 1]
            acc_a += 0.5 * dt * (_divu_pairing(tr.states[k - 1], g) + _divu_pairing(sa, g))
            acc_r += 0.5 * dt * (_divu_pairing(ref.states[k - 1], g) + _divu_pairing(sr, g))
        rhs_ref.append(acc_r - acc_a)

    calls = []

    def counted(state, grid):
        calls.append(state.t)
        return _divu_pairing(state, grid)

    monkeypatch.setattr(diagnostics, "_divu_pairing", counted)
    lhs, rhs = log_entropy_comparison(tr, ref)
    assert len(calls) == 2 * len(times)
    assert np.array_equal(lhs, np.array(lhs_ref))
    assert np.array_equal(rhs, np.array(rhs_ref))
    assert np.any(rhs != 0.0)


def test_high_frequency_fraction_orders_smooth_vs_noisy():
    from mhd2d.diagnostics import high_frequency_energy_fraction

    p = params(nx=32, ny=32)
    g = build_grid(p)
    X, Y = g.center_mesh()
    smooth = np.cos(np.pi * X) * np.cos(np.pi * Y)
    noisy = smooth + 0.5 * np.random.default_rng(0).standard_normal(smooth.shape)
    f_smooth = high_frequency_energy_fraction(smooth)
    f_noisy = high_frequency_energy_fraction(noisy)
    assert 0.0 <= f_smooth < f_noisy <= 1.0
    assert high_frequency_energy_fraction(np.full((8, 8), 3.0)) == 0.0


def test_record_state_columns_finite_and_ordered():
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.25, ratio_amp=0.5, jx=1, jy=0)
    p = params(nx=12, ny=12, eps=1e-2, delta=1e-2)
    g = build_grid(p)
    s, env = init_state(g, spec)
    rec = record_state(s, p, g)
    row = rec.as_row()
    assert all(np.isfinite(v) for v in row)
    assert rec.ratio_min <= rec.ratio_max
    assert rec.ratio_min == pytest.approx(env.c_star)
    assert rec.delta_pressure_L1 > 0.0
