"""Unit properties of the MAC-grid operators: exactness on low-order
fields, summation-by-parts adjointness, conservation, monotonicity,
and the closed-form discrete eigenvalues the solver tests lean on."""

import numpy as np
import pytest

from mhd2d.core import SimulationParams, build_grid, validate_params
from mhd2d.operators import (
    FaceField,
    box_average,
    divergence_face_to_cc,
    eps_gradrho_gradu,
    face_average_x,
    face_average_y,
    gradient_cc_to_face,
    momentum_advection,
    upwind_scalar_flux_div,
)
from scalar_oracles import laplacian_neumann
from velocity_oracles import grad_div_velocity, laplacian_velocity_noslip


def make_grid(nx=16, ny=12, Lx=1.0, Ly=0.75):
    return build_grid(validate_params(SimulationParams(nx=nx, ny=ny, Lx=Lx, Ly=Ly)))


def random_noslip_velocity(grid, rng, scale=1.0):
    ux = scale * rng.standard_normal((grid.nx + 1, grid.ny))
    uy = scale * rng.standard_normal((grid.nx, grid.ny + 1))
    ux[0, :] = ux[-1, :] = 0.0
    uy[:, 0] = uy[:, -1] = 0.0
    return ux, uy


def stream_function_velocity(grid, rng):
    """Discretely divergence-free no-slip velocity from a node stream function."""
    psi = rng.standard_normal((grid.nx + 1, grid.ny + 1))
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    ux = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    uy = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return ux, uy


# ------------------------------------------------------------------
# gradient / divergence
# ------------------------------------------------------------------

def test_gradient_of_constant_is_zero():
    g = make_grid()
    grad = gradient_cc_to_face(g, np.full((g.nx, g.ny), 3.7))
    assert np.all(grad.x == 0.0)
    assert np.all(grad.y == 0.0)


def test_gradient_linear_exact_on_interior_faces():
    g = make_grid()
    X, _ = g.center_mesh()
    grad = gradient_cc_to_face(g, X)
    assert np.allclose(grad.x[1:-1, :], 1.0, rtol=0, atol=1e-13)
    assert np.all(grad.x[0, :] == 0.0) and np.all(grad.x[-1, :] == 0.0)
    assert np.allclose(grad.y, 0.0, atol=1e-13)


def test_gradient_cosine_second_order_consistency():
    # grid-refinement slope against the analytic derivative of cos(2 pi x / Lx)
    errs = []
    for n in (16, 32):
        g = make_grid(nx=n, ny=4, Lx=1.0, Ly=1.0)
        X, _ = g.center_mesh()
        grad = gradient_cc_to_face(g, np.cos(2 * np.pi * X / g.Lx))
        xf = g.xf[1:-1]
        exact = -2 * np.pi / g.Lx * np.sin(2 * np.pi * xf / g.Lx)
        errs.append(np.abs(grad.x[1:-1, 0] - exact).max())
    order = np.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.2


def test_divergence_constant_noslip_zero():
    g = make_grid()
    fx = np.full((g.nx + 1, g.ny), 2.0)
    fy = np.full((g.nx, g.ny + 1), -1.0)
    fx[0, :] = fx[-1, :] = 0.0
    fy[:, 0] = fy[:, -1] = 0.0
    div = divergence_face_to_cc(g, FaceField(fx, fy))
    assert np.allclose(div[1:-1, 1:-1], 0.0, atol=1e-13)


def test_divergence_linear_field_exact():
    g = make_grid()
    fx = np.tile(g.xf[:, None], (1, g.ny))
    fy = np.zeros((g.nx, g.ny + 1))
    div = divergence_face_to_cc(g, FaceField(fx, fy))
    assert np.allclose(div, 1.0, rtol=0, atol=1e-12)


def test_divergence_of_gradient_sums_to_zero():
    g = make_grid()
    rng = np.random.default_rng(7)
    q = rng.standard_normal((g.nx, g.ny))
    div = divergence_face_to_cc(g, gradient_cc_to_face(g, q))
    total = div.sum() * g.cell_area
    assert abs(total) < 1e-13 * np.abs(q).max()


def test_adjointness_summation_by_parts_random():
    # <grad q, f>_faces = -<q, div f>_cells for no-slip-closed f
    g = make_grid(nx=19, ny=11, Lx=1.7, Ly=0.9)
    rng = np.random.default_rng(42)
    for _ in range(100):
        q = rng.standard_normal((g.nx, g.ny))
        fx, fy = random_noslip_velocity(g, rng)
        grad = gradient_cc_to_face(g, q)
        lhs = (np.sum(grad.x * fx) + np.sum(grad.y * fy)) * g.cell_area
        rhs = -np.sum(q * divergence_face_to_cc(g, FaceField(fx, fy))) * g.cell_area
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


# ------------------------------------------------------------------
# Laplacians
# ------------------------------------------------------------------

def test_laplacian_neumann_kills_constants():
    g = make_grid()
    lap = laplacian_neumann(g, np.full((g.nx, g.ny), 5.0))
    assert np.allclose(lap, 0.0, atol=1e-12)


def test_laplacian_neumann_cosine_eigenmode():
    g = make_grid(nx=24, ny=8, Lx=1.5, Ly=1.0)
    X, _ = g.center_mesh()
    q = np.cos(np.pi * X / g.Lx)
    lam = -(2.0 - 2.0 * np.cos(np.pi * g.hx / g.Lx)) / g.hx ** 2
    lap = laplacian_neumann(g, q)
    assert np.abs(lap - lam * q).max() < 1e-10 * abs(lam)


def test_laplacian_neumann_zero_column_sums():
    g = make_grid()
    rng = np.random.default_rng(3)
    q = rng.standard_normal((g.nx, g.ny))
    assert abs(laplacian_neumann(g, q).sum()) < 1e-11 * np.abs(q).max() / g.cell_area


def test_velocity_laplacian_zero_on_zero():
    g = make_grid()
    lap = laplacian_velocity_noslip(g, np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1)))
    assert np.all(lap.x == 0.0) and np.all(lap.y == 0.0)


def test_velocity_laplacian_dirichlet_eigenmode():
    g = make_grid(nx=20, ny=14, Lx=1.0, Ly=0.7)
    XF, YC = np.meshgrid(g.xf, g.yc, indexing="ij")
    ux = np.sin(np.pi * XF / g.Lx) * np.sin(np.pi * YC / g.Ly)
    ux[0, :] = ux[-1, :] = 0.0
    uy = np.zeros((g.nx, g.ny + 1))
    lam = -(2.0 - 2.0 * np.cos(np.pi * g.hx / g.Lx)) / g.hx ** 2 - (
        2.0 - 2.0 * np.cos(np.pi * g.hy / g.Ly)
    ) / g.hy ** 2
    lap = laplacian_velocity_noslip(g, ux, uy)
    assert np.abs(lap.x[1:-1, :] - lam * ux[1:-1, :]).max() < 1e-9 * abs(lam)


def test_velocity_laplacian_mirror_symmetry():
    g = make_grid(nx=12, ny=12, Lx=1.0, Ly=1.0)
    rng = np.random.default_rng(11)
    ux, uy = random_noslip_velocity(g, rng)
    # symmetrize under x-mirror: ux odd, uy even
    ux = 0.5 * (ux - ux[::-1, :])
    uy = 0.5 * (uy + uy[::-1, :])
    lap = laplacian_velocity_noslip(g, ux, uy)
    assert np.abs(lap.x + lap.x[::-1, :]).max() < 1e-12
    assert np.abs(lap.y - lap.y[::-1, :]).max() < 1e-12


# ------------------------------------------------------------------
# grad div
# ------------------------------------------------------------------

def test_grad_div_zero_on_zero():
    g = make_grid()
    gd = grad_div_velocity(g, np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1)))
    assert np.all(gd.x == 0.0) and np.all(gd.y == 0.0)


def test_grad_div_vanishes_on_stream_function_velocity():
    g = make_grid(nx=18, ny=18)
    rng = np.random.default_rng(5)
    ux, uy = stream_function_velocity(g, rng)
    gd = grad_div_velocity(g, ux, uy)
    scale = max(np.abs(ux).max(), np.abs(uy).max()) / min(g.hx, g.hy) ** 2
    assert np.abs(gd.x).max() < 1e-12 * scale
    assert np.abs(gd.y).max() < 1e-12 * scale


def test_grad_div_constant_divergence_field():
    g = make_grid()
    fx = np.tile(g.xf[:, None], (1, g.ny))  # div = 1 everywhere
    fy = np.zeros((g.nx, g.ny + 1))
    gd = grad_div_velocity(g, fx, fy)
    assert np.abs(gd.x).max() < 1e-12 and np.abs(gd.y).max() < 1e-12


# ------------------------------------------------------------------
# transport
# ------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["upwind", "centered"])
def test_transport_conserves_total(scheme):
    g = make_grid()
    rng = np.random.default_rng(9)
    q = 1.0 + rng.random((g.nx, g.ny))
    ux, uy = random_noslip_velocity(g, rng)
    div = upwind_scalar_flux_div(g, q, ux, uy, scheme)
    assert abs(div.sum() * g.cell_area) < 1e-13 * np.abs(q).max()


def test_transport_zero_velocity():
    g = make_grid()
    q = np.random.default_rng(1).random((g.nx, g.ny))
    div = upwind_scalar_flux_div(g, q, np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1)))
    assert np.all(div == 0.0)


def test_transport_constant_q_divergence_free_velocity():
    g = make_grid(nx=20, ny=20)
    rng = np.random.default_rng(13)
    ux, uy = stream_function_velocity(g, rng)
    div = upwind_scalar_flux_div(g, np.full((g.nx, g.ny), 2.5), ux, uy)
    scale = max(np.abs(ux).max(), np.abs(uy).max()) / min(g.hx, g.hy)
    assert np.abs(div).max() < 1e-12 * scale


def cfl_compliant_dt(grid, ux, uy, safety=0.9):
    out_x = np.maximum(ux[1:, :], 0.0) + np.maximum(-ux[:-1, :], 0.0)
    out_y = np.maximum(uy[:, 1:], 0.0) + np.maximum(-uy[:, :-1], 0.0)
    rate = (out_x / grid.hx + out_y / grid.hy).max()
    return safety / rate


def test_upwind_forward_euler_is_monotone():
    # one explicit step keeps q inside [min q, max q] for 100 random cases;
    # the bound statement needs solenoidal velocity (the update matrix has
    # row sums 1 - dt*div u, so compression legitimately raises maxima)
    g = make_grid(nx=14, ny=10)
    rng = np.random.default_rng(77)
    for _ in range(100):
        q = 0.5 + 1.5 * rng.random((g.nx, g.ny))
        ux, uy = stream_function_velocity(g, rng)
        dt = cfl_compliant_dt(g, ux, uy)
        q1 = q - dt * upwind_scalar_flux_div(g, q, ux, uy, "upwind")
        assert q1.min() >= q.min() - 1e-12
        assert q1.max() <= q.max() + 1e-12


@pytest.mark.parametrize("transport", [upwind_scalar_flux_div, momentum_advection])
def test_transports_reject_an_unknown_scheme(transport):
    g = make_grid()
    rng = np.random.default_rng(5)
    ux, uy = random_noslip_velocity(g, rng)
    with pytest.raises(ValueError, match="unknown transport scheme 'bogus'"):
        transport(g, 1.0 + rng.random((g.nx, g.ny)), ux, uy, "bogus")


# ------------------------------------------------------------------
# momentum advection
# ------------------------------------------------------------------

def test_momentum_advection_zero_velocity():
    g = make_grid()
    rho = 1.0 + np.random.default_rng(2).random((g.nx, g.ny))
    adv = momentum_advection(g, rho, np.zeros((g.nx + 1, g.ny)), np.zeros((g.nx, g.ny + 1)))
    assert np.all(adv.x == 0.0) and np.all(adv.y == 0.0)


def test_momentum_advection_uniform_interior():
    # uniform momentum field: flux differences vanish away from the wall
    # closure rows (the walls themselves carry the no-slip boundary flux)
    g = make_grid()
    rho = np.full((g.nx, g.ny), 1.3)
    ux = np.full((g.nx + 1, g.ny), 0.8)
    uy = np.full((g.nx, g.ny + 1), -0.4)
    adv = momentum_advection(g, rho, ux, uy)
    assert np.abs(adv.x[2:-2, 1:-1]).max() < 1e-13
    assert np.abs(adv.y[1:-1, 2:-2]).max() < 1e-13


def test_momentum_budget_telescopes_to_boundary_fluxes():
    # brute-force recomputation of the x-momentum budget: the volume sum of
    # the flux divergence must equal the net outer flux through the first
    # and last control surfaces (interior contributions cancel pairwise)
    g = make_grid(nx=9, ny=7, Lx=1.1, Ly=0.8)
    rng = np.random.default_rng(21)
    rho = 1.0 + rng.random((g.nx, g.ny))
    ux, uy = random_noslip_velocity(g, rng)
    adv = momentum_advection(g, rho, ux, uy)

    mx = face_average_x(rho) * ux
    total = adv.x.sum() * g.cell_area
    boundary = 0.0
    for j in range(g.ny):
        uc_last = 0.5 * (ux[g.nx - 1, j] + ux[g.nx, j])
        m_last = mx[g.nx - 1, j] if uc_last > 0 else mx[g.nx, j]
        uc_first = 0.5 * (ux[0, j] + ux[1, j])
        m_first = mx[0, j] if uc_first > 0 else mx[1, j]
        boundary += (uc_last * m_last - uc_first * m_first) * g.hy
    assert abs(total - boundary) < 1e-12 * max(1.0, abs(total))


# ------------------------------------------------------------------
# eps*(grad rho . grad) u
# ------------------------------------------------------------------

def test_drag_zero_eps_or_constant_rho():
    g = make_grid()
    rng = np.random.default_rng(4)
    ux, uy = random_noslip_velocity(g, rng)
    rho = 1.0 + rng.random((g.nx, g.ny))
    f0 = eps_gradrho_gradu(g, rho, ux, uy, 0.0)
    assert np.all(f0.x == 0.0) and np.all(f0.y == 0.0)
    fc = eps_gradrho_gradu(g, np.full((g.nx, g.ny), 2.0), ux, uy, 0.3)
    assert np.abs(fc.x).max() < 1e-13 and np.abs(fc.y).max() < 1e-13


def test_drag_linear_fields_hand_stencil():
    # rho = x, u = (x, 0): output x-component is exactly eps on interior faces
    g = make_grid(nx=10, ny=6)
    X, _ = g.center_mesh()
    ux = np.tile(g.xf[:, None], (1, g.ny))
    uy = np.zeros((g.nx, g.ny + 1))
    eps = 0.37
    f = eps_gradrho_gradu(g, X.copy(), ux, uy, eps)
    assert np.allclose(f.x[1:-1, :], eps, rtol=0, atol=1e-13)
    assert np.abs(f.y).max() < 1e-13


def test_box_average_is_exact_on_bilinear_fields():
    # the mean of a 2x2 block of a bilinear field is its value at the
    # block's centre
    i, j = np.meshgrid(np.arange(7.0), np.arange(5.0), indexing="ij")
    f = lambda a, b: 1.5 + 2.0 * a - 0.5 * b + 0.25 * a * b
    avg = box_average(f(i, j))
    assert avg.shape == (6, 4)
    assert np.allclose(avg, f(i[:-1, :-1] + 0.5, j[:-1, :-1] + 0.5), rtol=0, atol=1e-13)


def test_face_averages_match_midpoints():
    g = make_grid()
    rng = np.random.default_rng(8)
    q = rng.random((g.nx, g.ny))
    ax = face_average_x(q)
    ay = face_average_y(q)
    assert np.allclose(ax[1:-1, :], 0.5 * (q[:-1, :] + q[1:, :]))
    assert np.allclose(ay[:, 1:-1], 0.5 * (q[:, :-1] + q[:, 1:]))
    assert np.all(ax[0, :] == q[0, :]) and np.all(ay[:, -1] == q[:, -1])
