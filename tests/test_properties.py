"""Property-based checks of the operator identities the proofs rely on,
on drawn grids (nx, ny in 4..16, Lx, Ly in [0.5, 2]) and drawn fields:
summation by parts, conservative and monotone upwind transport, a
positive viscous operator, and one step that conserves rho and b and
keeps b/rho in its initial envelope; and, on drawn physical parameters,
that every SimulationParams that builds satisfies the paper's
inequalities.  The examples are derandomized (see conftest.py); the
tolerances are those of the fixed-seed tests."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mhd2d.core import Grid, InitialDataSpec, SimulationParams, init_state, ratio_bounds, validate_params
from mhd2d.errors import ValidationError
from mhd2d.operators import (
    FaceField,
    divergence_face_to_cc,
    face_average_x,
    face_average_y,
    gradient_cc_to_face,
    upwind_scalar_flux_div,
)
from mhd2d.solver import _face_vector, _viscous_matvec, _viscous_operator, step

grids = st.builds(Grid, st.integers(4, 16), st.integers(4, 16), st.floats(0.5, 2.0), st.floats(0.5, 2.0))


def field(data, shape, lo=-1.0, hi=1.0):
    return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))


def noslip_faces(data, g):
    ux = field(data, (g.nx + 1, g.ny))
    uy = field(data, (g.nx, g.ny + 1))
    ux[0, :] = ux[-1, :] = 0.0
    uy[:, 0] = uy[:, -1] = 0.0
    return ux, uy


@given(grids, st.data())
def test_face_gradient_and_cell_divergence_are_negative_adjoints(g, data):
    q = field(data, (g.nx, g.ny))
    fx, fy = noslip_faces(data, g)
    grad = gradient_cc_to_face(g, q)
    lhs = (np.sum(grad.x * fx) + np.sum(grad.y * fy)) * g.cell_area
    rhs = -np.sum(q * divergence_face_to_cc(g, FaceField(fx, fy))) * g.cell_area
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))


@given(grids, st.data())
def test_upwind_transport_under_cfl_conserves_and_stays_in_range(g, data):
    # the range statement needs solenoidal velocity: from a node stream function
    q = field(data, (g.nx, g.ny), 0.5, 2.0)
    psi = field(data, (g.nx + 1, g.ny + 1))
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    ux = (psi[:, 1:] - psi[:, :-1]) / g.hy
    uy = -(psi[1:, :] - psi[:-1, :]) / g.hx
    out_x = np.maximum(ux[1:, :], 0.0) + np.maximum(-ux[:-1, :], 0.0)
    out_y = np.maximum(uy[:, 1:], 0.0) + np.maximum(-uy[:, :-1], 0.0)
    rate = (out_x / g.hx + out_y / g.hy).max()
    dt = 0.9 / rate if rate > 0.9 else 1.0  # dt*rate <= 0.9 either way; 0.9/subnormal is inf
    q1 = q - dt * upwind_scalar_flux_div(g, q, ux, uy, "upwind")
    assert abs(q1.sum() - q.sum()) < 1e-12 * q.sum()
    assert q1.min() >= q.min() - 1e-12
    assert q1.max() <= q.max() + 1e-12


@given(grids, st.data())
def test_viscous_operator_is_positive(g, data):
    rho = field(data, (g.nx, g.ny), 0.1, 10.0)
    mu = data.draw(st.floats(0.01, 1.0))
    lam = data.draw(st.floats(-1.99 * mu, 1.0))
    dt = data.draw(st.floats(1e-4, 0.1))
    ux, uy = noslip_faces(data, g)
    ux[1, 0] = 1.0  # an interior face: p != 0
    operator, _ = _viscous_operator(g, face_average_x(rho), face_average_y(rho), dt, mu, lam)
    p = _face_vector(g, ux, uy)
    ap = np.empty_like(p)
    _viscous_matvec(*operator, p, ap, np.empty_like(p))
    assert np.dot(p, ap) > 0.0


@given(grids, st.data())
def test_upwind_step_conserves_rho_and_b_and_keeps_the_envelope(g, data):
    floats = lambda lo, hi: data.draw(st.floats(lo, hi))
    modes = lambda: data.draw(st.integers(0, 3))
    ratio_mid = floats(0.5, 2.0)
    spec = InitialDataSpec(
        kind="ratio-profile", rho_amp=floats(0.0, 0.5), kx=modes(), ky=modes(),
        ratio_mid=ratio_mid, ratio_amp=floats(0.0, 0.9 * ratio_mid), jx=modes(), jy=modes(),
        u_amp=floats(0.0, 1.0),
    )
    params = validate_params(SimulationParams(
        nx=g.nx, ny=g.ny, Lx=g.Lx, Ly=g.Ly, eps=floats(0.0, 0.05), delta=floats(0.0, 0.05)))
    s0, env = init_state(g, spec)
    s1, _ = step(s0, params, g)
    assert abs(s1.rho.sum() - s0.rho.sum()) < 1e-12 * s0.rho.sum()
    assert abs(s1.b.sum() - s0.b.sum()) < 1e-12 * s0.b.sum()
    rmin, rmax = ratio_bounds(s1)
    assert rmin >= env.c_star - 1e-11
    assert rmax <= env.c_upper + 1e-11


@given(st.floats(-0.1, 1.0), st.floats(-0.5, 1.0), st.floats(0.5, 6.0), st.floats(1.0, 10.0),
       st.sampled_from([0.0, 1e-2]) | st.floats(-0.01, 0.1))
def test_built_params_satisfy_the_papers_inequalities(mu, lam, gamma, Gamma, delta):
    try:
        p = SimulationParams(mu=mu, lam=lam, gamma=gamma, Gamma=Gamma, delta=delta)
    except ValidationError:
        return
    assert p.mu > 0.0 and p.lam + 2.0 * p.mu > 0.0 and p.gamma >= 1.0
    assert p.delta >= 0.0 and p.Gamma > 1.0
    assert p.delta == 0.0 or p.Gamma > max(4.0, p.gamma)
