"""Computable functionals behind the regularized solver's invariants.

Everything here is a pure function of immutable snapshots: the total
energy and its dissipation rate, conserved masses, the b/rho envelope,
the monotone fraction functional rho^2/(rho+b), log entropies, the
effective viscous flux, concave cut-offs T_k, and space-time quadratures
of weak-form and renormalized-form residuals against compactly
supported separable test functions.

Quadrature convention: midpoint in space (fields sit at cell centers or
faces, test functions are evaluated there analytically), trapezoid in
time over snapshot times.  `_spacetime_integral` is the one place that
sets it: every pairing against a test function (`evf_pairing`,
`weak_residual`, `renormalized_residual`) is an integrand it maps over
the snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

# record_state looks ratio_bounds up here, so patching diagnostics.ratio_bounds reaches it
from .core import Grid, SimulationParams, State, _compiled, _require_finite, ratio_bounds
from .eos import pressure_total
from .errors import GridMismatch, NonpositiveField, SupportNotCovered, ValidationError
from .operators import (
    FaceField,
    box_average,
    divergence_face_to_cc,
    eps_gradrho_gradu,
    face_average_x,
    face_average_y,
    face_to_center,
    gradient_cc_to_face,
    node_shear,
)

__all__ = [
    "DiagnosticsRecord",
    "DiagnosticsSeries",
    "TestFunction",
    "record_state",
    "total_energy",
    "dissipation_rate",
    "ratio_bounds",
    "convex_fraction_functional",
    "log_entropy",
    "log_entropy_comparison",
    "effective_viscous_flux_field",
    "high_frequency_energy_fraction",
    "evf_pairing",
    "cutoff_tk",
    "cutoff_tk_d1",
    "cutoff_tk_d2",
    "weak_residual",
    "renormalized_residual",
    "composition_defect",
    "velocity_gradient_sq_integral",
]

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation: float
    mass_rho: float
    mass_b: float
    ratio_min: float
    ratio_max: float
    F_convex: float
    G_entropy: float
    delta_pressure_L1: float
    u_H1_sq: float
    rho_Lgamma: float
    b_L2_sq: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))

@dataclass
class DiagnosticsSeries:
    records: list[DiagnosticsRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


# ------------------------------------------------------------------
# Scalar functionals
# ------------------------------------------------------------------

def total_energy(state: State, params: SimulationParams, grid: Grid) -> float:
    """E = int( rho|u|^2/2 + elastic(rho) + b^2/2 + delta/(Gamma-1)(rho+b)^Gamma ).

    The kinetic term uses arithmetic face-to-center interpolation of the
    velocity.  For gamma == 1 the elastic term switches to the
    isothermal form a*rho*log(rho) (flagged in run metadata).
    """
    return float(np.sum(_energy_density(state, params, grid))) * grid.cell_area


def _energy_density(state: State, params: SimulationParams, grid: Grid) -> np.ndarray:
    """The integrand of total_energy, per cell."""
    rho, b = state.rho, state.b
    iso = params.gamma == 1.0
    elastic = np.log(rho) if iso else rho ** params.gamma
    coef = params.a if iso else params.a / (params.gamma - 1.0)
    e = np.empty(np.shape(rho))
    if not _compiled("energy_density", rho, b, state.ux, state.uy, elastic, e,
                     grid.nx, grid.ny, coef, iso):
        ucx, ucy = face_to_center(state.ux, state.uy)
        kinetic = 0.5 * rho * (ucx * ucx + ucy * ucy)
        e = kinetic + (coef * rho * elastic if iso else coef * elastic) + 0.5 * b * b
    if params.delta > 0.0:
        e += params.delta / (params.Gamma - 1.0) * (rho + b) ** params.Gamma
    return e


def velocity_gradient_sq_integral(state: State, grid: Grid) -> tuple[float, float]:
    """(int |grad u|^2, int (div u)^2) with each derivative on its natural site.

    d(ux)/dx and d(uy)/dy live at cell centers; the cross derivatives at
    mesh nodes, closed with sign-flip ghosts (no-slip walls).
    """
    xx, yy, xy, yx, dv = _velocity_gradient_squares(grid, state)
    grad_sq = (np.sum(xx) + np.sum(yy) + np.sum(xy) + np.sum(yx)) * grid.cell_area
    div_sq = float(np.sum(dv)) * grid.cell_area
    return float(grad_sq), div_sq


def _velocity_gradient_squares(grid: Grid, state: State):
    """The squares of dux/dx, duy/dy (cells), dux/dy, duy/dx (nodes) and
    of div u (cells)."""
    nx, ny = grid.nx, grid.ny
    xx, yy, dv = (np.empty((nx, ny)) for _ in range(3))
    xy, yx = (np.empty((nx + 1, ny + 1)) for _ in range(2))
    if _compiled("velocity_gradient_sq", state.ux, state.uy, xx, yy, xy, yx, dv, nx, ny,
                 grid.hx, grid.hy):
        return xx, yy, xy, yx, dv
    duxdx, duydy, duxdy, duydx = _velocity_gradients(grid, state)
    return duxdx ** 2, duydy ** 2, duxdy ** 2, duydx ** 2, (duxdx + duydy) ** 2


def _velocity_gradients(grid: Grid, state: State):
    """(dux/dx, duy/dy) at cell centers and (dux/dy, duy/dx) at mesh nodes."""
    ux, uy = state.ux, state.uy
    duxdx = (ux[1:, :] - ux[:-1, :]) / grid.hx
    duydy = (uy[:, 1:] - uy[:, :-1]) / grid.hy
    return (duxdx, duydy, *node_shear(grid, ux, uy))


def dissipation_rate(state: State, params: SimulationParams, grid: Grid) -> float:
    """Instantaneous dissipation, viscous part plus the eps-regularization part.

    mu*int|grad u|^2 + (mu+lam)*int(div u)^2
    + eps*int( a*gamma*rho^(gamma-2)|grad rho|^2 + |grad b|^2
               + delta*Gamma*(rho+b)^(Gamma-2)|grad(rho+b)|^2 ).
    Nonnegative; zero iff u == 0 and (when eps > 0) rho, b constant.
    """
    return _dissipation_rate(state, params, grid, *velocity_gradient_sq_integral(state, grid))


def _dissipation_rate(state, params, grid, grad_sq, div_sq) -> float:
    """dissipation_rate given the two velocity-gradient integrals."""
    d = params.mu * grad_sq + (params.mu + params.lam) * div_sq
    if params.eps > 0.0:
        rho, b = state.rho, state.b
        gr = gradient_cc_to_face(grid, rho)
        gb = gradient_cc_to_face(grid, b)
        wr = rho ** (params.gamma - 2.0)
        d += params.eps * (
            _weighted_grad_sq(grid, gr, params.a * params.gamma, wr) + _grad_sq(grid, gb)
        )
        if params.delta > 0.0:
            gs = gradient_cc_to_face(grid, rho + b)
            ws = (rho + b) ** (params.Gamma - 2.0)
            d += params.eps * _weighted_grad_sq(grid, gs, params.delta * params.Gamma, ws)
    return float(d)


def _grad_sq(grid: Grid, g: FaceField) -> float:
    return (np.sum(g.x ** 2) + np.sum(g.y ** 2)) * grid.cell_area


def _weighted_grad_sq(grid: Grid, g: FaceField, coef: float, pw: np.ndarray) -> float:
    """int w|g|^2 over the interior faces, w = coef*pw averaged from the cells."""
    ox, oy = _weighted_grad_sq_terms(grid, g, coef, pw)
    return (np.sum(ox) + np.sum(oy)) * grid.cell_area


def _weighted_grad_sq_terms(grid: Grid, g: FaceField, coef: float, pw: np.ndarray):
    """The integrands of _weighted_grad_sq on the interior x and y faces."""
    ox, oy = np.empty((grid.nx - 1, grid.ny)), np.empty((grid.nx, grid.ny - 1))
    if _compiled("weighted_grad_sq", pw, g.x, g.y, ox, oy, grid.nx, grid.ny, coef):
        return ox, oy
    w_cc = coef * pw
    wx = face_average_x(w_cc)[1:-1, :]
    wy = face_average_y(w_cc)[:, 1:-1]
    return wx * g.x[1:-1, :] ** 2, wy * g.y[:, 1:-1] ** 2


def convex_fraction_functional(state: State, grid: Grid) -> float:
    """int rho^2/(rho+b): jointly convex and 1-homogeneous, hence
    non-increasing under the monotone conservative updates of the solver."""
    s = state.rho + state.b
    if s.min() <= 0.0:
        raise NonpositiveField("fraction functional needs rho + b > 0")
    return float(np.sum(state.rho ** 2 / s)) * grid.cell_area


def log_entropy(state: State, grid: Grid) -> float:
    """int (rho*log rho + b*log b)."""
    rho, b = state.rho, state.b
    if rho.min() <= 0.0 or b.min() <= 0.0:
        raise NonpositiveField("log entropy needs rho, b > 0")
    return float(np.sum(rho * np.log(rho) + b * np.log(b))) * grid.cell_area


def log_entropy_comparison(traj, traj_ref):
    """Per-snapshot sides of the entropy inequality against a proxy limit.

    lhs(t) = entropy(traj) - entropy(traj_ref)
    rhs(t) = int_0^t int (rho+b) div u  [ref]  -  same for traj.
    The exact weak limit is unavailable numerically, so the caller
    supplies the finest sweep member as traj_ref; lhs <= rhs is expected
    up to quadrature error, reported rather than asserted.
    """
    _require_shared_axis(traj, traj_ref)
    grid = traj.grid
    dt = np.diff(traj.times)
    lhs = np.array([log_entropy(sa, grid) - log_entropy(sr, grid)
                    for sa, sr in zip(traj.states, traj_ref.states)])

    def running_integral(states):
        """int_0^t of the div u pairing at each snapshot: cumulative trapezoid."""
        p = np.array([_divu_pairing(st, grid) for st in states])
        out = np.zeros(p.size)
        out[1:] = np.cumsum(0.5 * dt * (p[:-1] + p[1:]))
        return out

    return lhs, running_integral(traj_ref.states) - running_integral(traj.states)


def _divu_pairing(state: State, grid: Grid) -> float:
    div = divergence_face_to_cc(grid, FaceField(state.ux, state.uy))
    return float(np.sum((state.rho + state.b) * div)) * grid.cell_area


def effective_viscous_flux_field(state: State, params: SimulationParams, grid: Grid) -> np.ndarray:
    """Per-cell effective viscous flux P_total - (lam+2mu)*div u."""
    P = pressure_total(state.rho, state.b, params)
    div = divergence_face_to_cc(grid, FaceField(state.ux, state.uy))
    return P - (params.lam + 2.0 * params.mu) * div


def high_frequency_energy_fraction(field: np.ndarray) -> float:
    """Fraction of (mean-removed) spectral energy above half-Nyquist.

    Used to report, not assert, that the effective viscous flux is
    smoother than the raw pressure in near-limit runs.
    """
    f = field - field.mean()
    power = np.abs(np.fft.fft2(f)) ** 2
    total = power.sum()
    if total == 0.0:
        return 0.0
    nx, ny = field.shape
    kx = np.minimum(np.arange(nx), nx - np.arange(nx))
    ky = np.minimum(np.arange(ny), ny - np.arange(ny))
    high = (kx[:, None] > nx // 4) | (ky[None, :] > ny // 4)
    return float(power[high].sum() / total)


# ------------------------------------------------------------------
# Cut-off functions
# ------------------------------------------------------------------

def _require_level(k: float) -> None:
    if not k >= 1.0:
        raise ValueError(f"cut-off level k must be >= 1, got {k}")


def cutoff_tk(z, k: float = 1.0):
    """T_k(z) = k*T(z/k), T identity below 1, Hermite cubic on [1, 3], 2 above:
    concave, non-decreasing, 1-Lipschitz, C^1; equals z below k and
    saturates at 2k above 3k."""
    _require_level(k)
    z = np.asarray(z, dtype=float) / k
    s = z - 1.0
    out = k * np.where(z <= 1.0, z, np.where(z >= 3.0, 2.0, 1.0 + s - 0.25 * s * s))
    return out if out.ndim else float(out)


def cutoff_tk_d1(z, k: float = 1.0):
    _require_level(k)
    z = np.asarray(z, dtype=float) / k
    out = np.where(z <= 1.0, 1.0, np.where(z >= 3.0, 0.0, 1.0 - 0.5 * (z - 1.0)))
    return out if out.ndim else float(out)


def cutoff_tk_d2(z, k: float = 1.0):
    _require_level(k)
    z = np.asarray(z, dtype=float) / k
    out = np.where((z > 1.0) & (z < 3.0), -0.5, 0.0) / k
    return out if out.ndim else float(out)


# ------------------------------------------------------------------
# Test functions (separable compactly supported bumps)
# ------------------------------------------------------------------

def _bspline(s):
    """Cubic B-spline bump: support (-2, 2), C^2, max 2/3 at 0."""
    s = np.abs(np.asarray(s, dtype=float))
    inner = 2.0 / 3.0 - s * s + 0.5 * s ** 3
    outer = (2.0 - s) ** 3 / 6.0
    return np.where(s >= 2.0, 0.0, np.where(s < 1.0, inner, outer))


def _bspline_d1(s):
    a = np.abs(np.asarray(s, dtype=float))
    sgn = np.sign(s)
    inner = -2.0 * a + 1.5 * a * a
    outer = -0.5 * (2.0 - a) ** 2
    return sgn * np.where(a >= 2.0, 0.0, np.where(a < 1.0, inner, outer))


def _bspline_d2(s):
    a = np.abs(np.asarray(s, dtype=float))
    inner = -2.0 + 3.0 * a
    outer = 2.0 - a
    return np.where(a >= 2.0, 0.0, np.where(a < 1.0, inner, outer))


@dataclass(frozen=True)
class TestFunction:
    """psi(t)*phi(x, y) built from cubic B-spline bumps.

    Support is (t0 - 2wt, t0 + 2wt) x (x0 +- 2wx) x (y0 +- 2wy) and must
    sit strictly inside (0, T) x Omega for the quadratures to be free of
    boundary terms; the factory `centered_in` guarantees that.  A value
    that is not finite or a width that is not positive raises ValidationError.
    """

    __test__ = False  # pytest: not a test case despite the name

    t0: float
    wt: float
    x0: float
    wx: float
    y0: float
    wy: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("wt", "wx", "wy"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")

    @staticmethod
    def centered_in(grid: Grid, t_end: float) -> "TestFunction":
        """Bump centered in the space-time cylinder, its support 80% of
        the cylinder along each axis."""
        return TestFunction(
            t0=0.5 * t_end, wt=0.2 * t_end,
            x0=0.5 * grid.Lx, wx=0.2 * grid.Lx,
            y0=0.5 * grid.Ly, wy=0.2 * grid.Ly,
        )

    def psi(self, t):
        return _bspline((np.asarray(t, dtype=float) - self.t0) / self.wt)

    def psi_d1(self, t):
        return _bspline_d1((np.asarray(t, dtype=float) - self.t0) / self.wt) / self.wt

    def phi(self, x, y):
        return _bspline((x - self.x0) / self.wx) * _bspline((y - self.y0) / self.wy)

    def phi_dx(self, x, y):
        return _bspline_d1((x - self.x0) / self.wx) / self.wx * _bspline((y - self.y0) / self.wy)

    def phi_dy(self, x, y):
        return _bspline((x - self.x0) / self.wx) * _bspline_d1((y - self.y0) / self.wy) / self.wy

    def phi_lap(self, x, y):
        return _bspline_d2((x - self.x0) / self.wx) / self.wx ** 2 * _bspline(
            (y - self.y0) / self.wy
        ) + _bspline((x - self.x0) / self.wx) * _bspline_d2((y - self.y0) / self.wy) / self.wy ** 2

    def support(self) -> list[tuple[float, float]]:
        """The t, x and y intervals of the support: center -+ 2 widths."""
        return [(c - 2.0 * w, c + 2.0 * w)
                for c, w in ((self.t0, self.wt), (self.x0, self.wx), (self.y0, self.wy))]


def _spacetime_integral(traj, test: TestFunction, integrand) -> list[float]:
    """The space-time quadrature every pairing against `test` goes through.

    Checks that the test's support lies in the snapshots' time span and in
    [0, Lx] x [0, Ly], samples (phi, dphi/dx, dphi/dy, Lap phi) once at
    the cell centers (on an x column by a y row, like every closed form
    sampled here), and calls integrand(state, psi(t), psi'(t), *those
    four) on each snapshot; the integrand returns one midpoint-in-space
    value per component, integrated by the trapezoid over the snapshot times.
    """
    (lo, hi), (xlo, xhi), (ylo, yhi) = test.support()
    times, grid = traj.times, traj.grid
    if not times or times[0] > lo or times[-1] < hi:
        raise SupportNotCovered(
            f"snapshots cover [{times[0] if times else '-'}, "
            f"{times[-1] if times else '-'}], test support is [{lo}, {hi}]"
        )
    if min(xlo, ylo) < 0.0 or xhi > grid.Lx or yhi > grid.Ly:
        raise SupportNotCovered(f"test support [{xlo}, {xhi}] x [{ylo}, {yhi}] "
                                f"leaves the domain [0, {grid.Lx}] x [0, {grid.Ly}]")
    x, y = grid.xc[:, None], grid.yc[None, :]  # each product broadcasts to (nx, ny)
    phis = (test.phi(x, y), test.phi_dx(x, y), test.phi_dy(x, y), test.phi_lap(x, y))
    vals = [integrand(st, test.psi(st.t), test.psi_d1(st.t), *phis) for st in traj.states]
    return [float(np.trapezoid(comp, times)) for comp in zip(*vals)]


# ------------------------------------------------------------------
# Effective-viscous-flux pairing
# ------------------------------------------------------------------

def evf_pairing(traj, test: TestFunction, weight: str = "sum", k: float = 1.0) -> float:
    """Space-time quadrature of psi*phi * EVF * W, EVF under traj.params.

    W is rho+b for weight="sum" (the first limit passage) or
    T_k(rho)+T_k(b) for weight="tk" (the second).  Trapezoid in time,
    midpoint in space.
    """
    if weight not in ("sum", "tk"):
        raise ValueError(f"unknown weight {weight!r}, pick 'sum' or 'tk'")
    if weight == "tk":
        _require_level(k)
    params, grid = traj.params, traj.grid

    def integrand(st, psi, dpsi, phi, *_):
        evf = effective_viscous_flux_field(st, params, grid)
        if weight == "sum":
            w = st.rho + st.b
        else:
            w = cutoff_tk(st.rho, k) + cutoff_tk(st.b, k)
        return (psi * (float(np.sum(phi * evf * w)) * grid.cell_area),)

    return _spacetime_integral(traj, test, integrand)[0]


# ------------------------------------------------------------------
# Weak-form and renormalized residuals
# ------------------------------------------------------------------

def weak_residual(traj, test: TestFunction, equation: str = "mass") -> float:
    """Quadrature of the distributional identity the run should satisfy.

    equation="mass":     d_t rho + div(rho u) = eps*Lap(rho)
    equation="magnetic": same with b
    equation="momentum": full momentum balance (Euclidean norm of the
                         two scalar-test components)
    The eps/delta terms are included exactly when the trajectory's
    params carry them, so the residual vanishes under refinement at the
    scheme's order on either the target or the regularized system.
    """
    if equation in ("mass", "magnetic"):
        return _spacetime_integral(traj, test, _scalar_weak_integrand(traj, equation))[0]
    if equation == "momentum":
        return float(np.hypot(*_spacetime_integral(traj, test, _momentum_integrand(traj))))
    raise ValueError(f"unknown equation {equation!r}")


def _scalar_weak_integrand(traj, which: str):
    eps, area = traj.params.eps, traj.grid.cell_area

    def integrand(st, psi, dpsi, phi, phix, phiy, phil):
        q = st.rho if which == "mass" else st.b
        ucx, ucy = face_to_center(st.ux, st.uy)
        space = np.sum(q * phi) * dpsi
        space += np.sum(q * (ucx * phix + ucy * phiy)) * psi
        if eps > 0.0:
            space += eps * np.sum(q * phil) * psi
        return (float(space) * area,)

    return integrand


def _momentum_integrand(traj):
    grid, p = traj.grid, traj.params

    def integrand(st, psi, dpsi, phi, phix, phiy, _):
        ucx, ucy = face_to_center(st.ux, st.uy)
        P = pressure_total(st.rho, st.b, p)
        gux, guy, div = _center_velocity_gradients(grid, st)
        if p.eps > 0.0:
            drag = face_to_center(*eps_gradrho_gradu(grid, st.rho, st.ux, st.uy, p.eps))
        else:
            drag = (0.0, 0.0)

        def component(uc, gu, phid, dragc):
            """The balance of one momentum component against psi*phi."""
            s = np.sum(st.rho * uc * phi) * dpsi
            s += np.sum(st.rho * uc * (ucx * phix + ucy * phiy)) * psi
            s += np.sum(P * phid) * psi
            s -= p.mu * np.sum(gu[0] * phix + gu[1] * phiy) * psi
            s -= (p.mu + p.lam) * np.sum(div * phid) * psi
            s -= np.sum(dragc * phi) * psi
            return float(s) * grid.cell_area

        return component(ucx, gux, phix, drag[0]), component(ucy, guy, phiy, drag[1])

    return integrand


def _center_velocity_gradients(grid: Grid, st: State):
    """((dux/dx, dux/dy), (duy/dx, duy/dy), div u) interpolated to centers."""
    duxdx, duydy, duxdy_n, duydx_n = _velocity_gradients(grid, st)
    return (duxdx, box_average(duxdy_n)), (box_average(duydx_n), duydy), duxdx + duydy


def renormalized_residual(
    traj,
    test: TestFunction,
    h_choice: str = "tk",
    k: float = 1.0,
    which: str = "mass",
) -> float:
    """Residual of the renormalized transport identity for h(rho) or h(b).

    h_choice="tk" uses the concave cut-off T_k (h' vanishes above 3k);
    h_choice="identity" equals the weak mass residual at eps = 0 and
    differs from it by O(h^2) when eps > 0.  When the run carried eps > 0
    the exact diffusion corrections
    -eps*(h'' |grad q|^2, psi*phi) - eps*(h' grad q, grad(psi*phi))
    are included (weak_residual pairs q with Lap phi instead), so the
    residual is refinement-vanishing either way.  `which` is "mass" (q =
    rho) or "b".
    """
    grid = traj.grid
    p = traj.params
    if which not in ("mass", "b"):
        raise ValueError(f"unknown field {which!r}, pick 'mass' or 'b'")
    if h_choice == "identity":
        h = lambda z: z
        h1 = lambda z: np.ones_like(z)
        h2 = lambda z: np.zeros_like(z)
    elif h_choice == "tk":
        _require_level(k)
        h = lambda z: cutoff_tk(z, k)
        h1 = lambda z: cutoff_tk_d1(z, k)
        h2 = lambda z: cutoff_tk_d2(z, k)
    else:
        raise ValueError(f"unknown h_choice {h_choice!r}")

    def integrand(st, psi, dpsi, phi, phix, phiy, _):
        q = st.rho if which == "mass" else st.b
        hq = h(q)
        ucx, ucy = face_to_center(st.ux, st.uy)
        div = divergence_face_to_cc(grid, FaceField(st.ux, st.uy))
        space = np.sum(hq * phi) * dpsi
        space += np.sum(hq * (ucx * phix + ucy * phiy)) * psi
        space -= np.sum((h1(q) * q - hq) * div * phi) * psi
        if p.eps > 0.0:
            gx_c, gy_c = face_to_center(*gradient_cc_to_face(grid, q))
            grad_sq_c = gx_c ** 2 + gy_c ** 2
            space -= p.eps * np.sum(h2(q) * grad_sq_c * phi) * psi
            space -= p.eps * np.sum(h1(q) * (gx_c * phix + gy_c * phiy)) * psi
        return (float(space) * grid.cell_area,)

    return _spacetime_integral(traj, test, integrand)[0]


# ------------------------------------------------------------------
# Composition defect (variable-reduction diagnostic)
# ------------------------------------------------------------------

def _require_shared_axis(traj_a, traj_b) -> None:
    if traj_a.grid != traj_b.grid:
        raise GridMismatch("trajectories live on different grids")
    if len(traj_a.times) != len(traj_b.times) or not np.allclose(
        traj_a.times, traj_b.times, rtol=0.0, atol=1e-12
    ):
        raise GridMismatch("trajectories do not share snapshot times")


def composition_defect(traj_a, traj_b, p: float = 2.0, component: str = "rho") -> float:
    """int int (rho_a+b_a) | frac_a - frac_b |^p, frac = rho/(rho+b) or b/(rho+b).

    traj_a plays the approximate family member, traj_b the reference
    (e.g. the finest sweep member).  Zero when the trajectories agree or
    when b = C*rho with a shared constant C.
    """
    if not p > 1.0:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    if component not in ("rho", "b"):
        raise ValueError(f"unknown component {component!r}, pick 'rho' or 'b'")
    _require_shared_axis(traj_a, traj_b)
    grid = traj_a.grid
    vals = []
    for sa, sb in zip(traj_a.states, traj_b.states):
        da = sa.rho + sa.b
        db = sb.rho + sb.b
        fa, fb = getattr(sa, component) / da, getattr(sb, component) / db
        vals.append(float(np.sum(da * np.abs(fa - fb) ** p)) * grid.cell_area)
    return float(np.trapezoid(vals, traj_a.times))


# ------------------------------------------------------------------
# Per-record assembly
# ------------------------------------------------------------------

def record_state(state: State, params: SimulationParams, grid: Grid) -> DiagnosticsRecord:
    """One row of the functional time series."""
    rho, b = state.rho, state.b
    area = grid.cell_area
    rmin, rmax = ratio_bounds(state)
    grad_sq, div_sq = velocity_gradient_sq_integral(state, grid)
    if params.delta > 0.0:
        dp = float(np.sum(params.delta * (rho + b) ** params.Gamma)) * area
    else:
        dp = 0.0
    return DiagnosticsRecord(
        t=state.t,
        energy=total_energy(state, params, grid),
        dissipation=_dissipation_rate(state, params, grid, grad_sq, div_sq),
        mass_rho=float(np.sum(rho)) * area,
        mass_b=float(np.sum(b)) * area,
        ratio_min=rmin,
        ratio_max=rmax,
        F_convex=convex_fraction_functional(state, grid),
        G_entropy=log_entropy(state, grid),
        delta_pressure_L1=dp,
        u_H1_sq=grad_sq,
        rho_Lgamma=float(np.sum(rho ** params.gamma)) * area,
        b_L2_sq=float(np.sum(b * b)) * area,
    )
