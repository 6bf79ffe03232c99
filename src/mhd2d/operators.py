"""Discrete differential and transport operators on the MAC grid.

Boundary conventions are baked in once and for all:
  * cell-center scalars obey homogeneous Neumann conditions, realized by
    mirrored ghost cells (equivalently: zero gradient on boundary faces);
  * velocity obeys no-slip, realized by holding boundary-normal faces at
    zero and reflecting tangential ghosts with a sign flip.

With these closures the face gradient and the cell divergence are exact
negative adjoints of each other (summation by parts), which is what makes
the discrete energy/mass bookkeeping of the solver clean.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Grid, _compiled

__all__ = [
    "FaceField",
    "gradient_cc_to_face",
    "divergence_face_to_cc",
    "noslip_ghosts",
    "node_shear",
    "upwind_scalar_flux_div",
    "momentum_advection",
    "eps_gradrho_gradu",
    "face_average_x",
    "face_average_y",
    "box_average",
    "face_to_center",
]


class FaceField(NamedTuple):
    """Pair of face-normal component arrays: x on (nx+1, ny), y on (nx, ny+1)."""

    x: np.ndarray
    y: np.ndarray


# ------------------------------------------------------------------
# First-order building blocks
# ------------------------------------------------------------------

def gradient_cc_to_face(grid: Grid, q: np.ndarray) -> FaceField:
    """Centered two-point gradient of a cell scalar, zero on boundary faces.

    The zero closure is the Neumann mirror: ghost = first interior cell.
    """
    gx = grid.zeros_xface()
    gy = grid.zeros_yface()
    if not _compiled("gradient", q, gx, gy, grid.nx, grid.ny, grid.hx, grid.hy):
        gx[1:-1, :] = (q[1:, :] - q[:-1, :]) / grid.hx
        gy[:, 1:-1] = (q[:, 1:] - q[:, :-1]) / grid.hy
    return FaceField(gx, gy)


def divergence_face_to_cc(grid: Grid, f: FaceField) -> np.ndarray:
    """Conservative flux difference per cell."""
    fx, fy = f
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def noslip_ghosts(ux: np.ndarray, uy: np.ndarray):
    """Tangential velocities padded with their no-slip sign-flip ghosts.

    ux gains a ghost column beyond each y-wall, (nx+1, ny+2), and uy a
    ghost row beyond each x-wall, (nx+2, ny+1).  Each ghost is the
    negated adjacent value, so the wall value, their mean, is zero.
    """
    uxg = np.empty((ux.shape[0], ux.shape[1] + 2))
    uxg[:, 1:-1] = ux
    uxg[:, 0] = -ux[:, 0]
    uxg[:, -1] = -ux[:, -1]
    uyg = np.empty((uy.shape[0] + 2, uy.shape[1]))
    uyg[1:-1, :] = uy
    uyg[0, :] = -uy[0, :]
    uyg[-1, :] = -uy[-1, :]
    return uxg, uyg


def node_shear(grid: Grid, ux: np.ndarray, uy: np.ndarray):
    """(d(ux)/dy, d(uy)/dx) at the (nx+1, ny+1) mesh nodes, no-slip closed."""
    uxg, uyg = noslip_ghosts(ux, uy)
    return (uxg[:, 1:] - uxg[:, :-1]) / grid.hy, (uyg[1:, :] - uyg[:-1, :]) / grid.hx


# ------------------------------------------------------------------
# Transport
# ------------------------------------------------------------------

def _face_value(lo, hi, vel, scheme: str):
    """The transported value on a face between `lo` and `hi`, carried by
    `vel` (positive from lo to hi): the upwind side, or their mean."""
    if scheme == "upwind":
        return np.where(vel > 0.0, lo, hi)
    if scheme == "centered":
        return 0.5 * (lo + hi)
    raise ValueError(f"unknown transport scheme {scheme!r}")


def _scalar_face_fluxes(grid: Grid, q, ux, uy, scheme: str):
    """Mass fluxes q*u on faces; upwind or centered face value of q."""
    fx = grid.zeros_xface()
    fy = grid.zeros_yface()
    vx, vy = ux[1:-1, :], uy[:, 1:-1]
    fx[1:-1, :] = vx * _face_value(q[:-1, :], q[1:, :], vx, scheme)
    fy[:, 1:-1] = vy * _face_value(q[:, :-1], q[:, 1:], vy, scheme)
    # u is no-slip so the wall flux is physically zero; keep it exact
    return fx, fy


def upwind_scalar_flux_div(grid: Grid, q, ux, uy, scheme: str = "upwind") -> np.ndarray:
    """Conservative flux-difference divergence of q*u.

    Cell sums telescope to the (zero) boundary flux, so the integral of q
    is conserved exactly under forward Euler.  With scheme="upwind" a
    CFL-compliant step is also monotone: new q stays in [min q, max q].
    """
    out = np.empty((grid.nx, grid.ny))
    if scheme in ("upwind", "centered") and _compiled(
            "scalar_flux_div", q, ux, uy, np.empty_like(ux), np.empty_like(uy), out,
            grid.nx, grid.ny, grid.hx, grid.hy, scheme == "centered"):
        return out
    fx, fy = _scalar_face_fluxes(grid, q, ux, uy, scheme)
    return divergence_face_to_cc(grid, FaceField(fx, fy))


def momentum_advection(grid: Grid, rho, ux, uy, scheme: str = "upwind") -> FaceField:
    """Flux divergence of rho*u (x) u evaluated on faces.

    Face momenta rho_f*u are transported by face-interpolated velocity:
    x-momentum fluxes live at cell centers (x-direction) and at mesh
    nodes (y-direction), mirrored for y-momentum.  All wall fluxes carry
    an interpolated normal velocity that vanishes identically, so the
    total momentum budget telescopes to interior boundary terms only.
    """
    hx, hy = grid.hx, grid.hy

    # --- x momentum, control volumes around x-faces ---
    mx = face_average_x(rho) * ux  # (nx+1, ny)
    # x-direction fluxes at cell centers
    uc, vc = face_to_center(ux, uy)  # (nx, ny) each
    fxc = uc * _face_value(mx[:-1, :], mx[1:, :], uc, scheme)
    # y-direction fluxes at interior nodes; wall nodes carry zero velocity
    vn = 0.5 * (uy[:-1, 1:-1] + uy[1:, 1:-1])  # (nx-1, ny-1), nodes i=1..nx-1, j=1..ny-1
    fxn = np.zeros((grid.nx - 1, grid.ny + 1))
    fxn[:, 1:-1] = vn * _face_value(mx[1:-1, :-1], mx[1:-1, 1:], vn, scheme)
    ax = grid.zeros_xface()
    ax[1:-1, :] = (fxc[1:, :] - fxc[:-1, :]) / hx + (fxn[:, 1:] - fxn[:, :-1]) / hy

    # --- y momentum, control volumes around y-faces ---
    my = face_average_y(rho) * uy  # (nx, ny+1)
    fyc = vc * _face_value(my[:, :-1], my[:, 1:], vc, scheme)
    un = 0.5 * (ux[1:-1, :-1] + ux[1:-1, 1:])  # (nx-1, ny-1)
    fyn = np.zeros((grid.nx + 1, grid.ny - 1))
    fyn[1:-1, :] = un * _face_value(my[:-1, 1:-1], my[1:, 1:-1], un, scheme)
    ay = grid.zeros_yface()
    ay[:, 1:-1] = (fyc[:, 1:] - fyc[:, :-1]) / hy + (fyn[1:, :] - fyn[:-1, :]) / hx

    return FaceField(ax, ay)


def eps_gradrho_gradu(grid: Grid, rho, ux, uy, eps: float) -> FaceField:
    """The regularization force eps*(grad rho . grad) u_i at faces.

    Centered differences throughout; zero when eps == 0 or rho constant.
    Boundary-normal faces get zero (the velocity there is pinned).
    """
    fx = grid.zeros_xface()
    fy = grid.zeros_yface()
    if eps == 0.0:
        return FaceField(fx, fy)
    hx, hy = grid.hx, grid.hy

    grho = gradient_cc_to_face(grid, rho)
    if _compiled("eps_drag", *grho, ux, uy, fx, fy, grid.nx, grid.ny, hx, hy, eps):
        return FaceField(fx, fy)

    # x faces: d(rho)/dx natural, d(rho)/dy averaged from 4 adjacent y-faces
    drdx = grho.x[1:-1, :]  # (nx-1, ny)
    drdy = box_average(grho.y)  # (nx-1, ny); grho.y is zero on the walls
    uxg, uyg = noslip_ghosts(ux, uy)
    duxdx = (ux[2:, :] - ux[:-2, :]) / (2.0 * hx)
    duxdy = (uxg[1:-1, 2:] - uxg[1:-1, :-2]) / (2.0 * hy)
    fx[1:-1, :] = eps * (drdx * duxdx + drdy * duxdy)

    # y faces, mirror roles
    drdy2 = grho.y[:, 1:-1]  # (nx, ny-1)
    drdx2 = box_average(grho.x)  # (nx, ny-1)
    duydy = (uy[:, 2:] - uy[:, :-2]) / (2.0 * hy)
    duydx = (uyg[2:, 1:-1] - uyg[:-2, 1:-1]) / (2.0 * hx)
    fy[:, 1:-1] = eps * (drdx2 * duydx + drdy2 * duydy)

    return FaceField(fx, fy)


# ------------------------------------------------------------------
# Interpolations
# ------------------------------------------------------------------

def face_average_x(q: np.ndarray) -> np.ndarray:
    """Cell scalar averaged to x-faces; wall faces copy the adjacent cell."""
    out = np.empty((q.shape[0] + 1, q.shape[1]))
    out[1:-1, :] = 0.5 * (q[:-1, :] + q[1:, :])
    out[0, :] = q[0, :]
    out[-1, :] = q[-1, :]
    return out


def face_average_y(q: np.ndarray) -> np.ndarray:
    out = np.empty((q.shape[0], q.shape[1] + 1))
    out[:, 1:-1] = 0.5 * (q[:, :-1] + q[:, 1:])
    out[:, 0] = q[:, 0]
    out[:, -1] = q[:, -1]
    return out


def box_average(a: np.ndarray) -> np.ndarray:
    """Mean of each 2x2 block of neighbours, one entry smaller each way:
    node values to cell centers, or one face family to the other's
    interior faces."""
    return 0.25 * (a[:-1, :-1] + a[:-1, 1:] + a[1:, :-1] + a[1:, 1:])


def face_to_center(ux: np.ndarray, uy: np.ndarray):
    """Arithmetic face-to-center interpolation of both velocity components."""
    ucx = 0.5 * (ux[:-1, :] + ux[1:, :])
    ucy = 0.5 * (uy[:, :-1] + uy[:, 1:])
    return ucx, ucy
