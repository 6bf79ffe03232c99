"""Reference operators on no-slip face velocities, written out stencil by
stencil.  The solver applies the viscous operator only as the fused matvec
in `mhd2d.solver`; these are the independent compositions that tests
check it (and the operator identities) against."""

import numpy as np

from mhd2d.core import Grid
from mhd2d.operators import FaceField, divergence_face_to_cc, gradient_cc_to_face


def laplacian_velocity_noslip(grid: Grid, ux: np.ndarray, uy: np.ndarray) -> FaceField:
    """Componentwise 5-point Laplacian of a no-slip face velocity.

    Boundary-normal faces are held at zero (output rows zeroed); the wall
    value of the tangential component is realized by sign-flip ghosts.
    """
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2

    lx = grid.zeros_xface()
    # normal (x) direction: Dirichlet by exclusion, u[0]=u[nx]=0 enter the stencil
    lx[1:-1, :] = (ux[2:, :] - 2.0 * ux[1:-1, :] + ux[:-2, :]) / hx2
    # tangential (y) direction: sign-flip ghosts at the walls
    uxg = np.empty((grid.nx + 1, grid.ny + 2))
    uxg[:, 1:-1] = ux
    uxg[:, 0] = -ux[:, 0]
    uxg[:, -1] = -ux[:, -1]
    lx[1:-1, :] += (uxg[1:-1, 2:] - 2.0 * uxg[1:-1, 1:-1] + uxg[1:-1, :-2]) / hy2

    ly = grid.zeros_yface()
    ly[:, 1:-1] = (uy[:, 2:] - 2.0 * uy[:, 1:-1] + uy[:, :-2]) / hy2
    uyg = np.empty((grid.nx + 2, grid.ny + 1))
    uyg[1:-1, :] = uy
    uyg[0, :] = -uy[0, :]
    uyg[-1, :] = -uy[-1, :]
    ly[:, 1:-1] += (uyg[2:, 1:-1] - 2.0 * uyg[1:-1, 1:-1] + uyg[:-2, 1:-1]) / hx2

    return FaceField(lx, ly)


def grad_div_velocity(grid: Grid, ux: np.ndarray, uy: np.ndarray) -> FaceField:
    """grad(div u) as the composition of the two adjoint operators.

    The result is zero on boundary-normal faces, where the velocity is
    held at zero anyway.
    """
    div = divergence_face_to_cc(grid, FaceField(ux, uy))
    return gradient_cc_to_face(grid, div)
