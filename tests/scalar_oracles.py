"""Reference operator on cell-center scalars.  The solver never applies
the Neumann Laplacian on its own (the diffusion solve runs its fused
stencil); this composition is what the operator identities and the dense
diffusion oracle are checked against."""

import numpy as np

from mhd2d.core import Grid
from mhd2d.operators import divergence_face_to_cc, gradient_cc_to_face


def laplacian_neumann(grid: Grid, q: np.ndarray) -> np.ndarray:
    """5-point Laplacian with mirrored ghost cells (zero-flux walls).

    Composition div(grad q): row and column sums vanish, the operator is
    symmetric negative semidefinite, constants are in its kernel.
    """
    return divergence_face_to_cc(grid, gradient_cc_to_face(grid, q))
