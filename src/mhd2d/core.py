"""Domain types, parameter validation, grid construction, initial data.

The simulator works on an axis-aligned rectangle [0,Lx] x [0,Ly] with a
uniform staggered (MAC) mesh: scalar fields (density rho, vertical
magnetic field b) live at cell centers, velocity components on cell
faces.  All admissibility conditions on physical and regularization
parameters are enforced here, once, so downstream code can assume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    AdiabaticExponentInadmissible,
    BoundViolation,
    GammaTooSmall,
    NonpositiveField,
    ValidationError,
    ViscosityInadmissible,
)

__all__ = [
    "SimulationParams",
    "Grid",
    "State",
    "InitialDataSpec",
    "RatioEnvelope",
    "validate_params",
    "build_grid",
    "init_state",
    "ratio_bounds",
]


# ------------------------------------------------------------------
# Parameter set
# ------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationParams:
    """Physical constants, regularization knobs and run controls.

    a, gamma        pressure law p = a * rho**gamma (a > 0, gamma >= 1)
    mu, lam         shear / bulk viscosity (mu > 0, lam + 2*mu > 0)
    eps             artificial diffusion coefficient (>= 0)
    delta, Gamma    artificial pressure delta*(rho+b)**Gamma (delta >= 0,
                    Gamma > 1, and Gamma > max(4, gamma) when delta > 0)
    Lx, Ly, nx, ny  rectangle size and cell counts
    cfl             Courant number (> 0; validate_params adds cfl <= 1)
    t_final         end time (>= 0; 0 means diagnostics-only)
    dt_max          optional cap on the time step
    advect_scheme   "upwind" (monotone, default) or "centered" (2nd order,
                    no maximum-principle guarantee; used in order studies)
    freeze_velocity test hook: skip the momentum update entirely

    Every rule but cfl <= 1 is checked when the params are built: a NaN or
    inf, or a failed inequality, raises a ValidationError subclass quoting it.
    """

    a: float = 1.0
    gamma: float = 1.4
    mu: float = 0.1
    lam: float = 0.0
    eps: float = 0.0
    delta: float = 0.0
    Gamma: float = 6.0
    Lx: float = 1.0
    Ly: float = 1.0
    nx: int = 64
    ny: int = 64
    cfl: float = 0.4
    t_final: float = 1.0
    dt_max: float | None = None
    advect_scheme: str = "upwind"
    freeze_velocity: bool = False

    def __post_init__(self):
        _require_finite(self)
        if not self.mu > 0.0:
            raise ViscosityInadmissible(f"mu must be > 0, got mu={self.mu}")
        if not self.lam + 2.0 * self.mu > 0.0:
            raise ViscosityInadmissible(
                f"lambda + 2*mu must be > 0, got {self.lam} + 2*{self.mu} = {self.lam + 2 * self.mu}"
            )
        if not self.gamma >= 1.0:
            raise AdiabaticExponentInadmissible(f"gamma must be >= 1, got {self.gamma}")
        if not self.a > 0.0:
            raise ValidationError(f"pressure coefficient a must be > 0, got {self.a}")
        if self.eps < 0.0:
            raise ValidationError(f"eps must be >= 0, got {self.eps}")
        if self.delta < 0.0:
            raise ValidationError(f"delta must be >= 0, got {self.delta}")
        if not self.Gamma > 1.0:
            raise GammaTooSmall(f"Gamma must be > 1, got {self.Gamma}")
        if self.delta > 0.0 and not self.Gamma > max(4.0, self.gamma):
            raise GammaTooSmall(
                f"Gamma must exceed max(4, gamma) = {max(4.0, self.gamma)} when "
                f"delta > 0, got Gamma={self.Gamma}"
            )
        if not (self.Lx > 0.0 and self.Ly > 0.0):
            raise ValidationError(f"domain sides must be positive, got Lx={self.Lx}, Ly={self.Ly}")
        build_grid(self)  # owns the cell-count rule
        if not self.cfl > 0.0:
            raise ValidationError(f"cfl must be > 0, got {self.cfl}")
        if self.t_final < 0.0:
            raise ValidationError(f"t_final must be >= 0, got {self.t_final}")
        if self.dt_max is not None and not self.dt_max > 0.0:
            raise ValidationError(f"dt_max must be positive when given, got {self.dt_max}")
        if self.advect_scheme not in ("upwind", "centered"):
            raise ValidationError(f"unknown advect_scheme {self.advect_scheme!r}")


def _require_finite(spec) -> None:
    """ValidationError naming the first NaN or infinite float field of the
    dataclass `spec`: a NaN fails no `x < 0` test, and most bounds admit inf."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"{f.name} must be finite, got {v}")


def validate_params(p: SimulationParams) -> SimulationParams:
    """Add a stable run's Courant bound cfl <= 1 to the type's checks; return p."""
    if not p.cfl <= 1.0:
        raise ValidationError(f"cfl must lie in (0, 1], got {p.cfl}")
    return p


# ------------------------------------------------------------------
# Grid
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform MAC mesh on [0,Lx] x [0,Ly].

    Array shapes: cell-center scalars (nx, ny), x-face fields
    (nx+1, ny), y-face fields (nx, ny+1).  Index [i, j] maps to the
    x and y directions respectively.  hx = Lx/nx and hy = Ly/ny are plain
    attributes set at construction: the Krylov matvecs read them every iteration.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    hx: float = field(init=False)
    hy: float = field(init=False)

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValidationError(f"need at least 4 cells per direction, got nx={self.nx}, ny={self.ny}")
        object.__setattr__(self, "hx", self.Lx / self.nx)
        object.__setattr__(self, "hy", self.Ly / self.ny)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def xc(self) -> np.ndarray:
        """x coordinates of cell centers, shape (nx,)."""
        return (np.arange(self.nx) + 0.5) * self.hx

    @property
    def yc(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.hy

    @property
    def xf(self) -> np.ndarray:
        """x coordinates of x-faces, shape (nx+1,)."""
        return np.arange(self.nx + 1) * self.hx

    @property
    def yf(self) -> np.ndarray:
        return np.arange(self.ny + 1) * self.hy

    def center_mesh(self):
        return np.meshgrid(self.xc, self.yc, indexing="ij")

    def zeros_xface(self) -> np.ndarray:
        return np.zeros(field_shapes(self.nx, self.ny)["ux"])

    def zeros_yface(self) -> np.ndarray:
        return np.zeros(field_shapes(self.nx, self.ny)["uy"])


def build_grid(params: SimulationParams) -> Grid:
    """The uniform MAC grid of `params`."""
    return Grid(params.nx, params.ny, params.Lx, params.Ly)


# ------------------------------------------------------------------
# State
# ------------------------------------------------------------------

def field_shapes(nx: int, ny: int) -> dict[str, tuple[int, int]]:
    """The table of State's fields, in snapshot order, each with its shape
    on an nx x ny mesh: scalars at cell centers, each velocity component
    on the faces normal to it."""
    return {"rho": (nx, ny), "b": (nx, ny), "ux": (nx + 1, ny), "uy": (nx, ny + 1)}


@dataclass(frozen=True)
class State:
    """Fields at one time instant.

    rho, b : cell-center scalars (> 0 everywhere)
    ux, uy : face-normal velocity components; entries on the physical
             boundary are exactly zero (no-slip)
    t      : current time
    """

    rho: np.ndarray
    b: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    t: float

    def copy(self) -> "State":
        return State(**{f: getattr(self, f).copy() for f in field_shapes(*self.rho.shape)}, t=self.t)


def check_state(state: State, grid: Grid) -> None:
    """Assert shape consistency, positivity and no-slip closure."""
    for name, shape in field_shapes(grid.nx, grid.ny).items():
        if getattr(state, name).shape != shape:
            raise ValidationError(f"field {name} has shape {getattr(state, name).shape}, the grid needs {shape}")
    if not (np.all(state.rho > 0.0) and np.all(state.b > 0.0)):
        raise BoundViolation("rho and b must be strictly positive at every cell")
    if np.any(state.ux[0, :] != 0.0) or np.any(state.ux[-1, :] != 0.0):
        raise ValidationError("no-slip violated on x-boundary faces")
    if np.any(state.uy[:, 0] != 0.0) or np.any(state.uy[:, -1] != 0.0):
        raise ValidationError("no-slip violated on y-boundary faces")


def pin_noslip(ux: np.ndarray, uy: np.ndarray) -> None:
    """Zero the wall-normal faces of (ux, uy) in place: the no-slip closure
    that check_state asserts."""
    ux[0, :] = ux[-1, :] = 0.0
    uy[:, 0] = uy[:, -1] = 0.0


def _compiled(name: str, *args) -> bool:
    """Whether the compiled twin `name` of _kernels ran on `args` (arrays,
    then nx, ny and the scalars): only when the library loads and every
    array has the exact shape and layout the kernel takes.  When False,
    nothing was written and the caller runs its numpy code, which gives
    the same bits.  The first call imports the loader; `import mhd2d`
    never does."""
    from . import _kernels

    return _kernels.run(name, *args)


# ------------------------------------------------------------------
# Initial data
# ------------------------------------------------------------------

@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for admissible initial fields.

    kind: one of
      constant             rho0 = rho_base, b0 = b_base
      cosine-perturbation  rho0 = rho_base*(1 + rho_amp*cos(kx pi x/Lx)*cos(ky pi y/Ly)),
                           b0 analogous with b_amp (same wavenumbers)
      ratio-profile        rho0 as above; b0 = rho0*(ratio_mid + ratio_amp*cos(jx pi x/Lx)*cos(jy pi y/Ly))
      snapshot-file        load fields from a snapshot at `path`
    Integer wavenumbers keep the profiles Neumann-compatible at the walls.
    An optional solenoidal initial velocity of amplitude u_amp (no-slip
    sin*sin envelope) can be requested for any analytic kind.

    m, M bound the generated scalars: 0 < m <= rho0, b0 <= M.

    An unknown kind or a NaN or infinite float raises ValidationError
    when the spec is built.
    """

    kind: str = "constant"
    rho_base: float = 1.0
    b_base: float = 1.0
    rho_amp: float = 0.0
    b_amp: float = 0.0
    kx: int = 1
    ky: int = 0
    ratio_mid: float = 1.0
    ratio_amp: float = 0.0
    jx: int = 1
    jy: int = 0
    u_amp: float = 0.0
    m: float = 1e-8
    M: float = 1e8
    path: str = ""

    KINDS = ("constant", "cosine-perturbation", "ratio-profile", "snapshot-file")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown initial-data kind {self.kind!r}")
        _require_finite(self)


@dataclass(frozen=True)
class RatioEnvelope:
    """Initial envelope of b0/rho0; the solver must preserve it."""

    c_star: float
    c_upper: float

    def __post_init__(self):
        if not (0.0 < self.c_star <= self.c_upper < np.inf):
            raise BoundViolation(
                f"ratio envelope must satisfy 0 < c_star <= c_upper < inf, "
                f"got ({self.c_star}, {self.c_upper})"
            )


def ratio_bounds(state: State) -> tuple[float, float]:
    """(min, max) of b/rho over cells; rho must be positive."""
    if state.rho.min() <= 0.0:
        raise NonpositiveField("ratio_bounds needs rho > 0")
    ratio = state.b / state.rho
    return float(ratio.min()), float(ratio.max())


def _cos_mode(grid: Grid, amp: float, kx: int, ky: int) -> np.ndarray:
    """amp*cos(kx pi x/Lx)*cos(ky pi y/Ly) at the cell centers, sampled like
    every closed form here: on an x column by a y row, broadcast to (nx, ny)."""
    x, y = grid.xc[:, None], grid.yc[None, :]
    return amp * np.cos(kx * np.pi * x / grid.Lx) * np.cos(ky * np.pi * y / grid.Ly)


def _initial_velocity(grid: Grid, amp: float):
    ux = grid.zeros_xface()
    uy = grid.zeros_yface()
    if amp != 0.0:
        xc, yc, xf, yf = grid.xc[:, None], grid.yc[None, :], grid.xf[:, None], grid.yf[None, :]
        ux = amp * np.sin(np.pi * xf / grid.Lx) * np.sin(np.pi * yc / grid.Ly)
        uy = -amp * np.sin(np.pi * xc / grid.Lx) * np.sin(np.pi * yf / grid.Ly)
        # sampled sin() is only zero to round-off at the far wall
        pin_noslip(ux, uy)
    return ux, uy


def init_state(grid: Grid, spec: InitialDataSpec) -> tuple[State, RatioEnvelope]:
    """Generate initial fields and the discrete ratio envelope.

    Rejects fields that leave (0, m, M] with BoundViolation.  The envelope
    is the discrete min/max of b0/rho0.
    """
    if spec.kind == "snapshot-file":
        from .storage import read_snapshot

        state = read_snapshot(spec.path, grid=grid)
        rho0, b0 = state.rho, state.b
        ux, uy = state.ux, state.uy
    else:
        if spec.kind == "constant":
            rho0 = np.full((grid.nx, grid.ny), float(spec.rho_base))
            b0 = np.full((grid.nx, grid.ny), float(spec.b_base))
        else:
            rho0 = spec.rho_base * (1.0 + _cos_mode(grid, spec.rho_amp, spec.kx, spec.ky))
            if spec.kind == "cosine-perturbation":
                b0 = spec.b_base * (1.0 + _cos_mode(grid, spec.b_amp, spec.kx, spec.ky))
            else:  # ratio-profile
                b0 = rho0 * (spec.ratio_mid + _cos_mode(grid, spec.ratio_amp, spec.jx, spec.jy))
        ux, uy = _initial_velocity(grid, spec.u_amp)

    for name, f in (("rho0", rho0), ("b0", b0)):
        if not np.all(np.isfinite(f)):
            raise BoundViolation(f"{name} contains non-finite entries")
        lo, hi = float(f.min()), float(f.max())
        if lo <= 0.0:
            raise BoundViolation(f"{name} must be strictly positive, min = {lo}")
        if lo < spec.m or hi > spec.M:
            raise BoundViolation(
                f"{name} range [{lo}, {hi}] escapes declared bounds [{spec.m}, {spec.M}]"
            )

    state = State(rho=rho0, b=b0, ux=ux, uy=uy, t=0.0)
    envelope = RatioEnvelope(*ratio_bounds(state))
    check_state(state, grid)
    return state, envelope
