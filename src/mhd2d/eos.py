"""Pressure closure and acoustic speed.

Total pressure combines the gamma-law gas pressure, the magnetic
pressure of the vertical field, and (during construction runs) the
artificial high-exponent pressure delta*(rho+b)**Gamma.
"""

from __future__ import annotations

import numpy as np

from .core import SimulationParams
from .errors import NonpositiveField

__all__ = ["pressure_total", "sound_speed_sq"]


def pressure_total(rho, b, params: SimulationParams) -> np.ndarray:
    """P = a*rho**gamma + b**2/2 + delta*(rho+b)**Gamma, per cell; rho, b > 0."""
    rho = np.asarray(rho, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(rho <= 0.0):
        raise NonpositiveField("pressure undefined: rho has nonpositive entries")
    if np.any(b <= 0.0):
        raise NonpositiveField("pressure undefined: b has nonpositive entries")
    p = params.a * rho ** params.gamma + 0.5 * b * b
    if params.delta > 0.0:
        p = p + params.delta * (rho + b) ** params.Gamma
    return p


def sound_speed_sq(rho, b, params: SimulationParams) -> np.ndarray:
    """Acoustic bound c^2 = a*gamma*rho**(gamma-1) + b^2/rho + delta*Gamma*(rho+b)**(Gamma-1)/rho.

    The magnetic term reflects that b is transported with the flow, so
    perturbations of b track perturbations of rho.
    """
    c2 = params.a * params.gamma * rho ** (params.gamma - 1.0) + b * b / rho
    if params.delta > 0.0:
        c2 = c2 + params.delta * params.Gamma * (rho + b) ** (params.Gamma - 1.0) / rho
    return c2
