"""2D compressible viscous non-resistive MHD with a vertical magnetic field.

A staggered-grid solver for the regularized system (artificial scalar
diffusion eps and artificial pressure delta*(rho+b)**Gamma) and its
eps = delta = 0 target mode, together with the diagnostics that make
its conservation, positivity, envelope and energy properties -- and the
two limit passages eps -> 0, delta -> 0 -- computable and testable.
"""

from .config import Config, parse_config, parse_config_file
from .core import (
    Grid,
    InitialDataSpec,
    RatioEnvelope,
    SimulationParams,
    State,
    build_grid,
    init_state,
    validate_params,
)
from .diagnostics import (
    DiagnosticsRecord,
    DiagnosticsSeries,
    TestFunction,
    composition_defect,
    convex_fraction_functional,
    cutoff_tk,
    dissipation_rate,
    effective_viscous_flux_field,
    evf_pairing,
    high_frequency_energy_fraction,
    log_entropy,
    ratio_bounds,
    record_state,
    renormalized_residual,
    total_energy,
    weak_residual,
)
from .eos import pressure_total, sound_speed_sq
from .errors import Mhd2dError
from .solver import (
    Sources,
    StepReport,
    Trajectory,
    implicit_diffusion_solve,
    run,
    stable_dt,
    step,
)
from .storage import (
    read_snapshot,
    read_timeseries_csv,
    write_snapshot,
    write_timeseries_csv,
)
from .verification import (
    ManufacturedSolution,
    MmsReport,
    SweepReport,
    default_manufactured_solution,
    delta_sweep,
    epsilon_sweep,
    mms_sources,
    richardson_order,
    run_mms,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "parse_config",
    "parse_config_file",
    "Grid",
    "InitialDataSpec",
    "RatioEnvelope",
    "SimulationParams",
    "State",
    "build_grid",
    "init_state",
    "validate_params",
    "DiagnosticsRecord",
    "DiagnosticsSeries",
    "TestFunction",
    "composition_defect",
    "convex_fraction_functional",
    "cutoff_tk",
    "dissipation_rate",
    "effective_viscous_flux_field",
    "evf_pairing",
    "high_frequency_energy_fraction",
    "log_entropy",
    "ratio_bounds",
    "record_state",
    "renormalized_residual",
    "total_energy",
    "weak_residual",
    "pressure_total",
    "sound_speed_sq",
    "Mhd2dError",
    "Sources",
    "StepReport",
    "Trajectory",
    "implicit_diffusion_solve",
    "run",
    "stable_dt",
    "step",
    "read_snapshot",
    "read_timeseries_csv",
    "write_snapshot",
    "write_timeseries_csv",
    "ManufacturedSolution",
    "MmsReport",
    "SweepReport",
    "default_manufactured_solution",
    "delta_sweep",
    "epsilon_sweep",
    "mms_sources",
    "richardson_order",
    "run_mms",
    "__version__",
]
