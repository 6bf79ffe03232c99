"""Parameter admissibility, grid construction, and initial-data bounds."""

import dataclasses
import re

import numpy as np
import pytest

from mhd2d.core import (
    Grid,
    InitialDataSpec,
    RatioEnvelope,
    SimulationParams,
    State,
    build_grid,
    check_state,
    field_shapes,
    init_state,
    validate_params,
)
from mhd2d.errors import (
    AdiabaticExponentInadmissible,
    BoundViolation,
    GammaTooSmall,
    ValidationError,
    ViscosityInadmissible,
)


def test_accepts_admissible_parameters():
    p = SimulationParams(mu=1.0, lam=0.0, gamma=1.4, delta=0.1, Gamma=6.0)
    assert validate_params(p) is p


def test_rejects_inadmissible_viscosity():
    with pytest.raises(ViscosityInadmissible, match="lambda"):
        validate_params(SimulationParams(mu=1.0, lam=-3.0))
    with pytest.raises(ViscosityInadmissible, match="mu"):
        validate_params(SimulationParams(mu=0.0))


def test_rejects_small_capital_gamma_with_artificial_pressure():
    with pytest.raises(GammaTooSmall):
        validate_params(SimulationParams(gamma=1.4, delta=0.1, Gamma=3.0))
    # without artificial pressure only Gamma > 1 is needed
    validate_params(SimulationParams(gamma=1.4, delta=0.0, Gamma=3.0))
    with pytest.raises(GammaTooSmall):
        validate_params(SimulationParams(delta=0.0, Gamma=1.0))


def test_rejects_gamma_below_one():
    with pytest.raises(AdiabaticExponentInadmissible):
        validate_params(SimulationParams(gamma=0.9))
    validate_params(SimulationParams(gamma=1.0))  # isothermal limit allowed


@pytest.mark.parametrize(
    "kw",
    [dict(a=0.0), dict(eps=-1e-3), dict(delta=-1e-3), dict(Lx=0.0),
     dict(cfl=0.0), dict(cfl=1.5), dict(t_final=-1.0), dict(dt_max=0.0),
     dict(advect_scheme="weno")],
)
def test_rejects_out_of_range_controls(kw):
    with pytest.raises(ValidationError):
        validate_params(SimulationParams(**kw))


@pytest.mark.parametrize(
    "kw, error, message",
    [(dict(mu=-0.1), ViscosityInadmissible, "mu must be > 0, got mu=-0.1"),
     (dict(lam=-1.0), ViscosityInadmissible, "lambda + 2*mu must be > 0"),
     (dict(gamma=0.5), AdiabaticExponentInadmissible, "gamma must be >= 1, got 0.5"),
     (dict(Gamma=2.0), GammaTooSmall, "Gamma must exceed max(4, gamma)"),
     (dict(nx=2), ValidationError, "need at least 4 cells"),
     (dict(cfl=-1.0), ValidationError, "cfl must be > 0, got -1.0"),
     (dict(dt_max=0.0), ValidationError, "dt_max must be positive when given"),
     (dict(advect_scheme="weno"), ValidationError, "unknown advect_scheme 'weno'")],
)
def test_replace_checks_the_new_values_when_it_builds_the_params(kw, error, message):
    # run(), step() and stable_dt() take the params as given, so the type
    # itself refuses an inadmissible value, by its named error
    valid = SimulationParams(nx=12, ny=12, eps=1e-2, delta=1e-2)
    with pytest.raises(ValidationError, match=re.escape(message)) as excinfo:
        dataclasses.replace(valid, **kw)
    assert excinfo.type is error


def test_the_type_admits_any_positive_cfl_and_validate_params_adds_cfl_at_most_one():
    # `--cfl 5.0` builds its params without validate_params, on purpose
    reckless = SimulationParams(cfl=5.0)
    with pytest.raises(ValidationError, match=re.escape("cfl must lie in (0, 1], got 5.0")):
        validate_params(reckless)


SIM_FLOAT_FIELDS = ("a", "gamma", "mu", "lam", "eps", "delta", "Gamma", "Lx", "Ly", "cfl",
                    "t_final", "dt_max")
INIT_FLOAT_FIELDS = ("rho_base", "b_base", "rho_amp", "b_amp", "ratio_mid", "ratio_amp",
                     "u_amp", "m", "M")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", SIM_FLOAT_FIELDS)
def test_rejects_non_finite_parameter(name, value):
    # a NaN passes every `x < 0` test as false, and an infinity most bounds
    with pytest.raises(ValidationError, match=rf"^{name} must be finite, got {value}$"):
        validate_params(SimulationParams(**{name: value}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", INIT_FLOAT_FIELDS)
@pytest.mark.parametrize("kind", ["constant", "ratio-profile"])
def test_rejects_non_finite_initial_data_field(kind, name, value):
    # a NaN m or M would make the bound check vacuous, a NaN u_amp would
    # only show up as a DegenerateState during the run
    with pytest.raises(ValidationError, match=rf"^{name} must be finite, got {value}$"):
        init_state(grid16(), InitialDataSpec(kind=kind, **{name: value}))


def test_float_field_lists_cover_the_dataclasses():
    for cls, names in ((SimulationParams, SIM_FLOAT_FIELDS), (InitialDataSpec, INIT_FLOAT_FIELDS)):
        floats = [f.name for f in dataclasses.fields(cls) if f.type in ("float", "float | None")]
        assert tuple(floats) == names


def test_zero_t_final_allowed_for_diagnostics_only_runs():
    validate_params(SimulationParams(t_final=0.0))


def test_grid_spacing_arithmetic():
    g = build_grid(validate_params(SimulationParams(Lx=1.0, Ly=1.0, nx=4, ny=4)))
    assert g.hx == 0.25 and g.hy == 0.25
    g2 = build_grid(validate_params(SimulationParams(Lx=2.0, Ly=1.0, nx=8, ny=4)))
    assert g2.hx == 0.25 and g2.hy == 0.25
    assert g2.cell_area == 0.0625


def test_grid_rejects_too_few_cells():
    with pytest.raises(ValidationError):
        validate_params(SimulationParams(nx=2))
    with pytest.raises(ValidationError, match="need at least 4 cells per direction, got nx=4, ny=3"):
        Grid(4, 3, 1.0, 1.0)


def test_grid_derives_its_spacing_from_four_values():
    g = Grid(12, 7, 1.3, 0.9)
    assert (g.hx, g.hy) == (1.3 / 12, 0.9 / 7)
    assert g == build_grid(validate_params(SimulationParams(nx=12, ny=7, Lx=1.3, Ly=0.9)))
    with pytest.raises(TypeError):
        Grid(12, 7, 1.3, 0.9, hx=0.1, hy=0.1)
    assert dataclasses.replace(g, nx=26).hx == 1.3 / 26


def test_field_table_matches_the_mac_staggering():
    assert field_shapes(5, 3) == {"rho": (5, 3), "b": (5, 3), "ux": (6, 3), "uy": (5, 4)}
    assert list(field_shapes(5, 3)) == [f.name for f in dataclasses.fields(State) if f.name != "t"]


def test_grid_coordinates_and_shapes():
    g = build_grid(validate_params(SimulationParams(Lx=1.2, Ly=0.8, nx=6, ny=4)))
    assert g.xc.shape == (6,) and g.xf.shape == (7,)
    assert g.xc[0] == pytest.approx(0.1) and g.xf[-1] == pytest.approx(1.2)
    assert g.zeros_xface().shape == (7, 4)
    assert g.zeros_yface().shape == (6, 5)


# ------------------------------------------------------------------
# initial data
# ------------------------------------------------------------------

def grid16():
    return build_grid(validate_params(SimulationParams(nx=16, ny=16)))


def test_constant_kind_envelope():
    s, env = init_state(grid16(), InitialDataSpec(kind="constant", rho_base=1.0, b_base=2.0))
    assert env == RatioEnvelope(2.0, 2.0)
    assert np.all(s.rho == 1.0) and np.all(s.b == 2.0)
    assert s.t == 0.0


def test_cosine_kind_equal_fields_unit_envelope():
    spec = InitialDataSpec(kind="cosine-perturbation", rho_base=1.0, rho_amp=0.1,
                           b_base=1.0, b_amp=0.1, kx=2, ky=0)
    s, env = init_state(grid16(), spec)
    assert env.c_star == pytest.approx(1.0, abs=1e-14)
    assert env.c_upper == pytest.approx(1.0, abs=1e-14)
    assert s.rho.min() > 0.89


def test_cosine_amplitude_overshoot_rejected():
    spec = InitialDataSpec(kind="cosine-perturbation", rho_base=1.0, rho_amp=1.5, kx=1, ky=0)
    with pytest.raises(BoundViolation):
        init_state(grid16(), spec)


def test_declared_bounds_enforced():
    spec = InitialDataSpec(kind="constant", rho_base=1.0, b_base=2.0, m=1.5, M=10.0)
    with pytest.raises(BoundViolation, match="rho0"):
        init_state(grid16(), spec)
    spec2 = InitialDataSpec(kind="constant", rho_base=2.0, b_base=2.0, m=1.5, M=1.9)
    with pytest.raises(BoundViolation, match="escapes"):
        init_state(grid16(), spec2)


def test_ratio_profile_envelope_attained():
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.25, ratio_amp=0.75, jx=1, jy=0)
    s, env = init_state(grid16(), spec)
    ratio = s.b / s.rho
    assert env.c_star == ratio.min() and env.c_upper == ratio.max()
    assert 0.5 < env.c_star < 0.51 and 1.99 < env.c_upper < 2.0
    # both bounds attained at some cell
    assert np.any(ratio == env.c_star) and np.any(ratio == env.c_upper)


def test_initial_velocity_is_noslip():
    spec = InitialDataSpec(kind="constant", u_amp=0.5)
    s, _ = init_state(grid16(), spec)
    assert np.all(s.ux[0, :] == 0.0) and np.all(s.ux[-1, :] == 0.0)
    assert np.all(s.uy[:, 0] == 0.0) and np.all(s.uy[:, -1] == 0.0)
    assert np.abs(s.ux).max() > 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        init_state(grid16(), InitialDataSpec(kind="perlin-noise"))


def test_envelope_validates_ordering():
    with pytest.raises(BoundViolation):
        RatioEnvelope(0.0, 1.0)
    with pytest.raises(BoundViolation):
        RatioEnvelope(2.0, 1.0)


def test_check_state_catches_shape_and_boundary_violations():
    g = grid16()
    s, _ = init_state(g, InitialDataSpec(kind="constant"))
    bad_ux = s.ux.copy()
    bad_ux[0, 3] = 1e-30
    with pytest.raises(ValidationError, match="no-slip"):
        check_state(State(rho=s.rho, b=s.b, ux=bad_ux, uy=s.uy, t=0.0), g)
    with pytest.raises(BoundViolation):
        check_state(State(rho=s.rho - 2.0, b=s.b, ux=s.ux, uy=s.uy, t=0.0), g)
    bad_uy = s.uy.copy()
    bad_uy[5, -1] = -1e-30
    with pytest.raises(ValidationError, match="no-slip violated on y-boundary faces"):
        check_state(State(rho=s.rho, b=s.b, ux=s.ux, uy=bad_uy, t=0.0), g)


@pytest.mark.parametrize("name, shape", [("rho", (16, 15)), ("b", (15, 16)),
                                         ("ux", (16, 16)), ("uy", (16, 16))])
def test_check_state_names_the_field_of_a_wrong_shape(name, shape):
    g = grid16()
    s, _ = init_state(g, InitialDataSpec(kind="constant"))
    bad = dataclasses.replace(s, **{name: np.ones(shape)})
    want = field_shapes(16, 16)[name]
    with pytest.raises(ValidationError, match=re.escape(f"field {name} has shape {shape}, the grid needs {want}")):
        check_state(bad, g)


def test_initial_field_that_overflows_is_rejected_as_non_finite():
    spec = InitialDataSpec(kind="cosine-perturbation", rho_base=1e308, rho_amp=0.9)
    with np.errstate(over="ignore"), pytest.raises(BoundViolation, match="rho0 contains non-finite entries"):
        init_state(grid16(), spec)


def test_snapshot_file_kind_round_trip(tmp_path):
    from mhd2d.storage import write_snapshot

    g = grid16()
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.2, ratio_amp=0.3, jx=1, jy=0)
    s, env = init_state(g, spec)
    path = tmp_path / "init.mhd2"
    write_snapshot(s, path)
    s2, env2 = init_state(g, InitialDataSpec(kind="snapshot-file", path=str(path)))
    assert np.array_equal(s2.rho, s.rho) and np.array_equal(s2.uy, s.uy)
    assert env2 == env
