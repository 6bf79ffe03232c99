"""Config text format: totality of parsing, defaults, rejection of
unknown/duplicate keys, and delegation of physics admissibility."""

import pytest

from mhd2d.config import Config, parse_config, parse_config_file
from mhd2d.core import InitialDataSpec, SimulationParams, validate_params
from mhd2d.errors import GammaTooSmall, ParseError, ValidationError, ViscosityInadmissible

MINIMAL = "nx = 64\nny = 64\nt_final = 1.0\n"


def test_minimal_document_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    p = cfg.params
    assert (p.nx, p.ny, p.t_final) == (64, 64, 1.0)
    assert p.a == 1.0 and p.gamma == 1.4 and p.mu == 0.1 and p.lam == 0.0
    assert p.Gamma == 6.0 and p.cfl == 0.4
    assert p.eps == 1e-2 and p.delta == 1e-2  # regularized-mode defaults
    assert cfg.record_interval == 10 and cfg.snapshot_interval == 100
    assert cfg.init.kind == "constant"


def test_target_mode_defaults_to_unregularized():
    cfg = parse_config(MINIMAL + "mode = target\n")
    assert cfg.params.eps == 0.0 and cfg.params.delta == 0.0


@pytest.mark.parametrize("key", ["eps", "delta"])
def test_target_mode_rejects_a_regularization(key):
    with pytest.raises(ValidationError, match="mode=target requires eps = 0 and delta = 0"):
        parse_config(MINIMAL + f"mode = target\n{key} = 1e-3\n")


def test_comments_and_blank_lines_ignored():
    text = "# comment\n\nnx = 8\nny = 8   # trailing\nt_final = 0.5\n"
    cfg = parse_config(text)
    assert cfg.params.nx == 8


def test_duplicate_key_rejected_with_context():
    with pytest.raises(ParseError, match="duplicate key 'nx'"):
        parse_config(MINIMAL + "nx = 32\n")


def test_unknown_key_rejected_with_line():
    with pytest.raises(ParseError, match="line 4. unknown key 'wibble'"):
        parse_config(MINIMAL + "wibble = 3\n")


def test_missing_required_keys():
    with pytest.raises(ParseError, match="missing required key"):
        parse_config("nx = 8\nny = 8\n")


@pytest.mark.parametrize("line", ["nx =", "= 8"])
def test_empty_key_or_value_rejected_with_line(line):
    with pytest.raises(ParseError, match="line 4: empty key or value"):
        parse_config(MINIMAL + line + "\n")


def test_bad_value_reports_key():
    with pytest.raises(ParseError, match="bad value for 'nx'"):
        parse_config("nx = eight\nny = 8\nt_final = 1\n")


def test_malformed_line():
    with pytest.raises(ParseError, match="expected 'key = value'"):
        parse_config("nx 8\nny = 8\nt_final = 1\n")


def test_validation_delegated_gamma_too_small():
    # Gamma=3 with delta > 0 violates Gamma > max(4, gamma)
    with pytest.raises(GammaTooSmall):
        parse_config(MINIMAL + "Gamma = 3\ndelta = 0.1\n")


def test_validation_delegated_viscosity():
    with pytest.raises(ViscosityInadmissible):
        parse_config(MINIMAL + "lambda = -3\n")


def test_unsafe_run_id_rejected():
    with pytest.raises(ParseError, match="filesystem-safe"):
        parse_config(MINIMAL + "run_id = a/b\n")


# the CLI subcommand names are not modes: the subcommand picks what is done
# with a config, the mode only picks the regularized or the target system
@pytest.mark.parametrize("mode", ["banana", "mms", "sweep-eps", "sweep-delta", "verify"])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ParseError, match="unknown mode"):
        parse_config(MINIMAL + f"mode = {mode}\n")


def test_intervals_must_be_positive():
    with pytest.raises(ParseError, match="record_interval"):
        parse_config(MINIMAL + "record_interval = 0\n")


def test_full_document_round_trip_of_values():
    text = (
        "a = 2.0\ngamma = 1.2\nmu = 0.3\nlambda = 0.1\n"
        "eps = 0.004\ndelta = 0.002\nGamma = 7\n"
        "Lx = 2.0\nLy = 1.5\nnx = 24\nny = 16\ncfl = 0.5\n"
        "t_final = 0.75\ndt_max = 1e-3\nadvect_scheme = centered\n"
        "freeze_velocity = true\n"
        "init_kind = ratio-profile\ninit_rho_base = 1.1\ninit_rho_amp = 0.05\n"
        "init_kx = 2\ninit_ky = 1\ninit_ratio_mid = 1.2\ninit_ratio_amp = 0.3\n"
        "init_jx = 1\ninit_jy = 0\ninit_u_amp = 0.1\n"
        "record_interval = 5\nsnapshot_interval = 20\n"
        "output_dir = results\nrun_id = demo-1\nmode = regularized\n"
    )
    cfg = parse_config(text)
    p = cfg.params
    assert p.a == 2.0 and p.gamma == 1.2 and p.mu == 0.3 and p.lam == 0.1
    assert p.eps == 0.004 and p.delta == 0.002 and p.Gamma == 7.0
    assert (p.Lx, p.Ly, p.nx, p.ny) == (2.0, 1.5, 24, 16)
    assert p.cfl == 0.5 and p.t_final == 0.75 and p.dt_max == 1e-3
    assert p.advect_scheme == "centered" and p.freeze_velocity is True
    i = cfg.init
    assert i.kind == "ratio-profile" and i.rho_base == 1.1 and i.ratio_amp == 0.3
    assert cfg.record_interval == 5 and cfg.snapshot_interval == 20
    assert cfg.output_dir == "results" and cfg.run_id == "demo-1"


def test_parse_config_file_missing_path(tmp_path):
    with pytest.raises(ParseError, match="cannot read config"):
        parse_config_file(tmp_path / "nope.cfg")


def test_parse_config_file_ok(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = parse_config_file(path)
    assert isinstance(cfg, Config)
    assert validate_params(cfg.params) is cfg.params


def test_with_params_revalidates():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ValidationError):
        cfg.with_params(cfl=2.0)
    cfg2 = cfg.with_params(cfl=0.2)
    assert cfg2.params.cfl == 0.2


# every key the parser accepts, with a raw value and what it must parse to
# (value and exact type; None for the mode key, which only picks the
# eps/delta defaults and is not kept in the Config); the parameter and init_ tables are derived from
# the SimulationParams and InitialDataSpec fields, so this pins them
GOLDEN_KEYS = {
    "a": ("2", ("params", "a", 2.0)),
    "gamma": ("1.2", ("params", "gamma", 1.2)),
    "mu": ("0.3", ("params", "mu", 0.3)),
    "lambda": ("0.1", ("params", "lam", 0.1)),
    "eps": ("0.004", ("params", "eps", 0.004)),
    "delta": ("0.002", ("params", "delta", 0.002)),
    "Gamma": ("7", ("params", "Gamma", 7.0)),
    "Lx": ("2", ("params", "Lx", 2.0)),
    "Ly": ("1.5", ("params", "Ly", 1.5)),
    "nx": ("24", ("params", "nx", 24)),
    "ny": ("16", ("params", "ny", 16)),
    "cfl": ("0.5", ("params", "cfl", 0.5)),
    "t_final": ("0.75", ("params", "t_final", 0.75)),
    "dt_max": ("2.5e-3", ("params", "dt_max", 2.5e-3)),
    "advect_scheme": ("centered", ("params", "advect_scheme", "centered")),
    "freeze_velocity": ("yes", ("params", "freeze_velocity", True)),
    "init_kind": ("cosine-perturbation", ("init", "kind", "cosine-perturbation")),
    "init_rho_base": ("1.1", ("init", "rho_base", 1.1)),
    "init_b_base": ("0.9", ("init", "b_base", 0.9)),
    "init_rho_amp": ("0.05", ("init", "rho_amp", 0.05)),
    "init_b_amp": ("0.04", ("init", "b_amp", 0.04)),
    "init_kx": ("2", ("init", "kx", 2)),
    "init_ky": ("1", ("init", "ky", 1)),
    "init_ratio_mid": ("1.2", ("init", "ratio_mid", 1.2)),
    "init_ratio_amp": ("0.3", ("init", "ratio_amp", 0.3)),
    "init_jx": ("3", ("init", "jx", 3)),
    "init_jy": ("2", ("init", "jy", 2)),
    "init_u_amp": ("0.1", ("init", "u_amp", 0.1)),
    "init_m": ("1e-6", ("init", "m", 1e-6)),
    "init_M": ("50", ("init", "M", 50.0)),
    "init_path": ("data/start.mhd2", ("init", "path", "data/start.mhd2")),
    "mode": ("regularized", None),  # picks the eps/delta defaults, stored nowhere
    "record_interval": ("5", (None, "record_interval", 5)),
    "snapshot_interval": ("20", (None, "snapshot_interval", 20)),
    "output_dir": ("results", (None, "output_dir", "results")),
    "run_id": ("demo-1", (None, "run_id", "demo-1")),
}
INT_KEYS = ("nx", "ny", "init_kx", "init_ky", "init_jx", "init_jy",
            "record_interval", "snapshot_interval")


def test_golden_key_set_and_conversions():
    from mhd2d import config

    derived = set(config._PARAM_KEYS) | set(config._INIT_KEYS)
    assert derived | {"mode", "record_interval", "snapshot_interval", "output_dir", "run_id"} == set(GOLDEN_KEYS)
    cfg = parse_config("".join(f"{k} = {raw}\n" for k, (raw, _) in GOLDEN_KEYS.items()))
    for key, (raw, target) in GOLDEN_KEYS.items():
        if target is None:
            continue
        part, attr, want = target
        got = getattr(cfg if part is None else getattr(cfg, part), attr)
        assert got == want and type(got) is type(want), (key, got)
    with pytest.raises(ParseError, match="unknown key 'init_lam'"):
        parse_config(MINIMAL + "init_lam = 1\n")


@pytest.mark.parametrize("key", INT_KEYS)
def test_int_keys_reject_a_fraction(key):
    text = "".join(f"{k} = {v}\n" for k, v in {"nx": 8, "ny": 8, "t_final": 1.0, key: 1.5}.items())
    with pytest.raises(ParseError, match=f"bad value for '{key}'|{key} must be"):
        parse_config(text)


@pytest.mark.parametrize("raw, want", [("yes", True), ("On", True), ("1", True), ("TRUE", True),
                                       ("no", False), ("off", False), ("0", False), ("False", False)])
def test_freeze_velocity_boolean_spellings(raw, want):
    assert parse_config(MINIMAL + f"freeze_velocity = {raw}\n").params.freeze_velocity is want


def test_freeze_velocity_rejects_a_non_boolean():
    with pytest.raises(ParseError, match="line 4: key 'freeze_velocity' wants a boolean, got 'maybe'"):
        parse_config(MINIMAL + "freeze_velocity = maybe\n")


# the run fields and the initial-data rules are checked by the dataclass
# that holds them, so a Config or spec built in code fails as a file does
@pytest.mark.parametrize("name, value", [("record_interval", 0), ("record_interval", 2.5),
                                         ("record_interval", -1), ("snapshot_interval", 0),
                                         ("snapshot_interval", -1)])
def test_config_rejects_a_bad_interval_when_built(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1, got {value}$"):
        Config(params=validate_params(SimulationParams()), **{name: value})


@pytest.mark.parametrize("run_id", ["", "a/b", "../x", "..", "a b"])
def test_config_rejects_an_unsafe_run_id_when_built(run_id):
    with pytest.raises(ValidationError, match=r"^run_id .* is not filesystem-safe$"):
        Config(params=validate_params(SimulationParams()), run_id=run_id)


def test_unknown_init_kind_has_one_message_in_code_and_in_files():
    with pytest.raises(ValidationError) as in_code:
        InitialDataSpec(kind="bogus")
    with pytest.raises(ValidationError) as in_file:
        parse_config(MINIMAL + "init_kind = bogus\n")
    assert str(in_code.value) == str(in_file.value) == "unknown initial-data kind 'bogus'"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_initial_data_spec_rejects_a_non_finite_float_when_built(value):
    with pytest.raises(ValidationError, match=f"^u_amp must be finite, got {value}$"):
        InitialDataSpec(kind="constant", u_amp=value)
