"""Config text format: totality of parsing, defaults, rejection of
unknown/duplicate keys, and delegation of physics admissibility."""

import pytest

from mhd2d.config import Config, parse_config, parse_config_file
from mhd2d.core import validate_params
from mhd2d.errors import GammaTooSmall, ParseError, ValidationError, ViscosityInadmissible

MINIMAL = "nx = 64\nny = 64\nt_final = 1.0\n"


def test_minimal_document_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    p = cfg.params
    assert (p.nx, p.ny, p.t_final) == (64, 64, 1.0)
    assert p.a == 1.0 and p.gamma == 1.4 and p.mu == 0.1 and p.lam == 0.0
    assert p.Gamma == 6.0 and p.cfl == 0.4
    assert p.eps == 1e-2 and p.delta == 1e-2  # regularized-mode defaults
    assert cfg.mode == "regularized"
    assert cfg.record_interval == 10 and cfg.snapshot_interval == 100
    assert cfg.init.kind == "constant"


def test_target_mode_defaults_to_unregularized():
    cfg = parse_config(MINIMAL + "mode = target\n")
    assert cfg.params.eps == 0.0 and cfg.params.delta == 0.0


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
