"""CLI surface: exit codes, output files, determinism, the invariant
suite, and the snapshot inspector."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mhd2d
from mhd2d.cli import cli_main
from mhd2d.storage import read_snapshot, read_timeseries_csv

SMALL = """
nx = 12
ny = 12
t_final = 0.05
eps = 1e-2
delta = 1e-2
init_kind = ratio-profile
init_rho_amp = 0.1
init_kx = 1
init_ky = 1
init_ratio_mid = 1.25
init_ratio_amp = 0.75
init_jx = 1
record_interval = 2
snapshot_interval = 5
run_id = smoke
"""

CONSTANT = """
nx = 12
ny = 12
t_final = 0.05
init_kind = constant
run_id = const
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def test_run_writes_outputs_and_exits_zero(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", small_cfg, "--output-dir", str(out)]) == 0
    run_dir = out / "smoke"
    files = sorted(os.listdir(run_dir))
    assert "timeseries.csv" in files
    snaps = [f for f in files if f.endswith(".mhd2")]
    assert len(snaps) >= 2
    series = read_timeseries_csv(run_dir / "timeseries.csv")
    assert series.records[0].t == 0.0
    assert "outputs in" in capsys.readouterr().out


def test_run_is_bit_deterministic(small_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", small_cfg, "--output-dir", str(out_a)]) == 0
    assert cli_main(["run", small_cfg, "--output-dir", str(out_b)]) == 0
    csv_a = (out_a / "smoke" / "timeseries.csv").read_bytes()
    csv_b = (out_b / "smoke" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b
    for f in sorted(os.listdir(out_a / "smoke")):
        assert (out_a / "smoke" / f).read_bytes() == (out_b / "smoke" / f).read_bytes()


def test_env_var_overrides_output_dir(small_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("MHD2D_OUTPUT_DIR", str(env_dir))
    assert cli_main(["run", small_cfg]) == 0
    assert (env_dir / "smoke" / "timeseries.csv").exists()


def test_missing_config_path_exit_2(capsys):
    assert cli_main(["run", "/nonexistent/path.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unwritable_output_dir_is_an_io_error_exit_2(small_cfg, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert cli_main(["run", small_cfg, "--output-dir", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("io error: ")


def test_invalid_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nx = 12\nny = 12\nt_final = 1\nGamma = 3\ndelta = 0.1\n")
    assert cli_main(["run", str(path)]) == 2
    assert "Gamma" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["eps = nan", "delta = nan", "t_final = nan", "t_final = inf",
                                  "eps = inf", "init_u_amp = nan", "init_m = nan"])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, line):
    key = line.split()[0]
    path = tmp_path / "nonfinite.cfg"
    kept = [l for l in CONSTANT.splitlines() if not l.startswith(key + " ")]
    path.write_text("\n".join(kept + [line]) + "\n")
    assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key.removeprefix('init_')} must be finite")


def test_unknown_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nx = 12\nny = 12\nt_final = 1\nbogus = 1\n")
    assert cli_main(["run", str(path)]) == 2


def test_usage_error_exit_2():
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2


@pytest.mark.parametrize("command, option, value, kind", [
    ("sweep-eps", "--eps-list", "0.02,abc", "float"),
    ("mms", "--resolutions", "8,x", "int"),
    ("sweep-delta", "--delta-list", ",", "float"),
], ids=["eps-list", "resolutions", "delta-list"])
def test_malformed_list_is_a_usage_error(small_cfg, tmp_path, capsys, command, option, value, kind):
    out = tmp_path / "out"
    assert cli_main([command, small_cfg, "--output-dir", str(out), option, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse's usage, then one error line naming the option
    assert err.splitlines()[-1] == (f"mhd2d {command}: error: argument {option}: "
                                    f"invalid comma-separated {kind} value: {value!r}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["mms", "sweep-eps", "sweep-delta"])
def test_cfl_above_one_fails_up_front_outside_run_and_verify(small_cfg, tmp_path, capsys, command):
    # the sweeps used to run every member into the bound and write an all-NaN CSV
    out = tmp_path / "out"
    assert cli_main([command, small_cfg, "--output-dir", str(out), "--cfl", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: cfl must lie in (0, 1], got 2.0\n"
    assert not out.exists()


def test_verify_constant_config_all_pass(tmp_path, capsys):
    path = tmp_path / "const.cfg"
    path.write_text(CONSTANT)
    assert cli_main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "constant-fixed-point" in out


def test_zero_signal_speed_is_a_named_abort(tmp_path, capsys):
    # every sound-speed term underflows to 0 and u = 0, so no CFL step exists
    path = tmp_path / "underflow.cfg"
    path.write_text("nx = 8\nny = 8\nt_final = 0.1\ngamma = 5\n"
                    "init_rho_base = 1e-300\ninit_b_base = 1e-200\ninit_m = 1e-301\n")
    assert cli_main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("run aborted: DegenerateState: zero signal speed")


def test_verify_reckless_cfl_fails_exit_1(tmp_path, capsys):
    path = tmp_path / "long.cfg"
    path.write_text(SMALL.replace("t_final = 0.05", "t_final = 1.0"))
    assert cli_main(["verify", str(path), "--cfl", "5.0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL positivity" in out or "FAIL maximum-principle" in out


@pytest.mark.parametrize("cfl", ["nan", "inf", "-1", "0"])
def test_non_finite_or_non_positive_cfl_is_a_config_error(small_cfg, tmp_path, capsys, cfl):
    # nan and inf used to abort in stable_dt with an empty list of fields,
    # -1 and 0 as a collapsed time step
    out = tmp_path / "out"
    assert cli_main(["run", small_cfg, "--output-dir", str(out), "--cfl", cfl]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --cfl must be finite and positive, got {float(cfl)}\n"
    assert not out.exists()


def test_verify_initial_data_outside_bounds_exit_2(tmp_path, capsys):
    path = tmp_path / "oob.cfg"
    path.write_text(SMALL + "init_M = 1.5\n")
    assert cli_main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: b0 range [")
    assert "escapes declared bounds [1e-08, 1.5]" in captured.err


def test_aborted_run_flushes_partial_outputs(tmp_path, capsys):
    path = tmp_path / "long.cfg"
    path.write_text(SMALL.replace("t_final = 0.05", "t_final = 1.0")
                    .replace("record_interval = 2", "record_interval = 1"))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--output-dir", str(out), "--cfl", "5.0"]) == 1
    assert "run aborted" in capsys.readouterr().err
    run_dir = out / "smoke"
    series = read_timeseries_csv(run_dir / "timeseries.csv")
    assert len(series.records) >= 1  # whatever was computed landed on disk


def test_inspect_prints_header_and_stats(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    cli_main(["run", small_cfg, "--output-dir", str(out)])
    snap = sorted((out / "smoke").glob("*.mhd2"))[0]
    assert cli_main(["inspect", str(snap)]) == 0
    text = capsys.readouterr().out
    assert "grid 12 x 12" in text
    assert "rho" in text and "uy" in text
    state = read_snapshot(snap)
    assert np.isfinite(state.rho).all()


def test_inspect_bad_file_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.mhd2"
    path.write_bytes(b"JUNKJUNKJUNK")
    assert cli_main(["inspect", str(path)]) == 1


FIELD_NAMES = b"".join(struct.pack("<I", len(n)) + n for n in (b"rho", b"b", b"ux", b"uy"))


@pytest.mark.parametrize("name, content", [
    ("badname.mhd2", b"MHD2" + struct.pack("<IQQdII", 1, 1, 1, 0.0, 1, 3) + b"r\xffo" + bytes(8)),
    ("empty.mhd2", b"MHD2" + struct.pack("<IQQdI", 1, 0, 5, 0.0, 4) + FIELD_NAMES + bytes(40)),
    ("nan.mhd2", b"MHD2" + struct.pack("<IQQdI", 1, 6, 5, 0.0, 4) + FIELD_NAMES
     + struct.pack("<d", float("nan")) + struct.pack("<59d", *[1.0] * 59) + bytes(8 * 71)),
    ("bad.csv", b"t,energy\n\xff,1\n"),
], ids=["snapshot-name", "snapshot-empty-grid", "snapshot-nan", "csv"])
def test_inspect_corrupt_file_one_line_error(tmp_path, name, content):
    # run as `python -m mhd2d`, so an escaping exception would print a traceback
    path = tmp_path / name
    path.write_bytes(content)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mhd2d.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mhd2d", "inspect", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "FormatError" in proc.stderr, proc.stderr
    # no run was started: the message names the file, not an aborted run
    assert f"cannot inspect {path}: FormatError" in proc.stderr
    assert "run aborted" not in proc.stderr


def test_sweep_eps_cli(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["sweep-eps", small_cfg, "--output-dir", str(out),
                     "--eps-list", "1e-2,5e-3"])
    assert code == 0
    assert (out / "smoke_sweep_eps.csv").exists()
    assert "eps sweep" in capsys.readouterr().out


def test_sweep_delta_cli(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["sweep-delta", small_cfg, "--output-dir", str(out),
                     "--delta-list", "1e-2,2.5e-3"])
    assert code == 0
    assert (out / "smoke_sweep_delta.csv").exists()


def test_sweep_eps_cli_exits_1_when_a_member_fails(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["sweep-eps", small_cfg, "--output-dir", str(out),
                     "--eps-list", "1e-2,-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "eps=-1: FAILED ValidationError" in captured.out
    assert captured.err.strip() == "1 member(s) failed"
    assert (out / "smoke_sweep_eps.csv").exists()


def test_mms_cli_tiny(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["mms", small_cfg, "--output-dir", str(out),
                     "--resolutions", "8,12"])
    assert code == 0
    assert (out / "smoke_mms.csv").exists()
    assert "order[rho]" in capsys.readouterr().out
