"""Bit-exactness of the snapshot and CSV formats, and loud failure on
malformed files."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, build_grid, init_state, validate_params
from mhd2d.diagnostics import CSV_COLUMNS, DiagnosticsRecord, DiagnosticsSeries
from mhd2d.errors import FormatError, ParseError
from mhd2d.storage import (
    read_snapshot,
    read_timeseries_csv,
    snapshot_header,
    write_snapshot,
    write_timeseries_csv,
)
from mhd2d.verification import MmsReport, epsilon_sweep


def sample_state(nx=10, ny=7):
    p = validate_params(SimulationParams(nx=nx, ny=ny, Lx=1.1, Ly=0.8))
    g = build_grid(p)
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.1, ratio_amp=0.4, jx=1, jy=0, u_amp=0.2)
    s, _ = init_state(g, spec)
    # make time a non-trivial float
    return g, s.__class__(rho=s.rho, b=s.b, ux=s.ux, uy=s.uy, t=0.12345678901234567)


def test_snapshot_round_trip_bit_exact(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    back = read_snapshot(path, grid=g)
    assert back.t == s.t
    for f in ("rho", "b", "ux", "uy"):
        assert getattr(back, f).tobytes() == getattr(s, f).tobytes()


def test_snapshot_header_contents(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    hdr = snapshot_header(path)
    assert hdr["nx"] == g.nx and hdr["ny"] == g.ny
    assert hdr["fields"] == ["rho", "b", "ux", "uy"]
    assert hdr["time"] == s.t
    assert hdr["version"] == 1
    assert sorted(hdr) == ["fields", "nx", "ny", "time", "version"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["rho", "b", "ux", "uy"])
def test_snapshot_non_finite_payload_names_field_and_first_index(tmp_path, name, value):
    g, s = sample_state()
    arr = getattr(s, name).copy()
    arr[3, 1] = value
    arr[4, 0] = value  # later in row-major order: not the one reported
    s = dataclasses.replace(s, **{name: arr})
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    with pytest.raises(FormatError) as err:
        read_snapshot(path, grid=g)
    assert str(err.value) == f"field {name!r} is not finite at index (3, 1): {value}"


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.mhd2"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="bad magic"):
        read_snapshot(path)


def test_snapshot_bad_version(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_snapshot(path)


def test_snapshot_truncated(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(FormatError, match="truncated"):
        read_snapshot(path)


def test_snapshot_trailing_bytes(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_snapshot(path)


def test_snapshot_grid_mismatch(tmp_path):
    g, s = sample_state()
    path = tmp_path / "s.mhd2"
    write_snapshot(s, path)
    p2 = validate_params(SimulationParams(nx=8, ny=8))
    g2 = build_grid(p2)
    with pytest.raises(FormatError, match="do not match"):
        read_snapshot(path, grid=g2)


def crafted_snapshot(path, nx, ny, names, payload=b"", lengths=None):
    """A v1 header declaring `names` (bytes), optionally with forged name
    lengths, followed by `payload`."""
    lengths = lengths or [len(n) for n in names]
    raw = b"MHD2" + struct.pack("<IQQdI", 1, nx, ny, 0.0, len(names))
    for ln, name in zip(lengths, names):
        raw += struct.pack("<I", ln) + name
    path.write_bytes(raw + payload)
    return path


def test_snapshot_huge_name_length_fails_without_allocating(tmp_path):
    # 64 MiB declared by a 1 KB file: rejected before any read of that size
    path = crafted_snapshot(tmp_path / "n.mhd2", 4, 4, [b"rho"], b"\x00" * 1000,
                            lengths=[64 * 2 ** 20])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("nx, ny", [(2 ** 40, 1), (1, 2 ** 40), (2 ** 64 - 1, 2 ** 64 - 1)])
def test_snapshot_huge_dims_fail_as_format_error(tmp_path, nx, ny):
    names = [b"rho", b"b", b"ux", b"uy"]
    path = crafted_snapshot(tmp_path / "d.mhd2", nx, ny, names, b"\x00" * 800)
    with pytest.raises(FormatError, match="truncated"):
        read_snapshot(path)
    with pytest.raises(FormatError, match="truncated"):
        snapshot_header(path)


@pytest.mark.parametrize("nx, ny", [(0, 5), (5, 0)])
def test_snapshot_empty_grid(tmp_path, nx, ny):
    # a consistent payload for a grid without cells is still not a state
    names = [b"rho", b"b", b"ux", b"uy"]
    path = crafted_snapshot(tmp_path / "e.mhd2", nx, ny, names, b"\x00" * 40)
    with pytest.raises(FormatError, match="must be positive"):
        read_snapshot(path)


def test_snapshot_field_count_beyond_the_file(tmp_path):
    path = tmp_path / "c.mhd2"
    path.write_bytes(b"MHD2" + struct.pack("<IQQdI", 1, 2, 2, 0.0, 2 ** 32 - 1) + b"\x00" * 64)
    with pytest.raises(FormatError, match="fields overrun"):
        read_snapshot(path)


def test_snapshot_non_utf8_name(tmp_path):
    path = crafted_snapshot(tmp_path / "u.mhd2", 2, 2, [b"rh\xff"], b"\x00" * 32)
    with pytest.raises(FormatError, match="not utf-8"):
        read_snapshot(path)


def test_snapshot_repeated_field_name(tmp_path):
    # a full payload for rho, b, ux, uy and a second rho: the second must
    # not silently replace the first
    nx, ny = 3, 2
    names = [b"rho", b"b", b"ux", b"uy", b"rho"]
    count = 3 * nx * ny + (nx + 1) * ny + nx * (ny + 1)
    path = crafted_snapshot(tmp_path / "r.mhd2", nx, ny, names, np.arange(count, dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="'rho' repeated"):
        read_snapshot(path)


def test_snapshot_unknown_field_name(tmp_path):
    path = crafted_snapshot(tmp_path / "k.mhd2", 2, 2, [b"rho", b"pressure"], b"\x00" * 64)
    with pytest.raises(FormatError, match="unknown field name 'pressure' in snapshot"):
        read_snapshot(path)


def test_snapshot_short_fixed_size_read(tmp_path):
    path = tmp_path / "short.mhd2"
    path.write_bytes(b"MHD2\x01\x00")
    with pytest.raises(FormatError, match="truncated snapshot: wanted 4 bytes, got 2"):
        read_snapshot(path)


def test_snapshot_missing_field(tmp_path):
    nx, ny = 3, 2
    count = 2 * nx * ny + (nx + 1) * ny
    path = crafted_snapshot(tmp_path / "m.mhd2", nx, ny, [b"rho", b"b", b"ux"],
                            np.ones(count, dtype="<f8").tobytes())
    with pytest.raises(FormatError, match=r"snapshot lacks fields \['uy'\]"):
        read_snapshot(path)


# ------------------------------------------------------------------
# CSV
# ------------------------------------------------------------------

def awkward_record(k: float) -> DiagnosticsRecord:
    # values that stress decimal round-tripping
    return DiagnosticsRecord(
        t=k * 0.1,
        energy=1.0 / 3.0 + k,
        dissipation=1e-17 * (k + 1),
        mass_rho=np.pi,
        mass_b=np.e,
        ratio_min=0.1 + 1e-15,
        ratio_max=2.0 - 1e-15,
        F_convex=2.0 / 7.0,
        G_entropy=-1.2345678901234567e-5,
        delta_pressure_L1=6.02214076e23,
        u_H1_sq=k,
        rho_Lgamma=1.4 ** k,
        b_L2_sq=k * k,
    )


def test_csv_header_only_for_empty_series(tmp_path):
    path = tmp_path / "empty.csv"
    write_timeseries_csv(DiagnosticsSeries(), path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_header_golden(tmp_path):
    # the literal header README documents; CSV_COLUMNS is derived from
    # DiagnosticsRecord, so a renamed or reordered field shows up here
    header = ("t,energy,dissipation,mass_rho,mass_b,ratio_min,ratio_max,F_convex,"
              "G_entropy,delta_pressure_L1,u_H1_sq,rho_Lgamma,b_L2_sq")
    path = tmp_path / "ts.csv"
    write_timeseries_csv([awkward_record(1.0)], path)
    assert path.read_text().splitlines()[0] == header
    assert ",".join(CSV_COLUMNS) == header


def test_csv_one_record_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    write_timeseries_csv([awkward_record(0)], path)
    assert len(path.read_text().splitlines()) == 2


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "rt.csv"
    records = [awkward_record(k) for k in range(7)]
    write_timeseries_csv(records, path)
    back = read_timeseries_csv(path)
    assert len(back.records) == 7
    for a, b in zip(records, back.records):
        assert a.as_row() == b.as_row()


def test_csv_blank_lines_are_skipped(tmp_path):
    recs = [awkward_record(k) for k in range(3)]
    path = tmp_path / "ts.csv"
    write_timeseries_csv(recs, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + ["\n"] + lines[2:] + ["\n"]))
    assert read_timeseries_csv(path).records == recs


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError, match="unexpected CSV header"):
        read_timeseries_csv(path)


def test_csv_bad_row_width(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n1,2\n")
    with pytest.raises(ParseError, match="expected 13 columns"):
        read_timeseries_csv(path)


def test_csv_non_numeric_value_names_path_and_line(tmp_path):
    path = tmp_path / "bad4.csv"
    write_timeseries_csv([awkward_record(1.0), awkward_record(2.0)], path)
    lines = path.read_text().splitlines()
    lines[2] = "oops," + lines[2].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"bad4\.csv:3: could not convert string to float: 'oops'"):
        read_timeseries_csv(path)


def test_csv_write_error_names_path(tmp_path):
    with pytest.raises(OSError, match="cannot write time series"):
        write_timeseries_csv(DiagnosticsSeries(), tmp_path / "no" / "dir" / "x.csv")


def test_csv_non_utf8_byte_names_path_and_line(tmp_path):
    path = tmp_path / "bad3.csv"
    write_timeseries_csv([awkward_record(1.0), awkward_record(2.0)], path)
    raw = bytearray(path.read_bytes())
    raw[raw.rindex(b"\n", 0, len(raw) - 1) + 3] = 0xFF  # inside line 3
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=r"bad3\.csv:3: byte 0xff is not utf-8"):
        read_timeseries_csv(path)


# ------------------------------------------------------------------
# the one table writer against the three writers it replaced
# ------------------------------------------------------------------

def _reference_timeseries_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(format(float(v), ".17g") for v in rec.as_row()) + "\n")


def _reference_sweep_csv(rep, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rep.columns) + "\n")
        for row in rep.rows:
            fh.write(
                ",".join(
                    format(row[c], ".17g") if isinstance(row[c], float) else str(row[c])
                    for c in rep.columns
                )
                + "\n"
            )


def _reference_mms_csv(rep, path):
    with open(path, "w") as fh:
        fh.write("n,h," + ",".join(f"l2_{k}" for k in rep.l2_errors) + "\n")
        for i, (n, h) in enumerate(zip(rep.resolutions, rep.hs)):
            fh.write(
                f"{n},{h:.17g},"
                + ",".join(format(rep.l2_errors[k][i], ".17g") for k in rep.l2_errors)
                + "\n"
            )


def test_timeseries_csv_bytes_equal_reference_writer(tmp_path):
    records = [awkward_record(k) for k in (0, 1.0, 2, 7.5)]  # int and float k
    write_timeseries_csv(records, tmp_path / "got.csv")
    _reference_timeseries_csv(records, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sweep_csv_with_a_failing_member_bytes_equal_reference_writer(tmp_path):
    p = validate_params(SimulationParams(nx=12, ny=12, t_final=0.05, eps=1e-2, delta=1e-2))
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                           ratio_mid=1.0, ratio_amp=0.25, jx=1, jy=0, u_amp=0.2)
    rep = epsilon_sweep(Config(params=p, init=spec), [1e-2, 5e-3, -1.0], n_records=5)
    failed = rep.rows[-1]
    assert failed["ok"] is False and failed["error"] and np.isnan(failed["dist_rho"])
    rep.to_csv(tmp_path / "got.csv")
    _reference_sweep_csv(rep, tmp_path / "ref.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert b",False,ValidationError: eps must be >= 0" in got and b",nan," in got


def test_mms_csv_bytes_equal_reference_writer(tmp_path):
    rep = MmsReport(
        resolutions=[8, 16, 32],
        hs=[0.125, 1.0 / 16.0, 1.0 / 32.0],
        l2_errors={"rho": [1.0 / 3.0, 1e-17, np.pi], "b": [2.0 / 7.0, 0.0, 6.02214076e23],
                   "u": [np.float64(0.1), 1.2345678901234567e-5, float("nan")]},
        linf_errors={}, orders={}, pair_orders={},
    )
    rep.to_csv(tmp_path / "got.csv")
    _reference_mms_csv(rep, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
