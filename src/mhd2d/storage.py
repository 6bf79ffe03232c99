"""Bit-exact file formats: binary field snapshots and CSV tables.

Snapshot layout (all little-endian):
    magic "MHD2" | version u32 | nx u64 | ny u64 | time f64 | nfields u32
    then per field: name length u32 | name bytes (utf-8)
    then the payloads in declared order, row-major f64.
Field order and shapes come from core.field_shapes (rho/b at centers,
ux/uy on faces), and the reader checks every declared length against the
file size before reading it, so a truncated, resized or bit-flipped file
fails loudly instead of shearing arrays or allocating what its header claims.
Field names must be utf-8, known and distinct, and every payload value
must be finite: no run records a NaN or an infinity, so one in a file
means the file is corrupt.
"""

from __future__ import annotations

import numbers
import os
import struct
from typing import Iterable, Sequence

import numpy as np

from .core import Grid, State, field_shapes
from .diagnostics import CSV_COLUMNS, DiagnosticsRecord, DiagnosticsSeries
from .errors import FormatError, ParseError

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_timeseries_csv",
    "read_timeseries_csv",
    "write_table",
    "snapshot_header",
]

MAGIC = b"MHD2"
VERSION = 1


def write_snapshot(state: State, path) -> None:
    nx, ny = state.rho.shape
    names = list(field_shapes(nx, ny))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<QQ", nx, ny))
        fh.write(struct.pack("<d", state.t))
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for name in names:
            arr = getattr(state, name)
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def snapshot_header(path) -> dict:
    """Parse just the header: magic, version, dims, time, field names."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def _read_header(fh) -> dict:
    """The header at the start of `fh`, checked against the file's size.

    Every length the header declares (field count, name lengths, and the
    payload that nx, ny and the names imply) is compared with the bytes
    the file holds before anything of that length is read, so a corrupt
    length fails as FormatError instead of asking for gigabytes.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(4)
    if head != MAGIC:
        raise FormatError(f"bad magic {head!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    nx, ny = struct.unpack("<QQ", _read_exact(fh, 16))
    if nx < 1 or ny < 1:
        raise FormatError(f"snapshot dims ({nx}, {ny}) must be positive")
    (t,) = struct.unpack("<d", _read_exact(fh, 8))
    (nf,) = struct.unpack("<I", _read_exact(fh, 4))
    if 4 * nf > size - fh.tell():
        raise FormatError(f"truncated snapshot: {nf} declared fields overrun the file's {size} bytes")
    shapes = field_shapes(nx, ny)
    names, payload = [], 0
    for _ in range(nf):
        (ln,) = struct.unpack("<I", _read_exact(fh, 4))
        if ln > size - fh.tell():
            raise FormatError(f"truncated snapshot: a field name of {ln} bytes overruns the file")
        raw = _read_exact(fh, ln)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"field name {raw[:32]!r} is not utf-8") from exc
        if name in names:
            raise FormatError(f"field {name!r} repeated in snapshot header")
        if name not in shapes:
            raise FormatError(f"unknown field name {name!r} in snapshot")
        rows, cols = shapes[name]
        payload += 8 * rows * cols
        names.append(name)
    left = size - fh.tell()
    if payload > left:
        raise FormatError(
            f"truncated snapshot: {nx} x {ny} fields {names} need {payload} payload bytes, "
            f"the file holds {left}"
        )
    if payload < left:
        raise FormatError("snapshot has trailing bytes beyond declared payload")
    return {"version": version, "nx": int(nx), "ny": int(ny), "time": t, "fields": names}


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated snapshot: wanted {n} bytes, got {len(buf)}")
    return buf


def read_snapshot(path, grid: Grid | None = None) -> State:
    """Read a snapshot back, bit-exactly; checks dims against `grid` if given."""
    arrays = {}
    with open(path, "rb") as fh:
        hdr = _read_header(fh)
        nx, ny = hdr["nx"], hdr["ny"]
        if grid is not None and (nx, ny) != (grid.nx, grid.ny):
            raise FormatError(
                f"snapshot dims ({nx}, {ny}) do not match grid ({grid.nx}, {grid.ny})"
            )
        shapes = field_shapes(nx, ny)
        for name in hdr["fields"]:
            shape = shapes[name]
            buf = _read_exact(fh, shape[0] * shape[1] * 8)
            arr = arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                i, j = bad[0]
                raise FormatError(f"field {name!r} is not finite at index ({i}, {j}): {arr[i, j]}")
    missing = [n for n in shapes if n not in arrays]
    if missing:
        raise FormatError(f"snapshot lacks fields {missing}")
    return State(**arrays, t=hdr["time"])


# ------------------------------------------------------------------
# CSV tables
# ------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        return format(float(v), ".17g")
    return str(v)


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer (time series, sweep and MMS reports): a header
    line, then one line per row with every number at 17 significant digits,
    so it reads back bit-exactly, and anything else, a bool too, as str()."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_timeseries_csv(series: DiagnosticsSeries | Iterable[DiagnosticsRecord], path) -> None:
    """Header plus one row per record, 17 significant digits per value."""
    records = series.records if isinstance(series, DiagnosticsSeries) else series
    try:
        write_table(path, CSV_COLUMNS, (rec.as_row() for rec in records))
    except OSError as exc:
        raise OSError(f"cannot write time series to {path}: {exc}") from exc


def read_timeseries_csv(path) -> DiagnosticsSeries:
    series = DiagnosticsSeries()
    with open(path, "rb") as fh:
        lines = enumerate(fh, start=1)
        header = _decode_line(path, *next(lines, (1, b"")))
        if header.split(",") != list(CSV_COLUMNS):
            raise ParseError(f"{path}: unexpected CSV header {header!r}")
        for lineno, raw in lines:
            line = _decode_line(path, lineno, raw)
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ParseError(f"{path}:{lineno}: expected {len(CSV_COLUMNS)} columns")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            series.records.append(DiagnosticsRecord(*vals))
    return series


def _decode_line(path, lineno: int, raw: bytes) -> str:
    """One line of the time series as text, without its newline."""
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: byte {raw[exc.start]:#04x} is not utf-8 text") from exc
