"""Run configuration: a flat key = value text format and its defaults.

Minimal document: `nx`, `ny` and `t_final`; every other key has a default
(see README).  Unknown and duplicate keys are rejected with line context;
validate_params adds cfl <= 1, and every other rule is checked by the type
that holds the value (SimulationParams, InitialDataSpec, Config).
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, field, fields, replace

from .core import InitialDataSpec, SimulationParams, validate_params
from .errors import ParseError, ValidationError

__all__ = ["Config", "parse_config", "parse_config_file", "MODES"]

MODES = ("regularized", "target")


@dataclass(frozen=True)
class Config:
    params: SimulationParams
    init: InitialDataSpec = field(default_factory=InitialDataSpec)
    record_interval: int = 10
    snapshot_interval: int = 100
    output_dir: str = "out"
    run_id: str = "run"

    def __post_init__(self):
        for name in ("record_interval", "snapshot_interval"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral) and v >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {v!r}")
        # run_id names a directory inside output_dir
        if self.run_id in ("", ".", "..") or any(c in self.run_id for c in "/\\:*?\"<>| \t"):
            raise ValidationError(f"run_id {self.run_id!r} is not filesystem-safe")

    def with_params(self, **kw) -> "Config":
        return replace(self, params=validate_params(replace(self.params, **kw)))


def _parse_bool(raw: str, key: str, lineno: int) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"line {lineno}: key {key!r} wants a boolean, got {raw!r}")


def _key_table(cls, prefix: str = "") -> dict:
    """key -> (attribute, converter) per field of `cls` with a default: the
    key is `prefix` plus the name (`lam` spelled `lambda`), the converter
    the default's type (float for None, _parse_bool for a bool)."""
    table = {}
    for f in fields(cls):
        if f.default is MISSING:
            continue
        if isinstance(f.default, bool):
            conv = _parse_bool
        else:
            conv = float if f.default is None else type(f.default)
        table[prefix + ("lambda" if f.name == "lam" else f.name)] = (f.name, conv)
    return table


_PARAM_KEYS = _key_table(SimulationParams)
_INIT_KEYS = _key_table(InitialDataSpec, "init_")
_RUN_KEYS = _key_table(Config)


def parse_config(text: str) -> Config:
    """Parse a key = value document into a fully validated Config."""
    seen: dict[str, int] = {}
    pvals: dict[str, object] = {}
    ivals: dict[str, object] = {}
    ovals: dict[str, object] = {}
    mode = "regularized"

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ParseError(f"line {lineno}: empty key or value in {raw_line!r}")
        if key in seen:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} (first seen on line {seen[key]})"
            )
        seen[key] = lineno

        try:
            if key in _PARAM_KEYS:
                attr, conv = _PARAM_KEYS[key]
                pvals[attr] = _parse_bool(raw, key, lineno) if conv is _parse_bool else conv(raw)
            elif key in _INIT_KEYS:
                attr, conv = _INIT_KEYS[key]
                ivals[attr] = conv(raw)
            elif key == "mode":
                if raw not in MODES:
                    raise ParseError(f"line {lineno}: unknown mode {raw!r}, pick from {MODES}")
                mode = raw
            elif key in _RUN_KEYS:
                attr, conv = _RUN_KEYS[key]
                ovals[attr] = conv(raw)
            else:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    for required in ("nx", "ny", "t_final"):
        if required not in seen:
            raise ParseError(f"missing required key {required!r}")

    if mode == "regularized":
        pvals.setdefault("eps", 1e-2)
        pvals.setdefault("delta", 1e-2)
    elif mode == "target":
        pvals.setdefault("eps", 0.0)
        pvals.setdefault("delta", 0.0)
        if pvals.get("eps") != 0.0 or pvals.get("delta") != 0.0:
            raise ValidationError("mode=target requires eps = 0 and delta = 0")

    params = validate_params(SimulationParams(**pvals))
    init = InitialDataSpec(**ivals)
    try:
        return Config(params=params, init=init, **ovals)
    except ValidationError as exc:  # a bad run field: the message names the key
        raise ParseError(str(exc)) from exc


def parse_config_file(path) -> Config:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
