"""Strict YAML configuration schema for the command-line front end.

The dataclasses below are the schema.  One walker builds them from a parsed
document through their fields and type hints, and one serializer turns them
back into plain data; enumerated and bounded values carry their constraint in
the field metadata ("choices", "min").  Unknown keys are hard errors at every
nesting level: silent typos in physics parameters are the costliest bug
class, so nothing is ignored.  parse_config and serialize_config round-trip
exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field, replace

import yaml

from .errors import ConfigSyntaxError, MissingSection, TypeMismatch, UnknownKey
from .exact import DEFAULT_UNKNOWNS_CAP
from .params import DriveMap, SystemParams, omega_of_voltage
from .sweep import DRIVE_RULES

# libyaml's loader when PyYAML was built with it: the same documents and error
# marks as the pure-Python SafeLoader, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the sections each command needs; its keys are the commands
_REQUIRED_SECTIONS = {
    "validate": ("params",),
    "exact": ("params",),
    "cumulant": ("params",),
    "sweep": ("params", "sweep"),
    "reflectance": ("optics",),
    "fit": ("fit",),
    "g2": ("params",),
}
COMMANDS = tuple(_REQUIRED_SECTIONS)
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class HilbertSection:
    n_max: int = field(default=3, metadata={"min": 1})
    cap: int = field(default=DEFAULT_UNKNOWNS_CAP, metadata={"min": 1})


@dataclass(frozen=True)
class DriveSection:
    v_on: float
    slope_mu: float
    voltage: float


@dataclass(frozen=True)
class SweepSection:
    n_values: tuple[int, ...]
    drive_rule: str = field(metadata={"choices": DRIVE_RULES})
    gamma_r: float


@dataclass(frozen=True)
class OpticsSection:
    e_c0: float
    n_eff: float
    delta: float
    g_coll: float
    kappa: float
    gamma_perp: float
    kappa_ext: float | None = None  # defaults to kappa / 2 (critical coupling)
    theta_min: float = 0.0
    theta_max: float = 64.0
    n_theta: int = field(default=65, metadata={"min": 1})
    e_min: float | None = None      # defaults to delta - 500
    e_max: float | None = None      # defaults to delta + 500
    n_energy: int = field(default=201, metadata={"min": 1})


@dataclass(frozen=True)
class FitSection:
    points: tuple[tuple[float, float], ...] = field(metadata={"names": ("n", "ratio")})
    noise_sigma: float = field(default=0.0, metadata={"min": 0.0})


@dataclass(frozen=True)
class RunConfig:
    command: str = field(metadata={"choices": COMMANDS})
    output_dir: str = "."
    format: str = field(default="csv", metadata={"choices": FORMATS})
    seed: int = field(default=0, metadata={"min": 0})
    params: SystemParams | None = None
    hilbert: HilbertSection | None = None
    drive: DriveSection | None = None
    sweep: SweepSection | None = None
    optics: OpticsSection | None = None
    fit: FitSection | None = None

    def effective_params(self) -> SystemParams:
        """System parameters with the drive section (if any) applied to omega."""
        if self.params is None:
            raise MissingSection("params")
        if self.drive is None:
            return self.params
        omega = omega_of_voltage(DriveMap(self.drive.v_on, self.drive.slope_mu),
                                 self.drive.voltage)
        return replace(self.params, omega=omega)


_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _build(cls, value, path: str):
    """An instance of the dataclass cls from a mapping; every key must be a field."""
    if not isinstance(value, dict):
        raise TypeMismatch(path or "<document root>", "a mapping", value)
    prefix = f"{path}." if path else ""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in value:
        if key not in names:
            raise UnknownKey(f"{prefix}{key}")
    hints, kwargs = _hints(cls), {}
    for f in fields:
        if f.name in value:
            kwargs[f.name] = _convert(value[f.name], hints[f.name], prefix + f.name, f.metadata)
        elif f.default is dataclasses.MISSING:
            raise MissingSection(prefix + f.name)
    return cls(**kwargs)


def _convert(value, hint, path: str, meta):
    """value checked against the type hint and the field metadata."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # X | None marks an optional key; a key that is present must hold an X
        (hint,) = [a for a in args if a is not type(None)]
        return _convert(value, hint, path, meta)
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            if not isinstance(value, list) or not value:
                raise TypeMismatch(path, "a non-empty list", value)
            return tuple(_convert(v, args[0], f"{path}[]", meta) for v in value)
        if not isinstance(value, list) or len(value) != len(args):
            raise TypeMismatch(path, f"a list of {len(args)} entries", value)
        names = meta.get("names", range(len(args)))
        return tuple(_convert(v, a, f"{path}.{n}", {})
                     for v, a, n in zip(value, args, names))
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeMismatch(path, _EXPECTED[hint], value)
    value = hint(value)
    if "choices" in meta and value not in meta["choices"]:
        raise TypeMismatch(path, f"one of {meta['choices']}", value)
    if "min" in meta and value < meta["min"]:
        raise TypeMismatch(path, f"a value >= {meta['min']}", value)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML configuration document into a RunConfig."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        problem = getattr(e, "problem", str(e))
        if mark is not None:
            raise ConfigSyntaxError(str(problem), mark.line + 1, mark.column + 1) from e
        raise ConfigSyntaxError(str(problem)) from e
    if doc is None:
        raise MissingSection("command")
    config = _build(RunConfig, doc, "")
    for section in _REQUIRED_SECTIONS[config.command]:
        if getattr(config, section) is None:
            raise MissingSection(section)
    return config


def _to_plain(value):
    """Dataclasses as dicts without their None fields, tuples as lists."""
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: _to_plain(v) for name, v in items if v is not None}
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def serialize_config(config: RunConfig) -> str:
    """Inverse of parse_config: parse_config(serialize_config(c)) == c."""
    return yaml.safe_dump(_to_plain(config), sort_keys=True)
