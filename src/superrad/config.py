"""Strict YAML configuration schema for the command-line front end.

The dataclasses below are the schema.  One walker builds them from a parsed
document through their fields and type hints, and one serializer turns them
back into plain data; enumerated and bounded values carry their constraint in
the field metadata ("choices", "min").  Unknown keys are hard errors at every
nesting level: silent typos in physics parameters are the costliest bug
class, so nothing is ignored.  parse_config and serialize_config round-trip
exactly.  A record holds the values its run uses, set when it is made: a
`drive` section sets `params.omega` to the pump at its voltage, and `optics`
fills in the `kappa_ext`, `e_min` and `e_max` that the document leaves out.
Every section is checked when the record is made, whichever command reads
it: `optics` as the `OpticalParams` it gives, and `sweep` by its own fields
and, with `params`, as the `SweepSpec` they give, which adds only that the
base omega is > 0.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import types
import typing
from dataclasses import dataclass, field, replace

import yaml

from .errors import ConfigSyntaxError, MissingSection, TypeMismatch, UnknownKey
from .exact import DEFAULT_UNKNOWNS_CAP
from .optics import OpticalParams
from .params import DriveMap, SystemParams, omega_of_voltage
from .sweep import DRIVE_RULES, SweepSpec, check_sweep

# libyaml's loader when PyYAML was built with it: the same documents and error
# marks as the pure-Python SafeLoader, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


@functools.cache
def _exponent_float_loader(loader):
    """A private subclass of loader that also reads YAML 1.2's exponent floats.

    YAML 1.1 reads a number with an exponent as a float only with a dot and
    a signed exponent (1.0e-3), and 1e-3, 5E+2 or 1.0e308 as a string.  The
    resolver is the subclass's own, so PyYAML's loaders are left as they are.
    """
    class Loader(loader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return Loader


# the sections each command needs; its keys are the commands
_REQUIRED_SECTIONS = {
    "validate": ("params",),
    "exact": ("params",),
    "cumulant": ("params",),
    "sweep": ("params", "sweep"),
    "reflectance": ("optics",),
    "fit": ("fit",),
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

    def __post_init__(self):
        check_sweep(self.n_values, self.drive_rule, self.gamma_r)  # with or without params


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

    def __post_init__(self):
        for name, value in (("kappa_ext", self.kappa / 2), ("e_min", self.delta - 500.0),
                            ("e_max", self.delta + 500.0)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)

    def optical_params(self) -> OpticalParams:
        """The model inputs of the section, which OpticalParams checks."""
        return OpticalParams(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(OpticalParams)})


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

    def __post_init__(self):
        # the drive is checked with or without params; it sets the omega they run at
        if self.drive is not None:
            omega = omega_of_voltage(DriveMap(self.drive.v_on, self.drive.slope_mu),
                                     self.drive.voltage)
            if self.params is not None:
                object.__setattr__(self, "params", replace(self.params, omega=omega))
        # a section is checked whichever command reads it; a sweep section
        # checks its own fields, and its base omega with params
        if self.optics is not None:
            self.optics.optical_params()
        if self.sweep is not None and self.params is not None:
            self.sweep_spec()

    def sweep_spec(self) -> SweepSpec:
        """The concentration sweep of the sweep section from params, which SweepSpec checks."""
        s = self.sweep
        return SweepSpec(n_values=s.n_values, drive_rule=s.drive_rule, base_params=self.params,
                         gamma_r=s.gamma_r)


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
    try:
        value = hint(value)
    except OverflowError:  # an int literal past the float range
        raise TypeMismatch(path, "a number within the float range", value) from None
    if "choices" in meta and value not in meta["choices"]:
        raise TypeMismatch(path, f"one of {meta['choices']}", value)
    if "min" in meta and value < meta["min"]:
        raise TypeMismatch(path, f"a value >= {meta['min']}", value)
    return value


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML configuration document into a RunConfig.

    Each key of overrides replaces the document's top-level key of that name
    before the walk, so the schema checks it as it checks the document.
    """
    try:
        doc = yaml.load(text, Loader=_exponent_float_loader(_YAML_LOADER))
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        problem = getattr(e, "problem", str(e))
        if mark is not None:
            raise ConfigSyntaxError(str(problem), mark.line + 1, mark.column + 1) from e
        raise ConfigSyntaxError(str(problem)) from e
    except ValueError as e:  # an int literal past Python's digit limit for int()
        raise ConfigSyntaxError(str(e)) from e
    if doc is None:
        raise MissingSection("command")
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
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
