"""Physical parameter records shared by all solvers.

The model is N identical two-level emitters coupled with equal strength g
to one cavity mode (energies delta, delta_c), pumped incoherently at rate
omega, relaxing at gamma_minus and dephasing at gamma_z, with cavity loss
kappa.  All energies and rates are in meV (hbar = 1, see units.py).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidValue, NegativeRate, NonPositiveEnergy, ZeroEmitters


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set of the driven-dissipative Tavis-Cummings model.

    Each record checks itself by validate_params when made, by replace too.
    """

    n_emitters: int
    delta: float        # emitter transition energy, meV
    delta_c: float      # cavity mode energy at normal incidence, meV
    g: float            # per-emitter light-matter coupling, meV
    kappa: float        # cavity photon loss rate, meV
    omega: float        # incoherent pump rate per emitter, meV
    gamma_minus: float  # non-radiative relaxation rate, meV
    gamma_z: float      # pure dephasing rate, meV

    def __post_init__(self):
        validate_params(self)

    @property
    def detuning(self) -> float:
        """Cavity-emitter detuning delta_c - delta, meV."""
        return self.delta_c - self.delta


# the largest finite float: an emitter count above it does not convert to a float
FLOAT_MAX = sys.float_info.max


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is not an emitter count."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def validate_params(p: SystemParams) -> SystemParams:
    """Check every invariant of a parameter record.

    SystemParams runs it on every record it makes.  Returns the same record
    when valid.  Raises an error naming every violated invariant; when
    exactly one invariant fails the specific exception class (NegativeRate,
    ZeroEmitters, NonPositiveEnergy) is raised so callers can branch on it.
    n_emitters must be an int or a numpy integer, not a bool, as in
    exact.HilbertConfig, and at most FLOAT_MAX, so that it converts to a
    float; every other field must be finite.

    It decides first and diagnoses after: one chained comparison accepts a
    valid record with an int count, and only a record it does not accept
    (an invalid one, or one whose count is a numpy integer) goes through
    the field-by-field diagnosis, which builds the error or accepts it.
    """
    n = p.n_emitters
    if (
        type(n) is int and 1 <= n <= FLOAT_MAX
        and 0 < p.delta <= FLOAT_MAX and 0 < p.delta_c <= FLOAT_MAX
        and 0 <= p.g <= FLOAT_MAX and 0 <= p.kappa <= FLOAT_MAX and 0 <= p.omega <= FLOAT_MAX
        and 0 <= p.gamma_minus <= FLOAT_MAX and 0 <= p.gamma_z <= FLOAT_MAX
    ):
        return p
    problems: list[InvalidParams] = []
    if not is_integer(n):
        problems.append(InvalidParams([f"'n_emitters' must be an integer, got {n!r}"]))
    elif n < 1:
        problems.append(ZeroEmitters())
    elif n > FLOAT_MAX:
        problems.append(InvalidParams([count_past_float_range("'n_emitters'", n)]))
    for field in ("delta", "delta_c"):
        if not getattr(p, field) > 0:
            problems.append(NonPositiveEnergy(field))
    for field in ("g", "kappa", "omega", "gamma_minus", "gamma_z"):
        if getattr(p, field) < 0:
            problems.append(NegativeRate(field))
    for field in ("delta", "delta_c", "g", "kappa", "omega", "gamma_minus", "gamma_z"):
        # a comparison, not math.isfinite, which raises OverflowError on an int past the float range
        if not -FLOAT_MAX <= getattr(p, field) <= FLOAT_MAX:
            problems.append(InvalidParams([f"'{field}' must be finite"]))
    if not problems:
        return p
    if len(problems) == 1:
        raise problems[0]
    raise InvalidParams(v for e in problems for v in e.violations)


def count_past_float_range(name: str, n: int) -> str:
    """The refusal of a count n > FLOAT_MAX, sized in bits: str(n) is refused past 4300 digits."""
    return f"{name} must be at most {FLOAT_MAX!r}, got an integer of {n.bit_length()} bits"


@dataclass(frozen=True)
class DriveMap:
    """Affine-clamped voltage-to-pump-rate map: omega = slope_mu * max(0, V - v_on)."""

    v_on: float      # onset voltage, V
    slope_mu: float  # pump rate per volt above onset, meV/V

    def __post_init__(self):
        if not (math.isfinite(self.v_on) and math.isfinite(self.slope_mu)):
            raise InvalidValue(f"drive onset and slope must be finite, got {self}")
        if self.slope_mu < 0:
            raise NegativeRate("slope_mu")


def omega_of_voltage(d: DriveMap, v: float) -> float:
    """Pump rate in meV at applied voltage v; clamped to 0 below onset."""
    if not math.isfinite(v):
        raise InvalidValue("voltage must be finite")
    return d.slope_mu * max(0.0, v - d.v_on)


def checked_emitter_count(n: int) -> int:
    """n, if it is an integer from 1 to FLOAT_MAX; InvalidValue or ZeroEmitters otherwise."""
    if not is_integer(n):
        raise InvalidValue(f"emitter count must be an integer, got {n!r}")
    if n < 1:
        raise ZeroEmitters()
    if n > FLOAT_MAX:
        raise InvalidValue(count_past_float_range("emitter count", n))
    return n


def _checked_coupling(g: float, name: str) -> float:
    """g, if it is finite and >= 0; InvalidValue or NegativeRate otherwise."""
    if not math.isfinite(g):
        raise InvalidValue(f"'{name}' must be finite, got {g!r}")
    if g < 0:
        raise NegativeRate(name)
    return g


def collective_coupling(g_single: float, n: int) -> float:
    """Collective coupling g * sqrt(n) of n identical emitters."""
    return _checked_coupling(g_single, "g_single") * math.sqrt(checked_emitter_count(n))


def per_emitter_coupling(g_collective: float, n: int) -> float:
    """Invert collective_coupling: the single-emitter g giving g_collective at count n."""
    return _checked_coupling(g_collective, "g_collective") / math.sqrt(checked_emitter_count(n))
