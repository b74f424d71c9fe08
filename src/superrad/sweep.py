"""Concentration-scaling harness: cavity vs no-cavity luminance over emitter count.

Sweeps the emitter number with the pump either scaled proportionally to N or
held fixed, computes the cavity photon flux from the cumulant solver and an
extensive free-space control, and fits the enhancement exponent alpha of
ratio ~ N^alpha by least squares in log-log space.

A sweep point and the fit run on Python floats: on a dozen numbers the cost
of entering numpy, not the arithmetic, would dominate, so this module does
not import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cumulant import photon_flux_cumulant
from .errors import (
    DegenerateRates,
    InsufficientPoints,
    InvalidValue,
    NoConvergence,
    NonPositiveValue,
)
from .params import (
    FLOAT_MAX,
    SystemParams,
    checked_emitter_count,
    count_past_float_range,
    is_integer,
)

DRIVE_RULES = ("scaled", "fixed")


def check_sweep(n_values: tuple[int, ...], drive_rule: str, gamma_r: float) -> None:
    """Raise InvalidValue unless a sweep's own fields are valid; its base params are not read.

    n_values must be a non-empty, strictly increasing run of integers from 1
    to FLOAT_MAX, drive_rule one of DRIVE_RULES and gamma_r finite and > 0.
    SweepSpec and the config's sweep section both check their fields here.
    """
    if drive_rule not in DRIVE_RULES:
        raise InvalidValue(f"drive_rule must be one of {DRIVE_RULES}")
    if len(n_values) == 0:
        raise InvalidValue("n_values must be non-empty")
    for n in n_values:
        if not is_integer(n):
            raise InvalidValue(f"n_values must be integers, got {n!r}")
    for n in n_values:
        if n < 1:
            raise InvalidValue("all n_values must be >= 1")
    previous = 0
    for n in n_values:
        if n <= previous:
            raise InvalidValue("n_values must be strictly increasing")
        previous = n
    # the run increases, so its last entry is its largest
    if previous > FLOAT_MAX:
        raise InvalidValue(count_past_float_range("n_values", previous))
    if not 0 < gamma_r < math.inf:
        raise InvalidValue(f"gamma_r must be finite and > 0, got {gamma_r!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One concentration sweep; base_params.omega is the per-emitter pump at N=1."""

    n_values: tuple[int, ...]
    drive_rule: str              # "scaled": omega = omega1 * N; "fixed": omega = omega1
    base_params: SystemParams    # n_emitters and omega overridden per point
    gamma_r: float               # free-space radiative rate of the control, meV

    def __post_init__(self):
        check_sweep(self.n_values, self.drive_rule, self.gamma_r)
        if not isinstance(self.base_params, SystemParams):
            raise InvalidValue(f"base_params must be a SystemParams, got {self.base_params!r}")
        if not self.base_params.omega > 0:
            raise InvalidValue("base omega must be > 0")


@dataclass(frozen=True)
class SweepRow:
    n: int
    omega: float       # meV
    l_cavity: float    # kappa <a'a>, meV
    l_control: float   # meV
    ratio: float


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float       # exponent
    prefactor: float
    rmsd: float        # RMS of natural-log residuals


def control_luminance(n: int, omega: float, gamma_r: float, gamma_minus: float) -> float:
    """Flux of n independent pumped two-level emitters radiating at gamma_r.

    Each emitter holds excited population omega / (omega + gamma_minus + gamma_r)
    and radiates it at gamma_r; the total is extensive in n.
    """
    checked_emitter_count(n)
    if not (0 <= omega < math.inf and 0 <= gamma_r < math.inf and 0 <= gamma_minus < math.inf):
        raise InvalidValue(f"rates must be finite and >= 0, got {omega, gamma_r, gamma_minus}")
    denom = omega + gamma_minus + gamma_r
    if denom == 0:
        raise DegenerateRates("omega + gamma_minus + gamma_r must be > 0")
    return n * gamma_r * omega / denom


def run_concentration_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One SweepRow per emitter count, in increasing n order (deterministic)."""
    base = spec.base_params
    rows = []
    for n in spec.n_values:
        omega = base.omega * (n if spec.drive_rule == "scaled" else 1)
        point = SystemParams(int(n), base.delta, base.delta_c, base.g, base.kappa, float(omega),
                             base.gamma_minus, base.gamma_z)
        try:
            l_cav = photon_flux_cumulant(point)
        except NoConvergence as e:
            raise NoConvergence(f"sweep point n={n} did not converge: {e}") from e
        l_ctrl = control_luminance(int(n), omega, spec.gamma_r, base.gamma_minus)
        rows.append(
            SweepRow(
                n=int(n),
                omega=float(omega),
                l_cavity=float(l_cav),
                l_control=float(l_ctrl),
                ratio=float(l_cav / l_ctrl),
            )
        )
    return rows


def fit_power_law(points) -> PowerLawFit:
    """Least-squares line ln ratio = ln prefactor + alpha ln n, in closed form.

    points: iterable of (n, ratio) pairs, each finite and strictly positive.
    With x = ln n and y = ln ratio, and dx, dy their offsets from the means,
    alpha = sum(dx dy) / sum(dx^2), ln prefactor = mean(y) - alpha mean(x) and
    rmsd = sqrt(mean((dy - alpha dx)^2)).  Centering first keeps sum(dx^2)
    free of the cancellation in sum(x^2) - len * mean(x)^2.

    Raises InsufficientPoints for fewer than two distinct n (sum(dx^2) = 0,
    where the slope is undefined), InvalidValue for a non-finite n or ratio
    or a prefactor past the float range, and NonPositiveValue for an n or a
    ratio <= 0.
    """
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 2:
        raise InsufficientPoints(f"power-law fit needs >= 2 points, got {len(pts)}")
    bad = [pt for pt in pts if not all(map(math.isfinite, pt))]
    if bad:
        raise InvalidValue(f"power-law fit needs finite n and ratio, got {bad[0]}")
    if any(n <= 0 or r <= 0 for n, r in pts):
        raise NonPositiveValue("power-law fit needs strictly positive n and ratio")
    log_n = [math.log(n) for n, _ in pts]
    log_r = [math.log(r) for _, r in pts]
    # compared before centering: a rounded mean can leave dx of one ulp at equal n
    if min(log_n) == max(log_n):
        raise InsufficientPoints(f"power-law fit needs >= 2 distinct n, got only n = {pts[0][0]}")
    mean_x, mean_y = math.fsum(log_n) / len(pts), math.fsum(log_r) / len(pts)
    dx = [x - mean_x for x in log_n]
    dy = [y - mean_y for y in log_r]
    slope = math.fsum(u * v for u, v in zip(dx, dy)) / math.fsum(u * u for u in dx)
    rmsd = math.sqrt(math.fsum((v - slope * u) ** 2 for u, v in zip(dx, dy)) / len(pts))
    intercept = mean_y - slope * mean_x
    try:
        prefactor = math.exp(intercept)
    except OverflowError:
        raise InvalidValue(
            f"power-law prefactor exp({intercept:.6g}) is past the float range"
        ) from None
    return PowerLawFit(alpha=slope, prefactor=prefactor, rmsd=rmsd)
