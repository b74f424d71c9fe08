"""Concentration-scaling harness: cavity vs no-cavity luminance over emitter count.

Sweeps the emitter number with the pump either scaled proportionally to N or
held fixed, computes the cavity photon flux from the cumulant solver and an
extensive free-space control, and fits the enhancement exponent alpha of
ratio ~ N^alpha by least squares in log-log space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cumulant import photon_flux_cumulant
from .errors import (
    DegenerateRates,
    InsufficientPoints,
    InvalidValue,
    NoConvergence,
    NonPositiveValue,
)
from .params import SystemParams, validate_params

DRIVE_RULES = ("scaled", "fixed")


@dataclass(frozen=True)
class SweepSpec:
    """One concentration sweep; base_params.omega is the per-emitter pump at N=1."""

    n_values: tuple[int, ...]
    drive_rule: str              # "scaled": omega = omega1 * N; "fixed": omega = omega1
    base_params: SystemParams    # n_emitters and omega overridden per point
    gamma_r: float               # free-space radiative rate of the control, meV

    def __post_init__(self):
        if self.drive_rule not in DRIVE_RULES:
            raise InvalidValue(f"drive_rule must be one of {DRIVE_RULES}")
        if len(self.n_values) == 0:
            raise InvalidValue("n_values must be non-empty")
        if any(n < 1 for n in self.n_values):
            raise InvalidValue("all n_values must be >= 1")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise InvalidValue("n_values must be strictly increasing")
        if not self.base_params.omega > 0:
            raise InvalidValue("base omega must be > 0")
        if not self.gamma_r > 0:
            raise InvalidValue("gamma_r must be > 0")


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
    if omega < 0 or gamma_r < 0 or gamma_minus < 0:
        raise InvalidValue("rates must be >= 0")
    denom = omega + gamma_minus + gamma_r
    if denom == 0:
        raise DegenerateRates("omega + gamma_minus + gamma_r must be > 0")
    return n * gamma_r * omega / denom


def run_concentration_sweep(spec: SweepSpec, tol: float = 1e-10) -> list[SweepRow]:
    """One SweepRow per emitter count, in increasing n order (deterministic)."""
    validate_params(spec.base_params)
    rows = []
    for n in spec.n_values:
        omega = spec.base_params.omega * (n if spec.drive_rule == "scaled" else 1)
        point = replace(spec.base_params, n_emitters=int(n), omega=float(omega))
        try:
            l_cav = photon_flux_cumulant(point, tol=tol)
        except NoConvergence as e:
            raise NoConvergence(f"sweep point n={n} did not converge: {e}") from e
        l_ctrl = control_luminance(int(n), omega, spec.gamma_r, spec.base_params.gamma_minus)
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
    """Least-squares line in (ln n, ln ratio); alpha is the slope.

    points: iterable of (n, ratio) pairs, all strictly positive, >= 2 of them.
    """
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 2:
        raise InsufficientPoints(f"power-law fit needs >= 2 points, got {len(pts)}")
    if any(n <= 0 or r <= 0 for n, r in pts):
        raise NonPositiveValue("power-law fit needs strictly positive n and ratio")
    log_n = np.log([n for n, _ in pts])
    log_r = np.log([r for _, r in pts])
    design = np.column_stack([np.ones_like(log_n), log_n])
    coeffs, *_ = np.linalg.lstsq(design, log_r, rcond=None)
    intercept, slope = coeffs
    residuals = log_r - design @ coeffs
    rmsd = float(np.sqrt(np.mean(residuals**2)))
    return PowerLawFit(alpha=float(slope), prefactor=float(np.exp(intercept)), rmsd=rmsd)


def synth_power_law(
    n_values, alpha: float, prefactor: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Planted power law with multiplicative log-normal noise of ln-std sigma."""
    n_arr = np.asarray(n_values, dtype=float)
    ratios = prefactor * n_arr**alpha
    if sigma > 0:
        ratios = ratios * np.exp(rng.normal(0.0, sigma, size=n_arr.shape))
    return ratios
