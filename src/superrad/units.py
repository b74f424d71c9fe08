"""Unit conventions.

Everything in the toolkit uses hbar = 1 with energies and rates in meV.
One time unit is then hbar / (1 meV) ~ 0.6582 ps.  Wavelengths convert via
E[meV] = MEV_NM / lambda[nm].
"""

import math

from .errors import InvalidValue

# hbar in meV * ps; equivalently the duration of one time unit in ps.
TIME_UNIT_PS = 0.6582119569

# h*c in meV * nm, fixed so that E[meV] = MEV_NM / lambda[nm].
MEV_NM = 1_239_842.0


def energy_mev_from_nm(wavelength_nm: float) -> float:
    """Photon energy in meV for a vacuum wavelength in nm."""
    if not 0 < wavelength_nm < math.inf:
        raise InvalidValue(f"wavelength must be finite and > 0, got {wavelength_nm!r}")
    return MEV_NM / wavelength_nm


def fwhm_mev_from_nm(center_nm: float, fwhm_nm: float) -> float:
    """Convert a spectral FWHM in nm at a given center wavelength to meV.

    Uses the first-order relation dE = MEV_NM * d_lambda / lambda^2.
    """
    if not 0 < center_nm < math.inf:
        raise InvalidValue(f"center wavelength must be finite and > 0, got {center_nm!r}")
    if not 0 <= fwhm_nm < math.inf:
        raise InvalidValue(f"spectral width must be finite and >= 0, got {fwhm_nm!r}")
    return MEV_NM * fwhm_nm / center_nm**2
