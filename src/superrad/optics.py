"""Coupled-oscillator cavity optics.

Angle-dependent planar-cavity dispersion, polariton eigenmodes of the 2x2
non-Hermitian cavity-emitter matrix, single-port input-output reflectance,
cavity-filtered emission lineshape, and the coherence-length estimate
L_coh = lambda^2 / d_lambda.  The splitting minimum and the emission peak and
FWHM are closed forms (a resonant angle, polynomial roots), not searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AngleOutOfRange, InvalidValue, PeakNotFound, ZeroLinewidth
from .sweep import fit_power_law


@dataclass(frozen=True)
class OpticalParams:
    """Coupled-oscillator model inputs; linewidths are FWHM in meV."""

    e_c0: float        # cavity mode energy at normal incidence, meV
    n_eff: float       # effective intracavity refractive index
    delta: float       # emitter transition energy, meV
    g_coll: float      # collective coupling g * sqrt(N), meV
    kappa: float       # total cavity linewidth, meV
    kappa_ext: float   # external (mirror) coupling linewidth, meV
    gamma_perp: float  # emitter homogeneous linewidth, meV

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidValue(f"'{f.name}' must be finite")
        if not self.n_eff > 1:
            raise InvalidValue("n_eff must be > 1")
        if not (0 <= self.kappa_ext <= self.kappa):
            raise InvalidValue("kappa_ext must lie in [0, kappa]")
        if self.kappa < 0 or self.gamma_perp < 0 or self.g_coll < 0:
            raise InvalidValue("linewidths and coupling must be >= 0")
        if self.e_c0 <= 0 or self.delta <= 0:
            raise InvalidValue("energies must be > 0")


def cavity_dispersion(p: OpticalParams, theta_deg: float | np.ndarray) -> float | np.ndarray:
    """Planar-cavity mode energy e_c0 / sqrt(1 - sin^2(theta)/n_eff^2), meV.

    theta_deg may be a scalar or an array of angles; the result has its shape.
    """
    theta = np.asarray(theta_deg, dtype=float)
    if not np.all((theta >= 0) & (theta < 90)):
        raise AngleOutOfRange(f"theta = {theta_deg} deg outside [0, 90)")
    sin_t = np.sin(np.radians(theta))
    return p.e_c0 / np.sqrt(1.0 - (sin_t / p.n_eff) ** 2)


def _branches(p: OpticalParams, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper polariton eigenvalues at each angle, as complex arrays."""
    e_c = cavity_dispersion(p, thetas) - 0.5j * p.kappa
    e_x = p.delta - 0.5j * p.gamma_perp
    half_sum = 0.5 * (e_c + e_x)
    root = np.sqrt((0.5 * (e_c - e_x)) ** 2 + p.g_coll**2 + 0j)
    lo, hi = half_sum - root, half_sum + root
    swap = lo.real > hi.real
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def polariton_eigenmodes(p: OpticalParams, theta_deg: float) -> tuple[complex, complex]:
    """Eigenvalues of [[E_c(theta) - i kappa/2, g], [g, delta - i gamma_perp/2]].

    Returned sorted by real part (lower polariton first).  At resonance the
    real-part splitting is 2*sqrt(g^2 - (kappa - gamma_perp)^2/16) when the
    radicand is positive and 0 otherwise.
    """
    lo, hi = _branches(p, theta_deg)
    return complex(lo), complex(hi)


def _reflectance(p: OpticalParams, thetas, energies: np.ndarray) -> np.ndarray:
    """R (see reflectance_spectrum) with one row per angle; the grid is the only
    grid-sized array, filled by in-place passes."""
    if not np.all(np.isfinite(energies)):
        raise InvalidValue("energies must be finite")
    e_c = cavity_dispersion(p, thetas)
    re_em = im_em = 0.0
    if p.g_coll != 0:
        # gamma_perp = 0 puts a pole at E = delta, and a gamma_perp near 0 an overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            em = p.g_coll**2 / (0.5 * p.gamma_perp - 1j * (energies - p.delta))
        if not np.all(np.isfinite(em)):
            raise ZeroLinewidth(
                f"gamma_perp = {p.gamma_perp} meV: the emitter term g^2 / (gamma_perp/2 - "
                f"i(E - delta)) is not finite on the energy grid at E = delta = {p.delta} meV"
            )
        re_em, im_em = em.real, em.imag
    # x - kappa_ext and 2x - kappa_ext without cancelling kappa/2 against kappa_ext
    shifted = (0.5 * p.kappa - p.kappa_ext) + re_em
    k = p.kappa_ext * ((p.kappa - p.kappa_ext) + 2.0 * re_em)
    # E_c - E is exact for E_c/2 <= E <= 2 E_c, so t is rounded once where it
    # cancels at a dip; Im em - E would round at the scale of E first
    refl = np.subtract.outer(np.atleast_1d(e_c), energies)
    refl += im_em
    np.square(refl, out=refl)
    refl += shifted**2
    # k / 0 = inf gives R = 0 at an exact zero; 0 / 0 (a lossless bare cavity
    # on its mode) stays NaN and is refused below
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(k, refl, out=refl)
    refl += 1.0
    np.reciprocal(refl, out=refl)
    # the one range check of the grid: only a NaN cell can fail it
    if not (refl.min(initial=0.0) >= 0.0 and refl.max(initial=1.0) <= 1.0):
        raise InvalidValue("reflectance left [0, 1]: 0/0 at a lossless bare cavity's mode")
    return refl


def reflectance_spectrum(p: OpticalParams, theta_deg: float, energies) -> np.ndarray:
    """Single-port reflectance R(E) = |1 - kappa_ext / D(E)|^2 at one angle.

    D(E) = kappa/2 - i(E - E_c(theta)) + g^2 / (gamma_perp/2 - i(E - delta))
    = x + i t, with x = kappa/2 + Re em and t = E_c(theta) - E + Im em for the
    emitter term em.  R is evaluated in real arithmetic as
    1 / (1 + k / ((x - kappa_ext)^2 + t^2)), k = kappa_ext (2x - kappa_ext).
    Re em >= 0 and kappa_ext <= kappa give k >= 0, so R lies in [0, 1] in
    floating point, not only in exact arithmetic, and a dip keeps its relative
    accuracy.  gamma_perp = 0 with g != 0 and an energy at delta (the emitter
    term's pole) raises ZeroLinewidth; 0/0 (a lossless bare cavity on its mode)
    raises InvalidValue.  Returns the row compute_reflectance_map gives at theta.
    """
    return _reflectance(p, theta_deg, np.asarray(energies, dtype=float))[0]


@dataclass(frozen=True)
class ReflectanceMap:
    """Angle x energy reflectance grid with polariton branch overlays."""

    thetas: np.ndarray      # degrees
    energies: np.ndarray    # meV
    r_values: np.ndarray    # shape (n_theta, n_energy), in [0, 1]
    lp_branch: np.ndarray   # complex eigenvalues per angle, meV
    up_branch: np.ndarray

    def validate(self) -> "ReflectanceMap":
        if self.r_values.shape != (len(self.thetas), len(self.energies)):
            raise InvalidValue("r_values shape does not match the grid")
        if len(self.lp_branch) != len(self.thetas) or len(self.up_branch) != len(self.thetas):
            raise InvalidValue("branch arrays must have one entry per angle")
        if np.any(self.lp_branch.real > self.up_branch.real + 1e-12):
            raise InvalidValue("LP branch must lie below UP branch")
        return self


def compute_reflectance_map(p: OpticalParams, thetas, energies) -> ReflectanceMap:
    """Evaluate the reflectance model over an angle x energy grid.

    R is reflectance_spectrum's real form, in [0, 1] by construction, over
    the whole grid in one broadcast: the emitter term and the other
    energy-only factors are computed once, and the range is checked once.
    """
    thetas = np.asarray(thetas, dtype=float)
    energies = np.asarray(energies, dtype=float)
    r_values = _reflectance(p, thetas, energies)
    lp, up = _branches(p, thetas)
    return ReflectanceMap(
        thetas=thetas, energies=energies, r_values=r_values, lp_branch=lp, up_branch=up
    ).validate()


def minimum_branch_splitting(p: OpticalParams, theta_max_deg: float = 64.0) -> float:
    """Smallest real-part LP/UP separation over [0, theta_max] degrees.

    The separation 2 Re sqrt((D/2 - i(kappa - gamma_perp)/4)^2 + g^2) grows
    with D^2, D = E_c(theta) - delta, and E_c grows with theta, so the minimum
    lies at the resonant angle sin(theta) = n_eff sqrt(1 - (e_c0/delta)^2),
    clipped to [0, theta_max].
    """
    if not 0.0 <= theta_max_deg < 90.0:
        raise AngleOutOfRange(f"theta_max = {theta_max_deg} deg outside [0, 90)")
    sin_res = p.n_eff * math.sqrt(max(0.0, 1.0 - (p.e_c0 / p.delta) ** 2))
    theta = min(math.degrees(math.asin(min(sin_res, 1.0))), theta_max_deg)
    lo, hi = _branches(p, theta)
    return float(hi.real - lo.real)


def emission_fwhm(p: OpticalParams, theta_deg: float) -> tuple[float, float]:
    """Peak position and FWHM of the cavity-filtered emission lineshape.

    The model is the product of the emitter Lorentzian (delta, gamma_perp) and
    the cavity filter Lorentzian (E_c(theta), kappa).  Its reciprocal is the
    quartic P(x) = (x^2 + a^2)((x - c)^2 + b^2) in x = (E - delta)/w, with
    w = kappa + gamma_perp, a = gamma_perp/2w, b = kappa/2w and
    c = (E_c - delta)/w.  The peak is the root of P' with the smallest P, so a
    double-peaked line reports its highest peak.  The FWHM runs between the
    real roots of P - 2 P(peak) nearest the peak on either side: a dip below
    half maximum ends the width at the highest peak's own crossings.
    """
    if p.gamma_perp <= 0 or p.kappa <= 0:
        raise ZeroLinewidth("emission model needs gamma_perp > 0 and kappa > 0")
    e_c = cavity_dispersion(p, theta_deg)
    widths = p.kappa + p.gamma_perp
    separation = abs(e_c - p.delta)
    if separation > 10.0 * widths:
        raise PeakNotFound(
            f"cavity filter at {e_c:.1f} meV and emitter at {p.delta:.1f} meV are "
            f"separated by {separation:.1f} meV >> combined widths {widths:.1f} meV"
        )
    a, b, c = 0.5 * p.gamma_perp / widths, 0.5 * p.kappa / widths, (e_c - p.delta) / widths

    def quartic(x0):  # coefficients of P(x0 + y) in y
        return np.convolve([1.0, 2.0 * x0, x0**2 + a**2],
                           [1.0, 2.0 * (x0 - c), (x0 - c) ** 2 + b**2])

    poly = quartic(0.0)
    # P at the real part of a complex root of P' is still >= min P
    stationary = np.roots(np.polyder(poly)).real
    x_peak = stationary[np.argmin(np.polyval(poly, stationary))]
    # about the peak the crossings are small roots that keep their relative
    # accuracy when one line is far narrower (about x = 0 they lose up to 1e-3
    # at kappa/gamma_perp = 1e-6); P(peak) is the constant term, which P - 2 P(peak) negates
    half = quartic(x_peak)
    half[-1] = -half[-1]
    roots = np.roots(half)
    # a real quartic's real roots come back with imaginary part exactly 0
    offsets = roots[roots.imag == 0].real
    width = offsets[offsets > 0].min() - offsets[offsets < 0].max()
    return float(p.delta + x_peak * widths), float(width * widths)


def coherence_length(lambda_nm: float, delta_lambda_nm: float) -> float:
    """Coherence length lambda^2 / d_lambda, returned in micrometres."""
    if lambda_nm <= 0:
        raise InvalidValue("wavelength must be > 0")
    if delta_lambda_nm <= 0:
        raise ZeroLinewidth("spectral width must be > 0")
    return lambda_nm**2 / delta_lambda_nm / 1000.0


def fit_coupling_scaling(points) -> float:
    """Log-log slope of collective coupling vs emitter count (0.5 for sqrt-N)."""
    return fit_power_law(points).alpha
