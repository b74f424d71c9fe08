"""Coupled-oscillator cavity optics.

Angle-dependent planar-cavity dispersion, polariton eigenmodes of the 2x2
non-Hermitian cavity-emitter matrix, single-port input-output reflectance,
cavity-filtered emission lineshape, and the coherence-length estimate
L_coh = lambda^2 / d_lambda.  The splitting minimum is a closed form (the
resonant angle), and the emission peak and FWHM come from two small
companion-matrix eigenvalue solves (3x3 and 4x4), not searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import AngleOutOfRange, DimensionCap, InvalidValue, PeakNotFound, ZeroLinewidth
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
        if not math.isfinite(self.g_coll * self.g_coll):
            # the reflectance and the branches square g_coll
            raise InvalidValue(f"'g_coll' = {self.g_coll} meV has no finite square")
        if self.e_c0 <= 0 or self.delta <= 0:
            raise InvalidValue("energies must be > 0")
        # sin(theta) <= 1 bounds the root of cavity_dispersion below by this one,
        # and a rounded quotient is monotone, so no angle's mode overflows if it does not
        lowest_root = math.sqrt(1.0 - (1.0 / self.n_eff) * (1.0 / self.n_eff))
        if not math.isfinite(self.e_c0 / lowest_root):
            raise InvalidValue(f"'e_c0' = {self.e_c0} meV at 'n_eff' = {self.n_eff} puts the "
                               f"cavity mode past the float range below 90 deg")


def cavity_dispersion(p: OpticalParams, theta_deg: float | np.ndarray) -> float | np.ndarray:
    """Planar-cavity mode energy e_c0 / sqrt(1 - sin^2(theta)/n_eff^2), meV.

    theta_deg may be a scalar or an array of angles; the result has its shape.
    """
    theta = np.asarray(theta_deg, dtype=float)
    outside = ~((theta >= 0) & (theta < 90))
    if outside.any():
        raise AngleOutOfRange(f"theta = {theta[outside].flat[0]} deg outside [0, 90), "
                              f"{np.count_nonzero(outside)} of {theta.size} angles out of range")
    sin_t = np.sin(np.radians(theta))
    return p.e_c0 / np.sqrt(1.0 - (sin_t / p.n_eff) ** 2)


def _branches(p: OpticalParams, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper polariton eigenvalues at each angle, as complex arrays."""
    e_c = cavity_dispersion(p, thetas) - 0.5j * p.kappa
    e_x = p.delta - 0.5j * p.gamma_perp
    with np.errstate(over="ignore", invalid="ignore"):
        half_sum = 0.5 * (e_c + e_x)
        root = np.sqrt((0.5 * (e_c - e_x)) ** 2 + p.g_coll**2 + 0j)
        lo, hi = half_sum - root, half_sum + root
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        # name the largest input, e_c0 ranked by the highest mode it gives
        sizes = {"e_c0": float(e_c.real.max()), "delta": p.delta, "kappa": p.kappa,
                 "gamma_perp": p.gamma_perp, "g_coll": p.g_coll}
        name = max(sizes, key=sizes.get)
        raise InvalidValue(f"polariton branches leave the float range: '{name}' = "
                           f"{getattr(p, name)} meV")
    swap = lo.real > hi.real
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def polariton_eigenmodes(p: OpticalParams, theta_deg: float) -> tuple[complex, complex]:
    """Eigenvalues of [[E_c(theta) - i kappa/2, g], [g, delta - i gamma_perp/2]].

    Returned sorted by real part (lower polariton first).  At resonance the
    real-part splitting is 2*sqrt(g^2 - (kappa - gamma_perp)^2/16) when the
    radicand is positive and 0 otherwise.  Eigenvalues past the float range
    raise InvalidValue naming the largest input.
    """
    lo, hi = _branches(p, theta_deg)
    return complex(lo), complex(hi)


def _denominator(e_c: np.ndarray, energies: np.ndarray, im_em, shifted_sq) -> np.ndarray:
    """(x - kappa_ext)^2 + t^2 with one row per E_c, filled by in-place passes."""
    # E_c - E is exact for E_c/2 <= E <= 2 E_c, so t is rounded once where it
    # cancels at a dip; Im em - E would round at the scale of E first
    out = np.subtract.outer(e_c, energies)
    out += im_em
    np.square(out, out=out)
    out += shifted_sq
    return out


def _overflow(p: OpticalParams, e_c: np.ndarray, energies: np.ndarray, em) -> InvalidValue:
    """InvalidValue naming the largest of the terms that the reflectance squares."""
    e_lo, e_hi = float(energies.min()), float(energies.max())
    below, above = float(e_c.max()) - e_lo, e_hi - float(e_c.min())
    em_max = float(np.abs(em).max())
    terms = {
        f"'g_coll' = {p.g_coll} meV gives an emitter term of {em_max:.3g} meV": em_max,
        f"the energy {e_hi if above > below else e_lo} meV lies {max(above, below):.3g} meV "
        f"from the cavity mode": max(above, below),
        f"'kappa' = {p.kappa} meV": p.kappa,
    }
    return InvalidValue(f"reflectance leaves the float range: {max(terms, key=terms.get)}")


def _reflectance(p: OpticalParams, thetas, energies: np.ndarray) -> np.ndarray:
    """R (see reflectance_spectrum) with one row per angle; the grid is the only
    grid-sized array, filled by in-place passes."""
    if not np.all(np.isfinite(energies)):
        raise InvalidValue("energies must be finite")
    e_c = np.atleast_1d(cavity_dispersion(p, thetas))
    em = re_em = im_em = 0.0
    if p.g_coll != 0:
        # gamma_perp = 0 puts a pole at E = delta, and a gamma_perp near 0 an overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            detuned = 0.5 * p.gamma_perp - 1j * (energies - p.delta)
            em = p.g_coll**2 / detuned
        if not np.all(np.isfinite(em)):
            # g^2 times 1/|gamma_perp/2 - i(E - delta)| overflowed: the factor
            # farther from 1 is at fault, g_coll or the pole of a vanishing width
            if p.g_coll**2 * float(np.abs(detuned).min()) > 1.0:
                raise InvalidValue(
                    f"reflectance leaves the float range: 'g_coll' = {p.g_coll} meV: the emitter "
                    f"term g^2 / (gamma_perp/2 - i(E - delta)) overflows on the energy grid"
                )
            raise ZeroLinewidth(
                f"gamma_perp = {p.gamma_perp} meV: the emitter term g^2 / (gamma_perp/2 - "
                f"i(E - delta)) is not finite on the energy grid at E = delta = {p.delta} meV"
            )
        re_em, im_em = em.real, em.imag
    # x - kappa_ext and 2x - kappa_ext without cancelling kappa/2 against kappa_ext
    shifted = (0.5 * p.kappa - p.kappa_ext) + re_em
    # kappa_ext = 0 times an overflowed sum is NaN, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        k = p.kappa_ext * ((p.kappa - p.kappa_ext) + 2.0 * re_em)
        shifted_sq = shifted * shifted
        # every rounding step of a cell is monotone in E_c, so the rows of the
        # lowest and the highest E_c bound the grid: it overflows iff they do
        edges = _denominator(e_c[[e_c.argmin(), e_c.argmax()]], energies, im_em, shifted_sq)
    if not (np.isfinite(edges).all() and np.isfinite(k).all()):
        raise _overflow(p, e_c, energies, em)
    refl = _denominator(e_c, energies, im_em, shifted_sq)
    # k / 0 = inf gives R = 0 at an exact zero, and so does k over a subnormal
    # denominator, which overflows; 0 / 0 (a lossless bare cavity on its mode)
    # stays NaN and is refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    raises InvalidValue, and so does a squared term past the float range (a
    g_coll or an energy near 1e154 meV), naming the largest term.  An emitter
    term that overflows blames g_coll when g^2 |gamma_perp/2 - i(E - delta)|
    exceeds 1 on the grid, and the pole (ZeroLinewidth) otherwise.  Returns the
    row compute_reflectance_map gives at theta.
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


def compute_reflectance_map(p: OpticalParams, thetas, energies) -> ReflectanceMap:
    """Evaluate the reflectance model over an angle x energy grid.

    R is reflectance_spectrum's real form, in [0, 1] by construction, over
    the whole grid in one broadcast: the emitter term and the other
    energy-only factors are computed once, and the range is checked once.
    Grids that are not 1-D raise InvalidValue, and a grid that runs out of
    memory raises DimensionCap, naming its shape and bytes.
    """
    thetas = np.asarray(thetas, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if thetas.ndim != 1 or energies.ndim != 1:
        raise InvalidValue(f"grids must be 1-D, got shapes {thetas.shape}, {energies.shape}")
    try:
        r_values = _reflectance(p, thetas, energies)
    except MemoryError as e:
        cells = thetas.size * energies.size
        raise DimensionCap(
            f"the {thetas.size} x {energies.size} reflectance grid of {cells} float64 cells "
            f"({8 * cells} bytes) ran out of memory"
        ) from e
    lp, up = _branches(p, thetas)
    return ReflectanceMap(thetas, energies, r_values, lp, up)


def minimum_branch_splitting(p: OpticalParams, theta_max_deg: float = 64.0) -> float:
    """Smallest real-part LP/UP separation over [0, theta_max] degrees.

    The separation 2 Re sqrt((D/2 - i(kappa - gamma_perp)/4)^2 + g^2) grows
    with D^2, D = E_c(theta) - delta, and E_c grows with theta, so the minimum
    lies at the resonant angle sin(theta) = n_eff sqrt(1 - (e_c0/delta)^2),
    clipped to [0, theta_max].
    """
    if not 0.0 <= theta_max_deg < 90.0:
        raise AngleOutOfRange(f"theta_max = {theta_max_deg} deg outside [0, 90)")
    sin_res = 0.0  # e_c0 >= delta resonates at normal incidence; its ratio's square may overflow
    if p.e_c0 < p.delta:
        sin_res = p.n_eff * math.sqrt(1.0 - (p.e_c0 / p.delta) ** 2)
    theta = min(math.degrees(math.asin(min(sin_res, 1.0))), theta_max_deg)
    lo, hi = _branches(p, theta)
    return float(hi.real - lo.real)


def emission_fwhm(p: OpticalParams, theta_deg: float) -> tuple[float, float]:
    """Peak position and FWHM of the cavity-filtered emission lineshape at one angle.

    The model is the product of the emitter Lorentzian (delta, gamma_perp) and
    the cavity filter Lorentzian (E_c(theta), kappa).  Its reciprocal is the
    quartic P(x) = (x^2 + a^2)((x - c)^2 + b^2) in x = (E - delta)/w, with
    w = kappa + gamma_perp, a = gamma_perp/2w, b = kappa/2w and
    c = (E_c - delta)/w.  Two eigenvalue solves give the result: the 3x3
    companion matrix of P'/4 gives the stationary points, and the one with the
    smallest P is the peak, so a double-peaked line reports its highest peak
    (at c = 0 the peak is x = 0).  The 4x4 companion matrix of
    P(x_peak + y) - 2 P(x_peak) gives the half-maximum crossings, and the FWHM
    runs between the real ones nearest the peak on either side: a dip below
    half maximum ends the width at the highest peak's own crossings.  theta_deg
    that is not one real angle raises InvalidValue, and so does a kappa +
    gamma_perp past the float range; a side without a crossing raises
    PeakNotFound.
    """
    if p.gamma_perp <= 0 or p.kappa <= 0:
        raise ZeroLinewidth("emission model needs gamma_perp > 0 and kappa > 0")
    try:
        theta = np.asarray(theta_deg, dtype=float)
    except (TypeError, ValueError):
        theta = None
    if theta is None or theta.ndim:
        raise InvalidValue(f"theta_deg must be one angle in degrees, got {theta_deg!r:.40}")
    e_c = float(cavity_dispersion(p, theta))
    widths = p.kappa + p.gamma_perp
    if math.isinf(widths):
        raise InvalidValue(f"emission model leaves the float range: 'kappa' + 'gamma_perp' = "
                           f"{p.kappa} + {p.gamma_perp} meV")
    separation = abs(e_c - p.delta)
    if separation > 10.0 * widths:
        raise PeakNotFound(
            f"cavity filter at {e_c:.1f} meV and emitter at {p.delta:.1f} meV are "
            f"separated by {separation:.1f} meV >> combined widths {widths:.1f} meV"
        )
    a, b, c = 0.5 * p.gamma_perp / widths, 0.5 * p.kappa / widths, (e_c - p.delta) / widths

    def quartic(x0):  # P(x0 + y) = y^4 + c3 y^3 + c2 y^2 + c1 y + c0, as (c3, c2, c1, c0)
        p1, p0 = 2.0 * x0, x0 * x0 + a * a
        q1, q0 = 2.0 * (x0 - c), (x0 - c) * (x0 - c) + b * b
        return p1 + q1, p0 + p1 * q1 + q0, p1 * q0 + p0 * q1, p0 * q0

    x_peak = 0.0  # P is even about x = 0 at c = 0 and grows with x^2
    if c != 0.0:
        c3, c2, c1, c0 = quartic(0.0)
        # P'/4 = x^3 + (3/4) c3 x^2 + (1/2) c2 x + c1/4; at c = 0 its constant
        # term is 0, a root the companion matrix would only approximate
        stationary = np.linalg.eigvals(
            [[-0.75 * c3, -0.5 * c2, -0.25 * c1], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ).tolist()
        # P at the real part of a complex root of P' is still >= min P
        x_peak = min((z.real for z in stationary),
                     key=lambda x: (((x + c3) * x + c2) * x + c1) * x + c0)
    # about the peak the crossings are small roots that keep their relative
    # accuracy when one line is far narrower (about x = 0 they lose up to 1e-3
    # at kappa/gamma_perp = 1e-6); P(peak) is the constant term, which P - 2 P(peak) negates
    e3, e2, e1, e0 = quartic(x_peak)
    crossings = np.linalg.eigvals(
        [[-e3, -e2, -e1, e0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    ).tolist()
    # a real matrix's real eigenvalues come back with imaginary part exactly 0
    offsets = [z.real for z in crossings if z.imag == 0]
    above = [y for y in offsets if y > 0]
    below = [y for y in offsets if y < 0]
    peak = p.delta + x_peak * widths
    if not (above and below):
        missing = "below" if above else "above or below" if not below else "above"
        raise PeakNotFound(f"no half-maximum crossing {missing} the emission peak at {peak} meV")
    return peak, (min(above) - max(below)) * widths


def coherence_length(lambda_nm: float, delta_lambda_nm: float) -> float:
    """Coherence length lambda^2 / d_lambda, returned in micrometres."""
    if not 0 < lambda_nm < math.inf:
        raise InvalidValue(f"wavelength must be finite and > 0, got {lambda_nm!r}")
    if not math.isfinite(delta_lambda_nm):
        raise InvalidValue(f"spectral width must be finite, got {delta_lambda_nm!r}")
    if delta_lambda_nm <= 0:
        raise ZeroLinewidth("spectral width must be > 0")
    return lambda_nm**2 / delta_lambda_nm / 1000.0


def fit_coupling_scaling(points) -> float:
    """Log-log slope of collective coupling vs emitter count (0.5 for sqrt-N)."""
    return fit_power_law(points).alpha
