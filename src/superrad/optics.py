"""Coupled-oscillator cavity optics.

Angle-dependent planar-cavity dispersion, polariton eigenmodes of the 2x2
non-Hermitian cavity-emitter matrix, single-port input-output reflectance,
cavity-filtered emission lineshape, and the coherence-length estimate
L_coh = lambda^2 / d_lambda.  The one-angle functions (polariton_eigenmodes,
minimum_branch_splitting, emission_fwhm) work on Python floats with math and
cmath, sharing each formula with the array path of the reflectance map.  The
splitting minimum is a closed form (the resonant angle); the emission peak
comes from the closed-form roots of a cubic and the FWHM from a safeguarded
Newton solve between those roots, not a search over a grid.
"""

from __future__ import annotations

import cmath
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


def _angle_error(first, count: int, size: int) -> AngleOutOfRange:
    return AngleOutOfRange(f"theta = {first} deg outside [0, 90), "
                           f"{count} of {size} angles out of range")


def _mode_energy(p: OpticalParams, sin_t, sqrt):
    """e_c0 / sqrt(1 - (sin(theta)/n_eff)^2) from sin(theta): a float with
    math.sqrt or an array with np.sqrt."""
    ratio = sin_t / p.n_eff
    return p.e_c0 / sqrt(1.0 - ratio * ratio)


def cavity_dispersion(p: OpticalParams, theta_deg: float | np.ndarray) -> float | np.ndarray:
    """Planar-cavity mode energy e_c0 / sqrt(1 - sin^2(theta)/n_eff^2), meV.

    theta_deg may be a scalar or an array of angles; the result has its shape.
    """
    theta = np.asarray(theta_deg, dtype=float)
    outside = ~((theta >= 0) & (theta < 90))
    if outside.any():
        raise _angle_error(theta[outside].flat[0], np.count_nonzero(outside), theta.size)
    return _mode_energy(p, np.sin(np.radians(theta)), np.sqrt)


def _one_angle_sin(theta_deg) -> float:
    """sin(theta) of one angle in [0, 90) degrees, as a Python float."""
    theta = None
    if not getattr(theta_deg, "ndim", 0):
        try:
            theta = float(theta_deg)
        except (TypeError, ValueError):
            pass
    if theta is None:
        raise InvalidValue(f"theta_deg must be one angle in degrees, got {theta_deg!r:.40}")
    if not 0.0 <= theta < 90.0:
        raise _angle_error(theta, 1, 1)
    return math.sin(math.radians(theta))


def _branch_pair(p: OpticalParams, e_c, sqrt):
    """The eigenvalues half_sum -+ root, unsorted, at cavity mode energy e_c: a
    float with cmath.sqrt or an array with np.sqrt."""
    e_c = e_c - 0.5j * p.kappa
    e_x = p.delta - 0.5j * p.gamma_perp
    half_sum = 0.5 * (e_c + e_x)
    half_diff = 0.5 * (e_c - e_x)
    root = sqrt(half_diff * half_diff + p.g_coll**2 + 0j)
    return half_sum - root, half_sum + root


def _branch_overflow(p: OpticalParams, top_mode: float) -> InvalidValue:
    """InvalidValue naming the largest input, e_c0 ranked by the highest mode it gives."""
    sizes = {"e_c0": top_mode, "delta": p.delta, "kappa": p.kappa,
             "gamma_perp": p.gamma_perp, "g_coll": p.g_coll}
    name = max(sizes, key=sizes.get)
    return InvalidValue(f"polariton branches leave the float range: '{name}' = "
                        f"{getattr(p, name)} meV")


def _branches(p: OpticalParams, e_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper polariton eigenvalues at each mode energy, as complex arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = _branch_pair(p, e_c, np.sqrt)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise _branch_overflow(p, float(e_c.max()))
    swap = lo.real > hi.real
    return np.where(swap, hi, lo), np.where(swap, lo, hi)


def _one_branch_pair(p: OpticalParams, sin_t: float) -> tuple[complex, complex]:
    """_branches at one angle, given by its sine, on Python complex numbers."""
    e_c = _mode_energy(p, sin_t, math.sqrt)
    lo, hi = _branch_pair(p, e_c, cmath.sqrt)
    if not (cmath.isfinite(lo) and cmath.isfinite(hi)):
        raise _branch_overflow(p, e_c)
    return (hi, lo) if lo.real > hi.real else (lo, hi)


def polariton_eigenmodes(p: OpticalParams, theta_deg: float) -> tuple[complex, complex]:
    """Eigenvalues of [[E_c(theta) - i kappa/2, g], [g, delta - i gamma_perp/2]].

    Returned sorted by real part (lower polariton first).  At resonance the
    real-part splitting is 2*sqrt(g^2 - (kappa - gamma_perp)^2/16) when the
    radicand is positive and 0 otherwise.  theta_deg that is not one real
    angle raises InvalidValue, and eigenvalues past the float range raise
    InvalidValue naming the largest input.
    """
    return _one_branch_pair(p, _one_angle_sin(theta_deg))


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


def _reflectance(p: OpticalParams, e_c: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """R (see reflectance_spectrum) with one row per mode energy E_c; the grid is
    the only grid-sized array, filled by in-place passes."""
    if not np.all(np.isfinite(energies)):
        raise InvalidValue("energies must be finite")
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
    e_c = np.atleast_1d(cavity_dispersion(p, theta_deg))
    return _reflectance(p, e_c, np.asarray(energies, dtype=float))[0]


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
    e_c = cavity_dispersion(p, thetas)
    try:
        r_values = _reflectance(p, e_c, energies)
    except MemoryError as e:
        cells = thetas.size * energies.size
        raise DimensionCap(
            f"the {thetas.size} x {energies.size} reflectance grid of {cells} float64 cells "
            f"({8 * cells} bytes) ran out of memory"
        ) from e
    lp, up = _branches(p, e_c)
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
    lo, hi = _one_branch_pair(p, min(sin_res, math.sin(math.radians(theta_max_deg))))
    return hi.real - lo.real


# two peaks of the emission line whose values of P lie within this many ulps are tied
_TIE_ULPS = 8
_MAX_NEWTON_STEPS = 100  # a safety cap: a crossing takes about five steps


def _stationary_points(a: float, b: float, c: float) -> list[float]:
    """Real stationary points of P(x) = (x^2 + a^2)((x - c)^2 + b^2), ascending.

    P'/4 is a cubic, and x = c/2 + t makes it t^3 + s t + r with
    s = (a^2 + b^2)/2 - c^2/4 and r = c (b^2 - a^2)/4.  Three real roots come
    from the trigonometric form and one from Cardano's, written without
    cancellation between its two cube roots; each is then polished by one
    Newton step on P'/2 = x((x - c)^2 + b^2) + (x - c)(x^2 + a^2).
    """
    if c == 0.0:
        return [0.0]  # P is even about x = 0 and grows with x^2
    a2, b2 = a * a, b * b
    s = 0.5 * (a2 + b2) - 0.25 * c * c
    r = 0.25 * c * (b2 - a2)
    disc = 0.25 * r * r + s * s * s / 27.0
    if s < 0.0 and disc <= 0.0:
        scale = 2.0 * math.sqrt(-s / 3.0)
        cos_3phi = 1.5 * r / s * math.sqrt(-3.0 / s)
        phi = math.acos(max(-1.0, min(1.0, cos_3phi))) / 3.0
        roots = [scale * math.cos(phi - k * 2.0 * math.pi / 3.0) for k in (2, 1, 0)]
    else:
        u = -math.copysign((0.5 * abs(r) + math.sqrt(disc)) ** (1.0 / 3.0), r)
        roots = [u - s / (3.0 * u) if u else 0.0]
    points = []
    for t in roots:
        x = 0.5 * c + t
        d = x - c
        slope = x * (d * d + b2) + d * (x * x + a2)
        curvature = d * d + b2 + x * x + a2 + 4.0 * x * d
        points.append(x - slope / curvature if curvature else x)
    return points


def _peak(a: float, b: float, c: float, stationary: list[float]) -> float:
    """The stationary point where P is smallest, the emission line highest.

    Of three, the outer two are the peaks, compared in P's factored form,
    which cancels nothing; when they lie within _TIE_ULPS ulps (as on a line
    symmetric about c/2, kappa = gamma_perp), the lower-energy peak, the
    smaller x, is the one reported.
    """
    if len(stationary) == 1:
        return stationary[0]
    lower, upper = ((x * x + a * a) * ((x - c) * (x - c) + b * b)
                    for x in (stationary[0], stationary[-1]))
    return stationary[-1] if lower - upper > _TIE_ULPS * math.ulp(upper) else stationary[0]


def _crossings(a: float, b: float, c: float, x_peak: float,
               stationary: list[float]) -> tuple[float, float] | None:
    """Offsets below and above x_peak of its nearest half-maximum crossings.

    They are the roots of Q(y) = P(x_peak + y) - 2 P(x_peak) nearest y = 0, in
    Q's expansion about the peak, so that they keep their relative accuracy
    when one line is far narrower.  Q' vanishes only at P's stationary points,
    so Q is monotone between them: on each side, the first such bracket where
    Q changes sign holds the crossing, which a dip below half maximum keeps
    on the highest peak's own side.  The outermost bracket ends at Fujiwara's
    bound on the roots.  None when P(x_peak) = 0, as a^2 or b^2 underflows:
    every crossing is then the peak itself.
    """
    p1, p0 = 2.0 * x_peak, x_peak * x_peak + a * a
    d = x_peak - c
    q1, q0 = 2.0 * d, d * d + b * b
    e3, e2, e1, e0 = p1 + q1, p0 + p1 * q1 + q0, p1 * q0 + p0 * q1, p0 * q0
    if not e0 > 0.0:
        return None
    bound = 2.0 * max(abs(e3), math.sqrt(abs(e2)), abs(e1) ** (1.0 / 3.0),
                      math.sqrt(math.sqrt(0.5 * e0)))
    guess = math.sqrt(e0 / e2) if e2 > 0.0 else 0.0  # the quadratic model's root

    def q(y):
        return (((y + e3) * y + e2) * y + e1) * y - e0

    def crossing(side):
        neg = 0.0
        for pos in sorted((x - x_peak for x in stationary if (x - x_peak) * side > 0.0),
                          key=abs) + [side * bound]:
            if q(pos) >= 0.0:
                break
            neg = pos
        # Newton from the quadratic model's root, bisecting whenever a step
        # would leave the bracket, which every step narrows
        y = side * guess
        for _ in range(_MAX_NEWTON_STEPS):
            if not min(neg, pos) < y < max(neg, pos):
                y = 0.5 * (neg + pos)
            value = q(y)
            if value == 0.0:
                return y
            if value < 0.0:
                neg = y
            else:
                pos = y
            slope = ((4.0 * y + 3.0 * e3) * y + 2.0 * e2) * y + e1
            step = value / slope if slope else math.inf
            if abs(step) <= 4.0 * math.ulp(y):
                return y - step
            y -= step
        return y

    return crossing(-1.0), crossing(1.0)


def emission_fwhm(p: OpticalParams, theta_deg: float) -> tuple[float, float]:
    """Peak position and FWHM of the cavity-filtered emission lineshape at one angle.

    The model is the product of the emitter Lorentzian (delta, gamma_perp) and
    the cavity filter Lorentzian (E_c(theta), kappa).  Its reciprocal is the
    quartic P(x) = (x^2 + a^2)((x - c)^2 + b^2) in x = (E - delta)/w, with
    w = kappa + gamma_perp, a = gamma_perp/2w, b = kappa/2w and
    c = (E_c - delta)/w.  Everything is computed on Python floats.  The
    stationary points are the closed-form roots of the cubic P'/4, each
    polished by one Newton step, and the one with the smallest P is the peak,
    so a double-peaked line reports its highest peak (at c = 0 the peak is
    x = 0).  Two peaks whose P lie within 8 ulps are tied, as on a line
    symmetric about c/2 (kappa = gamma_perp), and the tie goes to the
    lower-energy peak.  The half-maximum crossings are the roots of
    P(x_peak + y) - 2 P(x_peak) nearest the peak on either side, each found by
    Newton's method safeguarded by bisection between consecutive stationary
    points, where that difference is monotone: a dip below half maximum ends
    the width at the highest peak's own crossings.  theta_deg that is not one
    real angle raises InvalidValue, and so does a kappa + gamma_perp past the
    float range; a side without a crossing raises PeakNotFound.
    """
    if p.gamma_perp <= 0 or p.kappa <= 0:
        raise ZeroLinewidth("emission model needs gamma_perp > 0 and kappa > 0")
    e_c = _mode_energy(p, _one_angle_sin(theta_deg), math.sqrt)
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
    stationary = _stationary_points(a, b, c)
    x_peak = _peak(a, b, c, stationary)
    crossings = _crossings(a, b, c, x_peak, stationary)
    peak = p.delta + x_peak * widths
    if crossings is None:
        raise PeakNotFound(f"no half-maximum crossing above or below the emission peak at {peak} meV")
    below, above = crossings
    return peak, (above - below) * widths


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
