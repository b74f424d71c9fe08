"""Closed second-order moment equations with a third-order closure.

For N identical emitters symmetrically coupled to one lossy mode under purely
incoherent driving, the first moments <a> and <s-> vanish identically and the
state stays permutation symmetric.  The closed variable set is

    n = <a'a>            mean photon number
    s = <sz_i>           inversion of any emitter
    c = <a' s-_i>        field-emitter coherence (complex)
    x = <s+_i s-_j>      two-emitter raising/lowering correlator, i != j (complex)
    z = <sz_i sz_j>      two-emitter inversion correlator, i != j

Adjoint-equation derivation (d<O>/dt = i<[H,O]> + sum_k r_k <A' O A - {A'A,O}/2>)
with every third moment <ABC> replaced by the closure
<A><BC> + <B><AC> + <AB><C> - <A><B><C> yields, with d = delta_c - delta,
W2 = omega + gamma_minus + 4 gamma_z, p_e = (1+s)/2:

    dn/dt = -kappa n + 2 g N Im(c)
    ds/dt = omega (1-s) - gamma_minus (1+s) - 4 g Im(c)
    dc/dt = [i d - (kappa+omega+gamma_minus)/2 - 2 gamma_z] c
            + i g [ n s + p_e + (N-1) x ]
    dx/dt = -W2 x + 2 g s Im(c)
    dz/dt = 2 omega (s-z) - 2 gamma_minus (s+z) - 8 g s Im(c)

These equations are written once, in _rhs_vector, with the closed third
moments noted beside the terms that carry them; moment_rhs and the residual
check of the fixed point evaluate that code.  The stability test below uses
only the characteristic polynomial of their Jacobian, written out in
_characteristic_coefficients.

The closure is exact at uncorrelated (product) states with vanishing first
moments, which is the basis of the derivative-equality oracle test against the
exact Liouvillian.  Untracked pair moments (<a sz>, <s- sz>, <a a>, ...) only
ever appear multiplied by first moments, hence never contribute.

Only the fixed point is used (the steady-state closure of Kirton & Keeling,
PRL 118, 123602, 2017), and it has a closed form.  With ci = Im(c),
s0 = (omega - gamma_minus) / (omega + gamma_minus) and
b = 4 g / (omega + gamma_minus), stationarity makes every other moment a
function of ci:

    n = 2 g N ci / kappa,   s = s0 - b ci,   x = 2 g s ci / W2 (real),   z = s^2

The c equation gives c = i g S / (D_c - i d) with S = n s + p_e + (N-1) x and
D_c = (kappa+omega+gamma_minus)/2 + 2 gamma_z, so Im(c) = K S with
K = g D_c / (D_c^2 + d^2).  Substituting leaves one quadratic,

    K q b ci^2 + (1 - K q s0 + K b/2) ci - K (1 + s0)/2 = 0,
    q = 2 g N / kappa + (N-1) 2 g / W2.

Its roots have opposite signs, and n >= 0 selects the non-negative one.  That
state is returned only if it is linearly stable and its derivative norm is
within tol * max(1, kappa n); otherwise NoConvergence is raised.

Stability.  In the Jacobian the rows of Im x and z are triangular, with
eigenvalues -W2 and -2 (omega + gamma_minus), both negative for omega > 0.
What is left is a 5x5 block J5 over (n, s, Re c, Im c, Re x).  In it n, s,
Re c and Re x are coupled to one another only through Im c, apart from the
s entry of the Re x row, so with G = omega + gamma_minus its characteristic
polynomial factors as

    det(l - J5) = (l + kappa)(l + G)(l + W2) [(l + D_c)^2 + d^2] + (l + D_c) B(l),
    B(l) = 2 g^2 [ 2 (n + 1/2)(l + kappa)(l + W2) - N s (l + G)(l + W2)
                   - (N-1) s (l + kappa)(l + G) + 4 g (N-1) ci (l + kappa) ].

At N = 1 Re x does not feed back (its coupling is g (N-1) = 0), so the same
polynomial only adds the root -W2 < 0 to those of (n, s, c).  The point is
accepted when the first column of the Routh array of its coefficients
a1..a5 is strictly positive (Routh-Hurwitz: every root has a negative real
part).  A point the test does not certify, unstable or marginal (g = kappa
= 0 has a zero root), falls back to the roots of the same polynomial and is
rejected when one has a positive real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NoConvergence, NonFiniteState
from .params import SystemParams

DEFAULT_TOL = 1e-10


@dataclass
class MomentState:
    """The closed moment set; x_pm and z_zz are meaningful only for N >= 2."""

    n_photon: float
    s_z: float
    coh: complex
    x_pm: complex
    z_zz: float

    @classmethod
    def dark(cls) -> "MomentState":
        """Empty cavity, all emitters in the ground state."""
        return cls(n_photon=0.0, s_z=-1.0, coh=0j, x_pm=0j, z_zz=1.0)

    @classmethod
    def product(cls, n_photon: float, s_z: float) -> "MomentState":
        """Uncorrelated state: pair moments factorize, coherences vanish."""
        return cls(n_photon=n_photon, s_z=s_z, coh=0j, x_pm=0j, z_zz=s_z**2)

    def to_vector(self) -> np.ndarray:
        return np.array(
            [
                self.n_photon,
                self.s_z,
                self.coh.real,
                self.coh.imag,
                self.x_pm.real,
                self.x_pm.imag,
                self.z_zz,
            ]
        )

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "MomentState":
        return cls(
            n_photon=float(y[0]),
            s_z=float(y[1]),
            coh=complex(y[2], y[3]),
            x_pm=complex(y[4], y[5]),
            z_zz=float(y[6]),
        )

    def validate(self, slack: float = 1e-9) -> "MomentState":
        # scalar checks: a fixed point is 7 numbers, and an array would cost more than them
        if not all(map(cmath.isfinite, (self.n_photon, self.s_z, self.coh, self.x_pm, self.z_zz))):
            raise NonFiniteState(f"moment state has non-finite entries: {self}")
        if self.n_photon < -slack:
            raise InvalidValue(f"n_photon = {self.n_photon} below numerical floor")
        if abs(self.s_z) > 1 + slack or abs(self.z_zz) > 1 + slack:
            raise InvalidValue(f"inversion moments outside [-1, 1]: {self}")
        if abs(self.x_pm) > 1 + slack:
            raise InvalidValue(f"|x_pm| = {abs(self.x_pm)} exceeds loose bound 1")
        return self


def moment_rhs(p: SystemParams, m: MomentState) -> MomentState:
    """Time derivatives of all moment fields (returned in MomentState slots)."""
    return MomentState.from_vector(_rhs_vector(p, m.to_vector()))


def _rhs_vector(p: SystemParams, y: list[float] | np.ndarray) -> list[float] | np.ndarray:
    """The closed moment equations on y = (n, s, Re c, Im c, Re x, Im x, z).

    y holds 7 numbers, or has shape (7, k) with one state per column.  A list
    of 7 floats gives a list of 7 floats, computed without numpy, with the
    same values the array path gives; anything else gives an array.
    """
    n_em = p.n_emitters
    n, s, cr, ci, xr, xi, z = y
    p_e = 0.5 * (1.0 + s)
    d_c, w2 = _damping_rates(p)
    det = p.detuning

    dn = -p.kappa * n + 2.0 * p.g * n_em * ci
    ds = p.omega * (1.0 - s) - p.gamma_minus * (1.0 + s) - 4.0 * p.g * ci
    # dc = (i det - D_c) c + i g (<a'a sz> + p_e + (N-1) x); with <a> = <s-> = 0
    # the closure keeps one pair moment: <a'a sz> -> n s
    src_r = n * s + p_e + (n_em - 1) * xr
    src_i = (n_em - 1) * xi
    dcr = -det * ci - d_c * cr - p.g * src_i
    dci = det * cr - d_c * ci + p.g * src_r
    if n_em >= 2:
        # the g terms carry <a s+ sz> - <a' s- sz> -> s (c* - c) = -2i s Im(c)
        dxr = -w2 * xr + 2.0 * p.g * s * ci
        dxi = -w2 * xi
        dz = (
            2.0 * p.omega * (s - z)
            - 2.0 * p.gamma_minus * (s + z)
            - 8.0 * p.g * s * ci
        )
    else:
        dxr = dxi = dz = 0.0 if isinstance(y, list) else np.zeros_like(n)
    rates = [dn, ds, dcr, dci, dxr, dxi, dz]
    return rates if isinstance(y, list) else np.array(rates)


def integrate_to_steady_state(p: SystemParams, tol: float = DEFAULT_TOL) -> MomentState:
    """The stable stationary moment state, solved in closed form.

    Im(c) is the non-negative root of the stationary quadratic (see the module
    docstring); the other moments follow from it.  Stability is decided by the
    Routh-Hurwitz test on the characteristic polynomial of the Jacobian; only a
    point it does not certify computes that polynomial's roots.  A certified
    point runs on Python floats and calls no numpy.  Raises NoConvergence
    when that fixed point is unstable (a root with a positive real part), does
    not exist (kappa = 0 with g > 0 and omega >= gamma_minus) or leaves a
    derivative norm above tol * max(1, kappa n).  The tolerance is relative to
    kappa n = 2 g N Im(c), the size of the photon-balance terms, because at
    large flux their rounding alone exceeds any fixed absolute tol; a tol that
    is not finite and > 0 raises InvalidValue.
    """
    if not 0 < tol < math.inf:
        raise InvalidValue(f"tol must be finite and > 0, got {tol!r}")
    if p.omega == 0:
        return MomentState.dark()
    y = _stationary_vector(p)
    n, s, _, ci = y[:4]
    coefficients = _characteristic_coefficients(p, n, s, ci)
    if not _routh_hurwitz_stable(coefficients):
        growth = np.roots([1.0, *coefficients]).real.max()
        if growth > 0:
            raise NoConvergence(f"stationary state is unstable: growth rate {growth:.3e} meV")
    rates = _rhs_vector(p, y)
    bound = tol * max(1.0, p.kappa * n)
    if not all(abs(rate) <= bound for rate in rates):  # a NaN rate fails too
        raise NoConvergence(
            f"derivative norm {np.abs(rates).max():.3e} above tol * max(1, kappa n) = {bound:.3e}"
            " at the stationary state"
        )
    return MomentState.from_vector(y).validate(slack=1e-6)


def _stationary_vector(p: SystemParams) -> list[float]:
    """The fixed point y = (n, s, Re c, Im c, Re x, Im x, z) for omega > 0, unchecked."""
    n_em = p.n_emitters
    k2 = _outcoupling_rate(p)
    d_c, w2 = _damping_rates(p)
    s0 = (p.omega - p.gamma_minus) / (p.omega + p.gamma_minus)
    b = 4.0 * p.g / (p.omega + p.gamma_minus)

    n = ci = 0.0
    if p.g > 0 and p.kappa == 0:
        # undamped photons force Im c = 0, and then the c equation n s0 + p_e = 0
        if s0 >= 0:
            raise NoConvergence(
                "kappa = 0 with g > 0 and omega >= gamma_minus: the photon number is unbounded"
            )
        n = -0.5 * (1.0 + s0) / s0
    elif p.g > 0:
        big_k = k2 / (2.0 * p.g)
        q = 2.0 * p.g * n_em / p.kappa + (n_em - 1) * 2.0 * p.g / w2
        qa = big_k * q * b
        qb = 1.0 - big_k * q * s0 + 0.5 * big_k * b
        qc = 0.5 * big_k * (1.0 + s0)
        # qa, qc >= 0, so the roots have opposite signs; the non-negative one,
        # in the form that does not cancel for either sign of qb
        root = math.sqrt(qb * qb + 4.0 * qa * qc)
        ci = 2.0 * qc / (qb + root) if qb >= 0 else (root - qb) / (2.0 * qa)
        n = 2.0 * p.g * n_em * ci / p.kappa
    s = s0 - b * ci
    xr, z = (2.0 * p.g * s * ci / w2, s * s) if n_em >= 2 else (0.0, 1.0)
    # the c equation (D_c - i d) c = i g S gives Re c = -(d / D_c) Im c; reading
    # Im c off S = n s + p_e + (N-1) Re x would cancel deep above threshold.
    # 0.0 - ... keeps Re c = +0.0 at zero detuning
    return [n, s, 0.0 - p.detuning * ci / d_c, ci, xr, 0.0, z]


def _characteristic_coefficients(
    p: SystemParams, n: float, s: float, ci: float
) -> tuple[float, float, float, float, float]:
    """a1..a5 of det(l - J5) = l^5 + a1 l^4 + ... + a5, from its factored form."""
    kappa, big_g, m = p.kappa, p.omega + p.gamma_minus, p.n_emitters - 1
    d_c, w2 = _damping_rates(p)
    # (l + kappa)(l + G)(l + W2) = l^3 + e1 l^2 + e2 l + e3
    e1 = kappa + big_g + w2
    e2 = kappa * big_g + (kappa + big_g) * w2
    e3 = kappa * big_g * w2
    # (l + D_c)^2 + d^2 = l^2 + u1 l + u0
    u1 = 2.0 * d_c
    u0 = d_c * d_c + p.detuning * p.detuning
    # B(l) = v2 l^2 + v1 l + v0, with one weight per product of linear factors
    g2 = 2.0 * p.g * p.g
    k_kw = 2.0 * g2 * (n + 0.5)
    k_gw = -g2 * p.n_emitters * s
    k_kg = -g2 * m * s
    k_k = 4.0 * g2 * p.g * m * ci
    v2 = k_kw + k_gw + k_kg
    v1 = k_kw * (kappa + w2) + k_gw * (big_g + w2) + k_kg * (kappa + big_g) + k_k
    v0 = (k_kw * w2 + k_k) * kappa + k_gw * big_g * w2 + k_kg * kappa * big_g
    return (
        e1 + u1,
        e2 + e1 * u1 + u0 + v2,
        e3 + e2 * u1 + e1 * u0 + v1 + d_c * v2,
        e3 * u1 + e2 * u0 + v0 + d_c * v1,
        e3 * u0 + d_c * v0,
    )


def _routh_hurwitz_stable(coefficients: tuple[float, float, float, float, float]) -> bool:
    """True when the Routh array of a1..a5 (see above) has a strictly positive first column.

    The column is (1, a1, b1, c1, d1, a5); each entry is formed only after the
    one it divides by has been found positive.  False means "not certified":
    the point is unstable or marginal, or rounding left the test undecided.
    """
    a1, a2, a3, a4, a5 = coefficients
    if not (a1 > 0 and a5 > 0):
        return False
    b1 = a2 - a3 / a1
    if not b1 > 0:
        return False
    b2 = a4 - a5 / a1
    c1 = a3 - a1 * b2 / b1
    return c1 > 0 and b2 - b1 * a5 / c1 > 0


def _damping_rates(p: SystemParams) -> tuple[float, float]:
    """D_c and W2 = omega + gamma_minus + 4 gamma_z, the damping rates of c and x."""
    d_c = 0.5 * (p.kappa + p.omega + p.gamma_minus) + 2.0 * p.gamma_z
    return d_c, p.omega + p.gamma_minus + 4.0 * p.gamma_z


def _outcoupling_rate(p: SystemParams) -> float:
    """k2 = 2 g^2 D_c / (D_c^2 + d^2), the per-emitter outcoupling rate."""
    d_c, _ = _damping_rates(p)
    return 2.0 * p.g**2 * d_c / (d_c**2 + p.detuning**2)


def photon_flux_cumulant(p: SystemParams) -> float:
    """kappa * <a'a> of the stable stationary moment state."""
    return p.kappa * integrate_to_steady_state(p).n_photon


def flux_decomposition(p: SystemParams, m: MomentState) -> tuple[float, float]:
    """Split the steady-state flux into N * (single-emitter) + N(N-1) * (pair) terms.

    Stationarity of n and c gives kappa*n = 2 g N Im(c) with
    c = i g S / (D_c - i d), S = n s + p_e + (N-1) x.  Eliminating the
    stimulated n*s piece yields

        kappa n = [ N*(k2 p_e) + N(N-1)*(k2 Re x) ] / (1 - k2 N s / kappa),

    with k2 = 2 g^2 D_c / (D_c^2 + d^2) the per-emitter outcoupling rate.
    Returns (single_total, pair_total); their sum equals kappa * n_photon at a
    converged state up to integration tolerance.  Raises InvalidValue for
    kappa = 0, where there is no outcoupled flux to split.
    """
    if p.kappa == 0:
        raise InvalidValue("flux_decomposition needs kappa > 0; kappa = 0 emits no flux")
    n_em = p.n_emitters
    k2 = _outcoupling_rate(p)
    denom = 1.0 - k2 * n_em * m.s_z / p.kappa
    single_total = n_em * k2 * 0.5 * (1.0 + m.s_z) / denom
    pair_total = n_em * (n_em - 1) * k2 * m.x_pm.real / denom
    return single_total, pair_total
