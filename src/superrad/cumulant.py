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
moments noted beside the terms that carry them; moment_rhs, the stability
Jacobian and the residual check of the fixed point all evaluate that code.

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
state is returned only if no eigenvalue of the Jacobian there has a positive
real part and its derivative norm is within tol * max(1, kappa n);
otherwise NoConvergence is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NoConvergence, NonFiniteState
from .params import SystemParams, validate_params

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
        v = self.to_vector()
        if not np.all(np.isfinite(v)):
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
    validate_params(p)
    return MomentState.from_vector(_rhs_vector(p, m.to_vector()))


def _rhs_vector(p: SystemParams, y: np.ndarray) -> np.ndarray:
    """The closed moment equations on y = (n, s, Re c, Im c, Re x, Im x, z).

    y has shape (7,) or (7, k); each column is one state.
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
        dxr = dxi = dz = np.zeros_like(n)
    return np.array([dn, ds, dcr, dci, dxr, dxi, dz])


def integrate_to_steady_state(p: SystemParams, tol: float = DEFAULT_TOL) -> MomentState:
    """The stable stationary moment state, solved in closed form.

    Im(c) is the non-negative root of the stationary quadratic (see the module
    docstring); the other moments follow from it.  Raises NoConvergence when
    that fixed point is unstable, does not exist (kappa = 0 with g > 0 and
    omega >= gamma_minus) or leaves a derivative norm above tol * max(1, kappa n).
    The tolerance is relative to kappa n = 2 g N Im(c), the size of the
    photon-balance terms, because at large flux their rounding alone exceeds
    any fixed absolute tol.
    """
    validate_params(p)
    if tol <= 0:
        raise InvalidValue("tol must be > 0")
    if p.omega == 0:
        return MomentState.dark()
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
        root = np.sqrt(qb * qb + 4.0 * qa * qc)
        ci = 2.0 * qc / (qb + root) if qb >= 0 else (root - qb) / (2.0 * qa)
        n = 2.0 * p.g * n_em * ci / p.kappa
    s = s0 - b * ci
    xr, z = (2.0 * p.g * s * ci / w2, s * s) if n_em >= 2 else (0.0, 1.0)
    c = 1j * p.g * (n * s + 0.5 * (1.0 + s) + (n_em - 1) * xr) / (d_c - 1j * p.detuning)
    y = np.array([n, s, c.real, c.imag, xr, 0.0, z])

    block = 7 if n_em >= 2 else 4  # for N = 1 only (n, s, c) evolve
    growth = np.linalg.eigvals(_numeric_jacobian(p, y)[:block, :block]).real.max()
    if growth > 0:
        raise NoConvergence(f"stationary state is unstable: growth rate {growth:.3e} meV")
    norm = np.abs(_rhs_vector(p, y)).max()
    bound = tol * max(1.0, p.kappa * n)
    if norm > bound:
        raise NoConvergence(
            f"derivative norm {norm:.3e} above tol * max(1, kappa n) = {bound:.3e}"
            " at the stationary state"
        )
    return MomentState.from_vector(y).validate(slack=1e-6)


def _numeric_jacobian(p: SystemParams, y: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the 7-dim moment vector field, in one evaluation."""
    h = eps * np.maximum(1.0, np.abs(y))
    steps = np.diag(h)
    rhs = _rhs_vector(p, np.hstack([y[:, None] + steps, y[:, None] - steps]))
    return (rhs[:, : len(y)] - rhs[:, len(y) :]) / (2 * h)


def _damping_rates(p: SystemParams) -> tuple[float, float]:
    """D_c and W2 = omega + gamma_minus + 4 gamma_z, the damping rates of c and x."""
    d_c = 0.5 * (p.kappa + p.omega + p.gamma_minus) + 2.0 * p.gamma_z
    return d_c, p.omega + p.gamma_minus + 4.0 * p.gamma_z


def _outcoupling_rate(p: SystemParams) -> float:
    """k2 = 2 g^2 D_c / (D_c^2 + d^2), the per-emitter outcoupling rate."""
    d_c, _ = _damping_rates(p)
    return 2.0 * p.g**2 * d_c / (d_c**2 + p.detuning**2)


def photon_flux_cumulant(p: SystemParams, tol: float = DEFAULT_TOL) -> float:
    """kappa * <a'a> of the stable stationary moment state."""
    m = integrate_to_steady_state(p, tol=tol)
    return p.kappa * m.n_photon


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
    validate_params(p)
    if p.kappa == 0:
        raise InvalidValue("flux_decomposition needs kappa > 0; kappa = 0 emits no flux")
    n_em = p.n_emitters
    k2 = _outcoupling_rate(p)
    denom = 1.0 - k2 * n_em * m.s_z / p.kappa
    single_total = n_em * k2 * 0.5 * (1.0 + m.s_z) / denom
    pair_total = n_em * (n_em - 1) * k2 * m.x_pm.real / denom
    return single_total, pair_total
