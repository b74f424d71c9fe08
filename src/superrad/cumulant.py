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

The closure is exact at uncorrelated (product) states with vanishing first
moments, which is the basis of the derivative-equality oracle test against the
exact Liouvillian.  Untracked pair moments (<a sz>, <s- sz>, <a a>, ...) only
ever appear multiplied by first moments, hence never contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvalidValue, NoConvergence, NonFiniteState
from .params import SystemParams, validate_params

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TIME = 1e6


def closure_triple(
    a_mean: complex,
    b_mean: complex,
    c_mean: complex,
    ab: complex,
    ac: complex,
    bc: complex,
) -> complex:
    """Third-moment closure <ABC> ~ <A><BC> + <B><AC> + <AB><C> - <A><B><C>."""
    return a_mean * bc + b_mean * ac + ab * c_mean - a_mean * b_mean * c_mean


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
    """Time derivatives of all moment fields (returned in MomentState slots).

    Third moments are eliminated through closure_triple with the vanishing
    first moments <a> = <s-> = 0 spelled out, e.g. <a'a sz> with pair moments
    (<a'a>, <a'sz>, <a sz>) = (n, 0, 0) reduces to n*s.
    """
    validate_params(p)
    n_em = p.n_emitters
    n, s, c, x, z = m.n_photon, m.s_z, m.coh, m.x_pm, m.z_zz
    p_e = 0.5 * (1.0 + s)

    # <a'a sz_i>: A = a', B = a, C = sz; pair moments (<a'a>, <a'sz>, <a sz>) = (n, 0, 0)
    triple_naz = closure_triple(0j, 0j, s, n, 0j, 0j)
    # <a s+_i sz_j>: A = a, B = s+, C = sz; only the pair <a s+> = conj(c) survives
    triple_apz = closure_triple(0j, 0j, s, np.conj(c), 0j, 0j)
    # <a' s-_i sz_j>: A = a', B = s-, C = sz; only the pair <a' s-> = c survives
    triple_amz = closure_triple(0j, 0j, s, c, 0j, 0j)

    im_c = c.imag
    dn = -p.kappa * n + 2.0 * p.g * n_em * im_c
    ds = p.omega * (1.0 - s) - p.gamma_minus * (1.0 + s) - 4.0 * p.g * im_c
    dc = (
        1j * p.detuning - 0.5 * (p.kappa + p.omega + p.gamma_minus) - 2.0 * p.gamma_z
    ) * c + 1j * p.g * (triple_naz + p_e + (n_em - 1) * x)
    if n_em >= 2:
        w2 = p.omega + p.gamma_minus + 4.0 * p.gamma_z
        dx = -w2 * x + 1j * p.g * (triple_apz - triple_amz)
        dz_g = 4j * p.g * (triple_amz - triple_apz)  # pure real: 4ig s (c - c*)
        dz = 2.0 * p.omega * (s - z) - 2.0 * p.gamma_minus * (s + z) + dz_g.real
    else:
        dx = 0j
        dz = 0.0
    return MomentState(
        n_photon=float(dn), s_z=float(ds), coh=complex(dc), x_pm=complex(dx), z_zz=float(dz)
    )


def _rhs_vector(p: SystemParams, y: np.ndarray) -> np.ndarray:
    """Same equations as moment_rhs on the 7-component real vector (hot path)."""
    n_em = p.n_emitters
    n, s, cr, ci, xr, xi, z = y
    p_e = 0.5 * (1.0 + s)
    damp_c = 0.5 * (p.kappa + p.omega + p.gamma_minus) + 2.0 * p.gamma_z
    det = p.detuning

    dn = -p.kappa * n + 2.0 * p.g * n_em * ci
    ds = p.omega * (1.0 - s) - p.gamma_minus * (1.0 + s) - 4.0 * p.g * ci
    # dc = (i det - damp_c) c + i g (n s + p_e + (N-1) x)
    src_r = n * s + p_e + (n_em - 1) * xr
    src_i = (n_em - 1) * xi
    dcr = -det * ci - damp_c * cr - p.g * src_i
    dci = det * cr - damp_c * ci + p.g * src_r
    if n_em >= 2:
        w2 = p.omega + p.gamma_minus + 4.0 * p.gamma_z
        dxr = -w2 * xr + 2.0 * p.g * s * ci
        dxi = -w2 * xi
        dz = (
            2.0 * p.omega * (s - z)
            - 2.0 * p.gamma_minus * (s + z)
            - 8.0 * p.g * s * ci
        )
    else:
        dxr = dxi = dz = 0.0
    return np.array([dn, ds, dcr, dci, dxr, dxi, dz])


def integrate_to_steady_state(
    p: SystemParams,
    m0: MomentState | None = None,
    tol: float = DEFAULT_TOL,
    max_time: float = DEFAULT_MAX_TIME,
) -> MomentState:
    """Integrate the moment equations until ||dm/dt||_inf <= tol.

    Adaptive explicit integration (DOP853, rtol 1e-10 / atol 1e-12) in time
    chunks that double until the derivative norm passes tol; if the explicit
    scheme fails or stalls on stiffness, the chunk is retried with the
    implicit Radau scheme.  A single damped Newton step polishes the
    result but is rejected if it would move any component by more than
    10 * tol (integration stays authoritative).
    """
    validate_params(p)
    if tol <= 0:
        raise InvalidValue("tol must be > 0")
    if m0 is None:
        m0 = MomentState.dark()
    y = m0.to_vector().astype(float)
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("initial moment state is not finite")

    if np.abs(_rhs_vector(p, y)).max() <= tol:
        return MomentState.from_vector(y)

    rate_scale = max(p.kappa, p.omega, p.gamma_minus, p.gamma_z, p.g, abs(p.detuning), 1e-6)
    t_elapsed = 0.0
    chunk = 10.0 / rate_scale
    fun = lambda _t, yy: _rhs_vector(p, yy)

    # Near the fixed point the reachable derivative norm is limited by the
    # integrator tolerances, so they are tightened once progress stalls close
    # to tol.  A total evaluation budget bounds the runtime of hopeless cases.
    rtol, atol = 1e-10, 1e-12
    prev_norm = np.inf
    floor_stalls = 0
    evals_left = 3_000_000
    while t_elapsed < max_time and evals_left > 0:
        chunk = min(chunk, max_time - t_elapsed)
        sol = solve_ivp(fun, (0.0, chunk), y, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            sol = solve_ivp(fun, (0.0, chunk), y, method="Radau", rtol=rtol, atol=atol)
            if not sol.success:
                raise NoConvergence(f"moment integration failed: {sol.message}")
        evals_left -= sol.nfev
        y = sol.y[:, -1]
        if not np.all(np.isfinite(y)):
            raise NonFiniteState("moment integration produced non-finite values")
        t_elapsed += chunk
        norm = np.abs(_rhs_vector(p, y)).max()
        if norm <= tol:
            break
        near_floor = norm <= 1e4 * tol
        if near_floor and norm > 0.3 * prev_norm:
            floor_stalls += 1
            if floor_stalls == 1:
                rtol, atol = 1e-13, 1e-15
            elif floor_stalls >= 4:
                raise NoConvergence(
                    f"derivative norm stalled at {norm:.3e} > {tol:.0e} "
                    f"after t = {t_elapsed:.3e}"
                )
        prev_norm = norm
        chunk = min(chunk * 2.0, 1e5)
    if np.abs(_rhs_vector(p, y)).max() > tol:
        raise NoConvergence(
            f"derivative norm {np.abs(_rhs_vector(p, y)).max():.3e} still above "
            f"{tol:.0e} after t = {t_elapsed:.3e} "
            f"(budget exhausted: {evals_left <= 0})"
        )

    y = _newton_polish(p, y, tol)
    return MomentState.from_vector(y).validate(slack=1e-6)


def _newton_polish(p: SystemParams, y: np.ndarray, tol: float) -> np.ndarray:
    """One damped Newton step; rejected if it moves any component > 10 * tol."""
    res = _rhs_vector(p, y)
    jac = _numeric_jacobian(p, y)
    try:
        step = np.linalg.solve(jac, -res)
    except np.linalg.LinAlgError:
        return y
    if np.abs(step).max() > 10.0 * tol:
        return y
    y_new = y + step
    if np.abs(_rhs_vector(p, y_new)).max() < np.abs(res).max():
        return y_new
    return y


def _numeric_jacobian(p: SystemParams, y: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the 7-dim moment vector field."""
    dim = len(y)
    jac = np.empty((dim, dim))
    for k in range(dim):
        step = eps * max(1.0, abs(y[k]))
        y_hi = y.copy()
        y_lo = y.copy()
        y_hi[k] += step
        y_lo[k] -= step
        jac[:, k] = (_rhs_vector(p, y_hi) - _rhs_vector(p, y_lo)) / (2 * step)
    return jac


def photon_flux_cumulant(p: SystemParams, tol: float = DEFAULT_TOL) -> float:
    """kappa * <a'a> of the converged moment state, starting from the dark state."""
    m = integrate_to_steady_state(p, MomentState.dark(), tol=tol)
    return p.kappa * m.n_photon


def flux_decomposition(p: SystemParams, m: MomentState) -> tuple[float, float]:
    """Split the steady-state flux into N * (single-emitter) + N(N-1) * (pair) terms.

    Stationarity of n and c gives kappa*n = 2 g N Im(c) with
    c = i g S / (D_c - i d), S = n s + p_e + (N-1) x.  Eliminating the
    stimulated n*s piece yields

        kappa n = [ N*(k2 p_e) + N(N-1)*(k2 Re x) ] / (1 - k2 N s / kappa),

    with k2 = 2 g^2 D_c / (D_c^2 + d^2) the per-emitter outcoupling rate.
    Returns (single_total, pair_total); their sum equals kappa * n_photon at a
    converged state up to integration tolerance.
    """
    validate_params(p)
    n_em = p.n_emitters
    d_c = 0.5 * (p.kappa + p.omega + p.gamma_minus) + 2.0 * p.gamma_z
    det = p.detuning
    k2 = 2.0 * p.g**2 * d_c / (d_c**2 + det**2)
    denom = 1.0 - k2 * n_em * m.s_z / p.kappa
    single_total = n_em * k2 * 0.5 * (1.0 + m.s_z) / denom
    pair_total = n_em * (n_em - 1) * k2 * m.x_pm.real / denom
    return single_total, pair_total
