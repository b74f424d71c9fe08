"""Brute-force Lindblad solver on the full Hilbert space Fock(n_max) x (C^2)^N.

This module is the oracle of the toolkit: it builds the sparse Liouvillian
superoperator of the driven-dissipative Tavis-Cummings model, solves for the
steady state via a trace-replacement linear system, time-evolves density
matrices, and evaluates observables exactly.  Cost grows as (n_max+1)*2^N so
it is only usable for small N; the cumulant module covers large N.

Conventions
-----------
* emitter basis: index 0 = ground, index 1 = excited;
  sigma_minus = |g><e|, sigma_z = diag(-1, +1).
* tensor order: field factor first, then emitters 0..N-1.
* vec(rho) is column-stacked (Fortran order), so vec(A rho B) = (B^T kron A) vec(rho).
* Hamiltonian: H = delta_c a'a + sum_n [delta s+_n s-_n + g (a' s-_n + s+_n a)].
  With frame="rotating" both delta_c and delta are shifted by -delta, leaving
  only the detuning; all tracked observables commute with the total excitation
  phase rotation, so they are identical in either frame.  The rotating frame
  avoids integrating optical-frequency phases when delta ~ 2e3 meV.
* dissipators: L[A] rho = A rho A' - (1/2){A'A, rho} at rates
  kappa (A = a), omega (A = s+_n), gamma_minus (A = s-_n), gamma_z (A = sz_n).
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import (
    CutoffNotConverged,
    DegenerateSteadyState,
    DimensionCap,
    IndexOutOfRange,
    InvalidValue,
    StepSizeUnderflow,
    UnknownObservable,
    VacuumState,
)
from .params import SystemParams, validate_params

DEFAULT_DIMENSION_CAP = 4096

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SIGMA_PLUS = _SIGMA_MINUS.conj().T
_SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
class HilbertConfig:
    """Truncated Hilbert space: photon cutoff n_max, N emitters, dimension cap."""

    n_max: int
    n_emitters: int
    cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        if self.n_max < 1:
            raise InvalidValue("n_max must be >= 1")
        if self.n_emitters < 1:
            raise InvalidValue("n_emitters must be >= 1")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * 2**self.n_emitters

    def check_cap(self) -> "HilbertConfig":
        if self.dim > self.cap:
            raise DimensionCap(
                f"Hilbert dimension {self.dim} = ({self.n_max}+1)*2^{self.n_emitters} "
                f"exceeds cap {self.cap}"
            )
        return self


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


# --- operator builders -------------------------------------------------------

def destroy_op(n_levels: int) -> sp.csr_matrix:
    """Bosonic annihilation operator truncated to n_levels Fock states."""
    data = np.sqrt(np.arange(1, n_levels, dtype=float))
    return sp.diags(data, offsets=1, format="csr").astype(complex)


def field_operator(h: HilbertConfig, op: np.ndarray | sp.spmatrix) -> sp.csr_matrix:
    """Embed a field-only operator into the full space."""
    spins = sp.identity(2**h.n_emitters, dtype=complex, format="csr")
    return sp.kron(sp.csr_matrix(op), spins, format="csr")


def site_operator(h: HilbertConfig, op2: np.ndarray, site: int) -> sp.csr_matrix:
    """Embed a single-emitter operator at the given 0-based site."""
    if not 0 <= site < h.n_emitters:
        raise IndexOutOfRange(f"emitter index {site} outside 0..{h.n_emitters - 1}")
    left = sp.identity((h.n_max + 1) * 2**site, dtype=complex, format="csr")
    right = sp.identity(2 ** (h.n_emitters - site - 1), dtype=complex, format="csr")
    out = sp.kron(left, sp.csr_matrix(op2), format="csr")
    return sp.kron(out, right, format="csr")


@functools.lru_cache(maxsize=16)
def _ladder_operators(h: HilbertConfig) -> tuple[sp.csr_matrix, tuple[sp.csr_matrix, ...]]:
    """a and every sigma-minus_n on h, built once per configuration and shared read-only."""
    a = field_operator(h, destroy_op(h.n_max + 1))
    sigma_minus = tuple(site_operator(h, _SIGMA_MINUS, n) for n in range(h.n_emitters))
    for op in (a, *sigma_minus):
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
    return a, sigma_minus


def hamiltonian(p: SystemParams, h: HilbertConfig, frame: str = "as_written") -> sp.csr_matrix:
    """Tavis-Cummings Hamiltonian on the truncated space."""
    if frame not in ("as_written", "rotating"):
        raise InvalidValue(f"unknown frame {frame!r}")
    shift = p.delta if frame == "rotating" else 0.0
    a, sigma_minus = _ladder_operators(h)
    ham = (p.delta_c - shift) * (a.conj().T @ a)
    for sm in sigma_minus:
        sp_ = sm.conj().T
        ham = ham + (p.delta - shift) * (sp_ @ sm) + p.g * (a.conj().T @ sm + sp_ @ a)
    return ham.tocsr()


def jump_operators(p: SystemParams, h: HilbertConfig) -> list[tuple[float, sp.csr_matrix]]:
    """All (rate, collapse operator) pairs of the master equation."""
    a, sigma_minus = _ladder_operators(h)
    ops = [(p.kappa, a)]
    for n, sm in enumerate(sigma_minus):
        ops.append((p.omega, sm.conj().T))
        ops.append((p.gamma_minus, sm))
        ops.append((p.gamma_z, site_operator(h, _SIGMA_Z, n)))
    return ops


@dataclass(frozen=True)
class Liouvillian:
    """Sparse superoperator acting on column-stacked density matrices."""

    matrix: sp.csr_matrix
    hilbert: HilbertConfig
    params: SystemParams
    frame: str = "as_written"

    @property
    def dim(self) -> int:
        return self.hilbert.dim

    def trace_row(self) -> np.ndarray:
        """vec(I)^T, the left null vector enforced by trace preservation."""
        d = self.dim
        row = np.zeros(d * d)
        row[np.arange(d) * (d + 1)] = 1.0
        return row

    def trace_residual(self) -> float:
        """max |vec(I)^T L|, zero for a trace-preserving generator."""
        return float(np.abs(self.trace_row() @ self.matrix).max())


def build_liouvillian(
    p: SystemParams, h: HilbertConfig, frame: str = "as_written"
) -> Liouvillian:
    """Assemble L with vec(rho_dot) = L vec(rho) for the full master equation."""
    validate_params(p)
    h.check_cap()
    d = h.dim
    ident = sp.identity(d, dtype=complex, format="csr")

    ham = hamiltonian(p, h, frame)
    liou = -1j * (sp.kron(ident, ham) - sp.kron(ham.T, ident))
    for rate, op in jump_operators(p, h):
        if rate == 0.0:
            continue
        op_dag_op = (op.conj().T @ op).tocsr()
        liou = liou + rate * (
            sp.kron(op.conj(), op)
            - 0.5 * sp.kron(ident, op_dag_op)
            - 0.5 * sp.kron(op_dag_op.T, ident)
        )
    return Liouvillian(matrix=liou.tocsr(), hilbert=h, params=p, frame=frame)


# --- density matrices ---------------------------------------------------------

# invariant tolerances of DensityMatrix.validate, and the steady-state residual bound
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-8
STEADY_RESIDUAL_TOL = 1e-10


@dataclass
class DensityMatrix:
    """Exact joint state with Hermiticity / trace / positivity invariants."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate(self) -> "DensityMatrix":
        m = self.mat
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidValue("density matrix must be square")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise InvalidValue(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidValue(f"trace {tr} differs from 1 beyond tolerance")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
        if min_eig < -PSD_TOL:
            raise InvalidValue(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        return self

    @classmethod
    def vacuum(cls, h: HilbertConfig) -> "DensityMatrix":
        """Empty cavity, all emitters in the ground state."""
        m = np.zeros((h.dim, h.dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(m)

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(state, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def product(cls, h: HilbertConfig, fock_probs, p_excited: float) -> "DensityMatrix":
        """Diagonal field state tensor identical diagonal emitter states.

        Such states carry no coherences, so all first moments <a>, <s-> vanish
        and every pair moment factorizes.
        """
        probs = np.asarray(fock_probs, dtype=float)
        if probs.ndim != 1 or len(probs) != h.n_max + 1:
            raise InvalidValue("fock_probs must have n_max + 1 entries")
        if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
            raise InvalidValue("fock_probs must be a probability vector")
        if not 0.0 <= p_excited <= 1.0:
            raise InvalidValue("p_excited must lie in [0, 1]")
        rho_f = np.diag(probs).astype(complex)
        rho_s = np.diag([1.0 - p_excited, p_excited]).astype(complex)
        m = rho_f
        for _ in range(h.n_emitters):
            m = np.kron(m, rho_s)
        return cls(m)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) * sum of singular values of (a - b)."""
    diff = a.mat - b.mat
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


# --- steady state and dynamics --------------------------------------------------

def steady_state_exact(liou: Liouvillian) -> DensityMatrix:
    """Unique steady state via the trace-replacement linear system.

    One (redundant) row of L is replaced by the trace functional vec(I)^T with
    right-hand side 1.  A couple of iterative-refinement rounds push the
    residual ||L vec(rho)||_inf below STEADY_RESIDUAL_TOL; failure to reach it
    (or a singular factorization) signals a degenerate null space.
    """
    d = liou.dim
    lmat = liou.matrix.tocsr()
    trace_row = liou.trace_row().astype(complex)

    modified = lmat.tolil(copy=True)
    modified[0, :] = trace_row
    modified = modified.tocsc()
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0

    try:
        with warnings.catch_warnings():
            # a singular factorization is one expected degeneracy signal
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            x = spla.spsolve(modified, rhs)
    except Exception as e:  # singular factorization
        raise DegenerateSteadyState(f"steady-state solve failed: {e}") from e
    if not np.all(np.isfinite(x)):
        raise DegenerateSteadyState("steady-state solve returned non-finite values")

    # iterative refinement on the modified system
    for _ in range(3):
        resid_mod = rhs - modified @ x
        if np.abs(resid_mod).max() < 1e-14:
            break
        try:
            x = x + spla.spsolve(modified, resid_mod)
        except Exception:
            break

    rho = unvec(x, d)
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if not np.isfinite(tr) or abs(tr) < 1e-12:
        raise DegenerateSteadyState("steady-state trace collapsed to zero")
    rho = rho / tr

    residual = float(np.abs(lmat @ vec(rho)).max())
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyState(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}; "
            "null space is likely degenerate"
        )
    return DensityMatrix(rho).validate()


def time_evolve(
    liou: Liouvillian,
    rho0: DensityMatrix,
    t_final: float,
    dt_max: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> DensityMatrix:
    """Adaptive explicit integration of rho_dot = L rho from rho0 to t_final."""
    if t_final < 0:
        raise InvalidValue("t_final must be >= 0")
    if dt_max is not None and dt_max <= 0:
        raise InvalidValue("dt_max must be > 0")
    if t_final == 0.0:
        return DensityMatrix(rho0.mat.copy())
    lmat = liou.matrix
    y0 = vec(rho0.mat).astype(complex)
    sol = solve_ivp(
        lambda _t, y: lmat @ y,
        (0.0, t_final),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        max_step=np.inf if dt_max is None else dt_max,
        dense_output=False,
    )
    if not sol.success:
        raise StepSizeUnderflow(f"integration failed: {sol.message}")
    rho = unvec(sol.y[:, -1], liou.dim)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho)


# --- observables -----------------------------------------------------------------

OBSERVABLES = (
    "photon_number",     # a'a
    "sigma_z",           # sz_i
    "cross_pm",          # s+_i s-_j, i != j
    "cross_zz",          # sz_i sz_j, i != j
    "field_coherence",   # a' s-_i
    "photon_pair",       # a'a'aa
)


def observable_operator(
    which: str, h: HilbertConfig, i: int | None = None, j: int | None = None
) -> sp.csr_matrix:
    """Sparse operator for a named observable."""
    a, sigma_minus = _ladder_operators(h)
    if which == "photon_number":
        return (a.conj().T @ a).tocsr()
    if which == "photon_pair":
        ad = a.conj().T
        return (ad @ ad @ a @ a).tocsr()
    if which == "sigma_z":
        return site_operator(h, _SIGMA_Z, _require_index(i, h))
    if which == "field_coherence":
        sm = sigma_minus[_require_index(i, h)]
        return (a.conj().T @ sm).tocsr()
    if which == "cross_pm":
        ii, jj = _require_pair(i, j, h)
        return (
            site_operator(h, _SIGMA_PLUS, ii) @ sigma_minus[jj]
        ).tocsr()
    if which == "cross_zz":
        ii, jj = _require_pair(i, j, h)
        return (
            site_operator(h, _SIGMA_Z, ii) @ site_operator(h, _SIGMA_Z, jj)
        ).tocsr()
    raise UnknownObservable(f"unknown observable {which!r}; choose from {OBSERVABLES}")


def _require_index(i, h):
    if i is None:
        raise IndexOutOfRange("this observable requires an emitter index")
    if not 0 <= i < h.n_emitters:
        raise IndexOutOfRange(f"emitter index {i} outside 0..{h.n_emitters - 1}")
    return i


def _require_pair(i, j, h):
    ii = _require_index(i, h)
    jj = _require_index(j, h)
    if ii == jj:
        raise IndexOutOfRange("cross observables need two distinct emitters")
    return ii, jj


def expectation(
    rho: DensityMatrix,
    which: str,
    h: HilbertConfig,
    i: int | None = None,
    j: int | None = None,
) -> complex:
    """Tr(O rho) for the named observable."""
    op = observable_operator(which, h, i, j)
    return complex((op.multiply(rho.mat.T)).sum())


def operator_expectation(op: sp.spmatrix, mat: np.ndarray) -> complex:
    """Tr(O M) for a sparse operator and a dense matrix."""
    return complex((op.multiply(mat.T)).sum())


def total_excitation_operator(h: HilbertConfig) -> sp.csr_matrix:
    """a'a + sum_n s+_n s-_n, conserved by H and by pure dephasing."""
    a, sigma_minus = _ladder_operators(h)
    out = (a.conj().T @ a).tocsr()
    for sm in sigma_minus:
        out = out + (sm.conj().T @ sm).tocsr()
    return out.tocsr()


# --- steady-state photon flux and statistics -----------------------------------

FLUX_CUTOFF_RTOL = 1e-6


def converge_in_cutoff(
    p: SystemParams,
    h: HilbertConfig,
    observe: Callable[[DensityMatrix, HilbertConfig], float],
    rel_tol: float = FLUX_CUTOFF_RTOL,
    frame: str = "as_written",
) -> tuple[float, HilbertConfig, DensityMatrix]:
    """observe(rho, h) at the exact steady state, converged in the Fock cutoff.

    Starting from h.n_max the cutoff is raised by 2 until the value changes by
    less than rel_tol relatively.  Returns the value with the HilbertConfig and
    the steady state of the last cutoff.  Hitting the dimension cap first
    raises CutoffNotConverged; an initial configuration beyond the cap raises
    DimensionCap.
    """
    validate_params(p)
    h.check_cap()
    value = None
    while True:
        rho = steady_state_exact(build_liouvillian(p, h, frame=frame))
        value_next = observe(rho, h)
        tol = rel_tol * max(abs(value_next), 1e-300)
        if value is not None and abs(value_next - value) <= tol:
            return value_next, h, rho
        value = value_next
        bigger = HilbertConfig(h.n_max + 2, h.n_emitters, h.cap)
        if bigger.dim > h.cap:
            raise CutoffNotConverged(
                f"value not converged at n_max={h.n_max} before dimension cap {h.cap}"
            )
        h = bigger


def photon_flux_exact(
    p: SystemParams,
    h: HilbertConfig,
    rel_tol: float = FLUX_CUTOFF_RTOL,
    frame: str = "as_written",
) -> float:
    """kappa * <a'a> at the exact steady state, converged in the Fock cutoff.

    See converge_in_cutoff for the ladder and the errors it raises.
    """

    def flux(rho, hh):
        return p.kappa * expectation(rho, "photon_number", hh).real

    return converge_in_cutoff(p, h, flux, rel_tol, frame)[0]


def _g2_of(rho: DensityMatrix, h: HilbertConfig, vacuum_threshold: float = 1e-12) -> float:
    n_phot = expectation(rho, "photon_number", h).real
    if n_phot <= vacuum_threshold:
        raise VacuumState(f"steady-state photon number {n_phot:.3e} is below threshold")
    pair = expectation(rho, "photon_pair", h).real
    return pair / n_phot**2


def g2_zero_exact(
    p: SystemParams,
    h: HilbertConfig,
    frame: str = "as_written",
    vacuum_threshold: float = 1e-12,
) -> float:
    """Equal-time second-order correlation <a'a'aa> / <a'a>^2 at steady state."""
    validate_params(p)
    rho = steady_state_exact(build_liouvillian(p, h, frame=frame))
    return _g2_of(rho, h, vacuum_threshold)


def g2_zero_converged(
    p: SystemParams,
    h: HilbertConfig,
    rel_tol: float = FLUX_CUTOFF_RTOL,
    frame: str = "as_written",
) -> tuple[float, int]:
    """g2(0) converged in the Fock cutoff; returns (value, n_max used)."""
    g2, h_used, _ = converge_in_cutoff(p, h, _g2_of, rel_tol, frame)
    return g2, h_used.n_max
