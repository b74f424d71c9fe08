"""Brute-force Lindblad solver on the full Hilbert space Fock(n_max) x (C^2)^N.

This module is the oracle of the toolkit: it builds the sparse Liouvillian
superoperator of the driven-dissipative Tavis-Cummings model, solves for the
steady state via a trace-replacement linear system, time-evolves density
matrices by a dense matrix exponential of each charge block, and evaluates
observables exactly.  L is affine in the parameters, so its structure, term
tags and weights are cached once per HilbertConfig and a build only fills in
the values (see build_liouvillian); the observable operators are cached too.
L acts on d^2 unknowns with d = (n_max+1)*2^N, and never mixes elements rho_ij
of different charge E_i - E_j, where E is the excitation number.  The
steady-state solve keeps only the charge-0 block, sum_E b_E^2 unknowns for b_E
basis states at each E (744 of 4096 at N=4, n_max=3).  Both still grow
exponentially in N, so the oracle is only usable for small N; the cumulant
module covers large N.

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
  removes the phase rate k*delta (delta ~ 2e3 meV) from each charge-k block of
  L, so the matrix exponential of time_evolve needs fewer squarings; the
  charge-0 block is the same in both frames up to rounding.
* dissipators: L[A] rho = A rho A' - (1/2){A'A, rho} at rates
  kappa (A = a), omega (A = s+_n), gamma_minus (A = s-_n), gamma_z (A = sz_n).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .errors import (
    CutoffNotConverged,
    DegenerateSteadyState,
    DimensionCap,
    IndexOutOfRange,
    InvalidValue,
    UnknownObservable,
    VacuumState,
)
from .params import SystemParams, validate_params

DEFAULT_DIMENSION_CAP = 4096

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
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


def _read_only(*ops: sp.csr_matrix):
    """Sort each operator's indices, then freeze its arrays, so that a cached copy can be shared."""
    for op in ops:
        op.sum_duplicates()
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _ladder_operators(h: HilbertConfig) -> tuple[sp.csr_matrix, tuple, tuple]:
    """a, every sigma-minus_n and every sigma-z_n on h, built once per configuration, read-only."""
    a = field_operator(h, destroy_op(h.n_max + 1))
    sigma_minus = tuple(site_operator(h, _SIGMA_MINUS, n) for n in range(h.n_emitters))
    sigma_z = tuple(site_operator(h, _SIGMA_Z, n) for n in range(h.n_emitters))
    _read_only(a, *sigma_minus, *sigma_z)
    return a, sigma_minus, sigma_z


def _excitations(h: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Photon number n_i and excited-emitter number e_i of each basis index i = n * 2^N + s."""
    spins = 2**h.n_emitters
    photons = np.repeat(np.arange(h.n_max + 1), spins)
    excited = np.tile([s.bit_count() for s in range(spins)], h.n_max + 1)
    return photons, excited


@functools.lru_cache(maxsize=16)
def _charge(h: HilbertConfig) -> np.ndarray:
    """E_i - E_j at each column-stacked vec index i + j*d, read-only.

    E = a'a + sum_n s+_n s-_n is diagonal in the product basis: basis index
    i = n * 2^N + s carries n photons and popcount(s) excited emitters.  L
    never mixes elements of different charge (see steady_state_exact).
    """
    photons, excited = _excitations(h)
    # the smallest signed type that holds +-(n_max + N) keeps the d^2 entries small
    energy = (photons + excited).astype(np.min_scalar_type(-1 - h.n_max - h.n_emitters))
    charge = (energy[:, None] - energy[None, :]).reshape(-1, order="F")
    charge.flags.writeable = False
    return charge


@functools.lru_cache(maxsize=16)
def _zero_difference_sector(h: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ascending vec indices of the charge-0 rho_ij, so rho_00 first, and where rho_ii sits."""
    sector = np.flatnonzero(_charge(h) == 0)
    diagonal = np.searchsorted(sector, np.arange(h.dim) * (h.dim + 1))
    for arr in (sector, diagonal):
        arr.flags.writeable = False
    return sector, diagonal


# term tags of the entries of L: the off-diagonal terms scale with -i g, kappa,
# omega and gamma_minus; the diagonal is filled in separately
_G, _KAPPA, _OMEGA, _GAMMA_MINUS, _DIAGONAL = range(5)


@dataclass(frozen=True)
class _LiouvillianPattern:
    """Everything in L that does not depend on the parameters, for one HilbertConfig."""

    indptr: np.ndarray    # CSR row pointers of every entry L can hold (int32)
    indices: np.ndarray   # CSR column indices (int32)
    diagonal: np.ndarray  # position of the entry L[r, r] for r = 0..d^2-1 (int32)
    tags: np.ndarray      # term of each entry (int8), _DIAGONAL on the diagonal
    weights: np.ndarray   # real weight of each entry (the diagonal is overwritten)
    photons: np.ndarray   # n_i
    excited: np.ndarray   # e_i
    zz: np.ndarray        # sum_n z_n(i) z_n(j), d x d (int8)


@functools.lru_cache(maxsize=16)
def _liouvillian_pattern(h: HilbertConfig) -> _LiouvillianPattern:
    """The structure, term tags and weights of L on h, built once per configuration, read-only.

    The four off-diagonal terms of L (see build_liouvillian) never share an
    entry: -i g[(I kron C) - (C kron I)] changes only one side of rho, while
    a kron a, s+_n kron s+_n and s-_n kron s-_n change both sides, by one
    photon, a raised emitter n or a lowered emitter n.
    """
    d = h.dim
    a, sigma_minus, _ = _ladder_operators(h)
    ident = sp.identity(d, format="csr")
    coupling = sum(a.T @ sm + sm.T @ a for sm in sigma_minus).real
    terms = {
        _G: sp.kron(ident, coupling) - sp.kron(coupling, ident),
        _KAPPA: sp.kron(a, a).real,
        _OMEGA: sum(sp.kron(sm.T, sm.T) for sm in sigma_minus).real,
        _GAMMA_MINUS: sum(sp.kron(sm, sm) for sm in sigma_minus).real,
        _DIAGONAL: sp.identity(d * d),
    }
    parts = [op.tocoo() for op in terms.values()]
    rows = np.concatenate([op.row for op in parts])
    cols = np.concatenate([op.col for op in parts])
    order = np.lexsort((cols, rows))
    tags = np.repeat(np.array(list(terms), dtype=np.int8), [op.nnz for op in parts])[order]
    weights = np.concatenate([op.data for op in parts])[order]
    indptr = np.zeros(d * d + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=d * d), out=indptr[1:])

    photons, excited = _excitations(h)
    z = 2 * ((np.arange(d)[:, None] >> np.arange(h.n_emitters)) & 1) - 1
    pattern = _LiouvillianPattern(
        indptr=indptr,
        indices=cols[order].astype(np.int32),
        diagonal=np.flatnonzero(tags == _DIAGONAL).astype(np.int32),
        tags=tags,
        weights=weights,
        photons=photons.astype(float),
        excited=excited.astype(float),
        zz=(z @ z.T).astype(np.int8),
    )
    for arr in vars(pattern).values():
        arr.flags.writeable = False
    return pattern


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
    """Assemble L with vec(rho_dot) = L vec(rho) for the full master equation.

    The anticommutator terms of the dissipators are folded into the
    non-Hermitian H_eff = H - (i/2) sum_k r_k A_k'A_k, so that

        L = -i (I kron H_eff) + i (H_eff* kron I) + sum_k r_k (A_k* kron A_k).

    Every A_k'A_k is diagonal, and so is H but for its coupling g C with
    C = sum_n (a' s-_n + s+_n a).  L is therefore affine in the parameters
    theta = (delta_c - shift, delta - shift, g, kappa, omega, gamma_minus,
    gamma_z): its off-diagonal entries are -i g [(I kron C) - (C kron I)] +
    kappa (a kron a) + omega sum_n (s+_n kron s+_n) + gamma_minus
    sum_n (s-_n kron s-_n), and its diagonal at vec index i + j*d is
    -i h_i + i h_j* + gamma_z sum_n z_n(i) z_n(j), where h is the diagonal of
    H_eff.  The parameter-free structure comes from _liouvillian_pattern(h),
    so a build is one gather of the term coefficients, one broadcast for the
    diagonal and the removal of the entries that a zero g or rate leaves.
    """
    validate_params(p)
    h.check_cap()
    if frame not in ("as_written", "rotating"):
        raise InvalidValue(f"unknown frame {frame!r}")
    shift = p.delta if frame == "rotating" else 0.0
    pattern = _liouvillian_pattern(h)
    n, e, n_em = pattern.photons, pattern.excited, h.n_emitters
    h_eff = (p.delta_c - shift) * n + (p.delta - shift) * e - 0.5j * (
        p.kappa * n + p.omega * (n_em - e) + p.gamma_minus * e + p.gamma_z * n_em
    )
    coefficients = np.array([-1j * p.g, p.kappa, p.omega, p.gamma_minus, 0.0])
    data = coefficients[pattern.tags] * pattern.weights
    diagonal = (-1j * h_eff)[:, None] + (1j * h_eff.conj())[None, :] + p.gamma_z * pattern.zz
    data[pattern.diagonal] = diagonal.reshape(-1, order="F")
    d2 = h.dim**2
    liou = sp.csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(d2, d2)
    )
    liou.eliminate_zeros()
    return Liouvillian(matrix=liou, hilbert=h, params=p, frame=frame)


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
    """Unique steady state, solved on the zero-excitation-difference sector.

    H conserves E = a'a + sum_n s+_n s-_n, and every jump operator shifts E by
    the same amount on both sides of rho, so L never mixes elements rho_ij of
    different charge E_i - E_j.  The steady state lies in the E_i = E_j block,
    which holds sum_E b_E^2 of the d^2 unknowns (b_E basis states at each E;
    744 of 4096 at N=4, n_max=3).  One (redundant) row of that block is
    replaced by the trace functional with right-hand side 1, the system is
    factorised once, and the factor is reused for up to three rounds of
    iterative refinement.  A singular factorisation, or a residual
    ||L vec(rho)||_inf on the full L above STEADY_RESIDUAL_TOL, signals a
    degenerate null space.

    Why the block is enough: L commutes with rho -> e^{i phi E} rho e^{-i phi E},
    so L and its adjoint L^dag are block diagonal in the charge, with equal
    nullity in each block.  Every fixed point lives on the support R of a
    maximal-rank steady state, which can be taken phase-averaged, so R
    commutes with E and L restricted to R keeps each block's nullity.  There a
    steady state is faithful, so the null space of the restricted L^dag is a
    unital *-algebra A (Frigerio, Commun. Math. Phys. 63, 269, 1978).  A fixed
    point outside the block would put an X != 0 of charge k != 0 into A.  Then
    X'X in A has charge 0: either it is not a multiple of the identity, which
    makes a second null vector inside the block, or X is a multiple of a
    unitary with X' E X = E + k, which no finite spectrum allows.  So a
    one-dimensional null space in the block certifies a unique steady state.
    """
    d = liou.dim
    lmat = liou.matrix.tocsr()
    sector, diagonal = _zero_difference_sector(liou.hilbert)
    m = len(sector)
    # the entries of L's sector rows after row 0, in row order (so each column
    # of the system comes out sorted), with their columns renumbered within the
    # sector; row 0 becomes the trace functional
    starts = lmat.indptr[sector[1:]]
    counts = lmat.indptr[sector[1:] + 1] - starts
    entries = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    rows = np.repeat(np.arange(1, m), counts)
    targets = lmat.indices[entries]
    cols = np.searchsorted(sector, targets)
    # drops nothing from build_liouvillian's L, which never mixes charges; an L
    # that does keeps only its block, and fails the residual check below
    inside = sector[np.minimum(cols, m - 1)] == targets
    system = sp.csc_matrix(
        (
            np.concatenate([np.ones(d, dtype=complex), lmat.data[entries][inside]]),
            (np.concatenate([np.zeros(d, dtype=int), rows[inside]]),
             np.concatenate([diagonal, cols[inside]])),
        ),
        shape=(m, m),
    )
    rhs = np.zeros(m, dtype=complex)
    rhs[0] = 1.0

    try:
        # ordering on the structure of A + A^T: at N=4-5, n_max=3 it leaves about
        # half the fill of the default COLAMD and factorises 2-3x faster
        lu = spla.splu(system, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyState(f"steady-state solve failed: {e}") from e
    except MemoryError as e:
        raise DimensionCap(
            f"factorising the steady-state system of {m} sector unknowns ran out of memory"
        ) from e
    x = lu.solve(rhs)
    for _ in range(3):
        resid = rhs - system @ x
        if np.abs(resid).max() < 1e-14:
            break
        x = x + lu.solve(resid)
    if not np.all(np.isfinite(x)):
        raise DegenerateSteadyState("steady-state solve returned non-finite values")

    full = np.zeros(d * d, dtype=complex)
    full[sector] = x
    rho = unvec(full, d)
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


def time_evolve(liou: Liouvillian, rho0: DensityMatrix, t_final: float) -> DensityMatrix:
    """rho(t_final) = exp(t_final L) rho0, one dense matrix exponential per charge block.

    L never mixes charges E_i - E_j (see steady_state_exact), so each charge
    that vec(rho0) occupies evolves on its own under exp(t_final L_k), by
    scaling and squaring (scipy.linalg.expm); a vacuum start occupies only
    charge 0.  A block with more unknowns than h.cap raises DimensionCap first.
    A rho0 that is not Hermitian to HERMITICITY_TOL raises InvalidValue, since
    the result is symmetrised.
    """
    if not (np.isfinite(t_final) and t_final >= 0):
        raise InvalidValue(f"t_final must be finite and >= 0, got {t_final}")
    d = liou.dim
    if rho0.mat.shape != (d, d):
        raise InvalidValue(f"rho0 has shape {rho0.mat.shape}, the Liouvillian acts on {d}x{d}")
    herm = float(np.abs(rho0.mat - rho0.mat.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise InvalidValue(f"rho0 is not Hermitian: max |rho0 - rho0^+| = {herm:.3e}")
    if t_final == 0.0:
        return DensityMatrix(rho0.mat.copy())
    y0 = vec(rho0.mat).astype(complex)
    charge = _charge(liou.hilbert)
    blocks = [np.flatnonzero(charge == k) for k in np.unique(charge[y0 != 0])]
    biggest = max(map(len, blocks), default=0)
    if biggest > liou.hilbert.cap:
        raise DimensionCap(f"charge block of {biggest} unknowns exceeds cap {liou.hilbert.cap}")
    lmat = liou.matrix.tocsr()
    y = np.zeros_like(y0)
    for idx in blocks:
        y[idx] = expm(t_final * lmat[idx][:, idx].toarray()) @ y0[idx]
    rho = unvec(y, d)
    return DensityMatrix((rho + rho.conj().T) / 2)


# --- observables -----------------------------------------------------------------

OBSERVABLES = (
    "photon_number",     # a'a
    "sigma_z",           # sz_i
    "cross_pm",          # s+_i s-_j, i != j
    "cross_zz",          # sz_i sz_j, i != j
    "field_coherence",   # a' s-_i
    "photon_pair",       # a'a'aa
)


@functools.lru_cache(maxsize=64)
def observable_operator(
    which: str, h: HilbertConfig, i: int | None = None, j: int | None = None
) -> sp.csr_matrix:
    """Sparse operator for a named observable, built once per call signature, read-only."""
    a, sigma_minus, sigma_z = _ladder_operators(h)
    if which == "photon_number":
        op = a.conj().T @ a
    elif which == "photon_pair":
        ad = a.conj().T
        op = ad @ ad @ a @ a
    elif which == "sigma_z":
        return sigma_z[_require_index(i, h)]
    elif which == "field_coherence":
        op = a.conj().T @ sigma_minus[_require_index(i, h)]
    elif which == "cross_pm":
        ii, jj = _require_pair(i, j, h)
        op = sigma_minus[ii].conj().T @ sigma_minus[jj]
    elif which == "cross_zz":
        ii, jj = _require_pair(i, j, h)
        op = sigma_z[ii] @ sigma_z[jj]
    else:
        raise UnknownObservable(f"unknown observable {which!r}; choose from {OBSERVABLES}")
    op = op.tocsr()
    _read_only(op)
    return op


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
    return operator_expectation(observable_operator(which, h, i, j), rho.mat)


def operator_expectation(op: sp.spmatrix, mat: np.ndarray) -> complex:
    """Tr(O M) = sum of O_ij M_ji over O's nonzeros, for a sparse O and a dense M."""
    op = op.tocsr()
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex((op.data * mat[op.indices, rows]).sum())


def total_excitation_operator(h: HilbertConfig) -> sp.csr_matrix:
    """a'a + sum_n s+_n s-_n, conserved by H and by pure dephasing."""
    a, sigma_minus, _ = _ladder_operators(h)
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
