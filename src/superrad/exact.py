"""Exact Lindblad solver for N identical emitters in a lossy cavity.

This module is the oracle of the toolkit: it builds the sparse Liouvillian
superoperator of the driven-dissipative Tavis-Cummings model, solves for the
steady state via a trace-replacement linear system, time-evolves density
matrices by a dense matrix exponential of each charge block, and evaluates
observables exactly.  L is affine in the parameters, and never mixes
elements rho_ij of different charge E_i - E_j, where E is the excitation
number; the steady state lies in the charge-0 block.  L also maps Hermitian
operators to Hermitian ones, so the steady-state system is real, on the
Hermitian coordinates of that block.  Each builder keeps one pattern per
(n_max, N), whatever the cap: the structure, term tags and weights of L, the
inputs of its diagonal, and the charge-0 unknowns with their trace weights
and adjoints.  A build only fills in the values, and the structure of the
real system, with the sparse map from the entries of L to its values and
the COLAMD column order of each set of kept entries, is cached per pattern;
the observable operators are cached too.

There are two builders.  build_liouvillian acts on all d^2 elements of rho,
d = (n_max+1)*2^N; its unknowns are the charge-0 sector, sum_E b_E^2 of them
for b_E basis states at each E (744 at N=4, n_max=3), and it is the only
route for states that are not permutation symmetric (time_evolve).
build_symmetric_liouvillian acts on the permutation-symmetric charge-0
unknowns (92 at N=4, n_max=3), which grow as (n_max+1)^2 N^2/4, not as 4^N:
the flux and g2(0) ladders use it, and it reaches N = 20-40.  The cumulant
module covers arbitrary N approximately.

scipy is imported inside the functions that use it, so importing this module
costs only numpy, and scipy loads on the first exact-route call; the
cumulant, sweep, fit, reflectance and validate commands never load it.

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
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

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

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_UNKNOWNS_CAP = 4096

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
class HilbertConfig:
    """Truncated Hilbert space: photon cutoff n_max, N emitters, and a cap.

    The cap bounds the unknowns of every linear solve or dense block that is
    about to run: a steady-state system (len(liou.pattern.unknowns)) or a charge
    block of time_evolve.  Each is counted from (n_max, N) before it is
    assembled.  build_liouvillian, whose L has d^2 rows, also needs
    d = dim <= cap.
    """

    n_max: int
    n_emitters: int
    cap: int = DEFAULT_UNKNOWNS_CAP

    def __post_init__(self):
        for name in ("n_max", "n_emitters", "cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidValue(f"{name} must be an integer, got {value!r}")
        if self.n_max < 1:
            raise InvalidValue("n_max must be >= 1")
        if self.n_emitters < 1:
            raise InvalidValue("n_emitters must be >= 1")
        if self.cap < 1:
            raise InvalidValue("cap must be >= 1")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * 2**self.n_emitters

    @property
    def symmetric_unknowns(self) -> int:
        """Permutation-symmetric charge-0 unknowns, the smallest steady-state system of h."""
        return _symmetric_count(self.n_max, self.n_emitters)

    def check_cap(self) -> "HilbertConfig":
        """Raise DimensionCap if even the permutation-symmetric system exceeds the cap."""
        if self.symmetric_unknowns > self.cap:
            raise DimensionCap(
                f"{self.symmetric_unknowns} permutation-symmetric unknowns at n_max={self.n_max}, "
                f"N={self.n_emitters} exceed cap {self.cap}"
            )
        return self


@functools.lru_cache(maxsize=64)
def _symmetric_count(n_max: int, n_em: int) -> int:
    """Number of unknowns u(n, m, k) (see _symmetric_pattern), without listing them.

    Each k = (k_ee, k_eg, k_ge, k_gg) pairs with n_max + 1 - |k_eg - k_ge|
    photon pairs (n, m), and N - k_eg - k_ge + 1 values of k_ee go with each
    (k_eg, k_ge).
    """
    eg, ge = np.ogrid[: n_em + 1, : n_em + 1]
    rest = n_em - eg - ge
    pairs = np.maximum(n_max + 1 - abs(eg - ge), 0)
    return int(np.where(rest >= 0, (rest + 1) * pairs, 0).sum())


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


# --- operator builders -------------------------------------------------------

def destroy_op(n_levels: int) -> sp.csr_matrix:
    """Bosonic annihilation operator truncated to n_levels Fock states."""
    import scipy.sparse as sp
    data = np.sqrt(np.arange(1, n_levels, dtype=float))
    return sp.diags(data, offsets=1, format="csr").astype(complex)


def field_operator(h: HilbertConfig, op: np.ndarray | sp.spmatrix) -> sp.csr_matrix:
    """Embed a field-only operator into the full space."""
    import scipy.sparse as sp
    spins = sp.identity(2**h.n_emitters, dtype=complex, format="csr")
    return sp.kron(sp.csr_matrix(op), spins, format="csr")


def site_operator(h: HilbertConfig, op2: np.ndarray, site: int) -> sp.csr_matrix:
    """Embed a single-emitter operator at the given 0-based site."""
    import scipy.sparse as sp
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
def _ladder_operators(n_max: int, n_em: int) -> tuple[sp.csr_matrix, tuple, tuple]:
    """a, every sigma-minus_n and every sigma-z_n, built once per (n_max, N), read-only."""
    h = HilbertConfig(n_max, n_em)
    a = field_operator(h, destroy_op(n_max + 1))
    sigma_minus = tuple(site_operator(h, _SIGMA_MINUS, n) for n in range(n_em))
    sigma_z = tuple(site_operator(h, _SIGMA_Z, n) for n in range(n_em))
    _read_only(a, *sigma_minus, *sigma_z)
    return a, sigma_minus, sigma_z


def _excitations(n_max: int, n_em: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon number n_i and excited-emitter number e_i of each basis index i = n * 2^N + s."""
    spins = 2**n_em
    photons = np.repeat(np.arange(n_max + 1), spins)
    excited = np.tile([s.bit_count() for s in range(spins)], n_max + 1)
    return photons, excited


@functools.lru_cache(maxsize=16)
def _charge(n_max: int, n_em: int) -> np.ndarray:
    """E_i - E_j at each column-stacked vec index i + j*d, read-only.

    E = a'a + sum_n s+_n s-_n is diagonal in the product basis: basis index
    i = n * 2^N + s carries n photons and popcount(s) excited emitters.  L
    never mixes elements of different charge (see steady_state_exact).
    """
    photons, excited = _excitations(n_max, n_em)
    # the smallest signed type that holds +-(n_max + N) keeps the d^2 entries small
    energy = (photons + excited).astype(np.min_scalar_type(-1 - n_max - n_em))
    charge = (energy[:, None] - energy[None, :]).reshape(-1, order="F")
    charge.flags.writeable = False
    return charge


# term tags of the entries of L: the off-diagonal terms scale with -i g, kappa,
# omega and gamma_minus; the diagonal is filled in separately
_G, _KAPPA, _OMEGA, _GAMMA_MINUS, _DIAGONAL = range(5)


@dataclass(frozen=True, eq=False)  # hashed by identity, the key of _hermitian_system
class _Pattern:
    """Everything in one builder's L that does not depend on the parameters, read-only.

    L acts on the coordinates v of a state; the diagonal of H_eff at the
    ket and at the bra of each coordinate gives L's diagonal (see _assemble).
    """

    indptr: np.ndarray    # CSR row pointers of every entry L can hold (int32)
    indices: np.ndarray   # CSR column indices (int32)
    diagonal: np.ndarray  # position of the entry L[r, r] for each row r (int32)
    tags: np.ndarray      # term of each entry (int8), _DIAGONAL on the diagonal
    weights: np.ndarray   # real weight of each entry (the diagonal is overwritten)
    ket: np.ndarray       # (photons, excited emitters) of each coordinate's ket
    bra: np.ndarray       # the same of its bra, broadcastable against ket
    zz: np.ndarray        # sum_n z_n(ket) z_n(bra)
    unknowns: np.ndarray  # ascending positions in v of the charge-0 coordinates solved for
    trace_weights: np.ndarray  # Tr rho = trace_weights @ v[unknowns]; the first is nonzero
    adjoint: np.ndarray   # position among the unknowns of each one's Hermitian conjugate


def _csr_pattern(rows, cols, tags, weights, size: int) -> dict:
    """CSR structure of tagged entries, none of them sharing a position."""
    order = np.lexsort((cols, rows))
    tags = tags[order]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return {
        "indptr": indptr,
        "indices": cols[order].astype(np.int32),
        "diagonal": np.flatnonzero(tags == _DIAGONAL).astype(np.int32),
        "tags": tags,
        "weights": weights[order],
    }


def _freeze(cls, **arrays):
    """A pattern of type cls with every array made read-only."""
    for arr in arrays.values():
        arr.flags.writeable = False
    return cls(**arrays)


@functools.lru_cache(maxsize=16)
def _liouvillian_pattern(n_max: int, n_em: int) -> _Pattern:
    """build_liouvillian's pattern, once per (n_max, N).

    The four off-diagonal terms of L (see build_liouvillian) never share an
    entry: -i g[(I kron C) - (C kron I)] changes only one side of rho, while
    a kron a, s+_n kron s+_n and s-_n kron s-_n change both sides, by one
    photon, a raised emitter n or a lowered emitter n.  The unknowns are the
    charge-0 vec indices, rho_00 first; the trace weights are 1 on rho_ii.
    """
    import scipy.sparse as sp
    d = (n_max + 1) * 2**n_em
    a, sigma_minus, _ = _ladder_operators(n_max, n_em)
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
    ket = np.stack(_excitations(n_max, n_em)).astype(float)[:, :, None]
    z = 2 * ((np.arange(d)[:, None] >> np.arange(n_em)) & 1) - 1
    unknowns = np.flatnonzero(_charge(n_max, n_em) == 0)
    trace_weights = np.zeros(len(unknowns))
    trace_weights[np.searchsorted(unknowns, np.arange(d) * (d + 1))] = 1.0
    col, row = np.divmod(unknowns, d)  # vec index row + col * d
    return _freeze(
        _Pattern,
        **_csr_pattern(
            np.concatenate([op.row for op in parts]),
            np.concatenate([op.col for op in parts]),
            np.repeat(np.array(list(terms), dtype=np.int8), [op.nnz for op in parts]),
            np.concatenate([op.data for op in parts]),
            d * d,
        ),
        ket=ket,
        bra=ket.transpose(0, 2, 1),
        zz=(z @ z.T).astype(np.int8),
        unknowns=unknowns,
        trace_weights=trace_weights,
        adjoint=np.searchsorted(unknowns, col + row * d),
    )


@dataclass(frozen=True)
class Liouvillian:
    """Sparse generator L acting on the vector v of a state's coordinates.

    build_liouvillian's L acts on vec(rho), build_symmetric_liouvillian's on
    the permutation-symmetric unknowns u.  Either carries what the
    steady-state solve needs: `entries`, the values of every entry of its
    cached pattern in pattern order, zeros included, which _hermitian_system
    maps to the real steady-state system; and `pattern`, with the unknowns
    solved for and their trace weights.
    """

    matrix: sp.csr_matrix
    hilbert: HilbertConfig
    params: SystemParams
    frame: str
    entries: np.ndarray
    pattern: _Pattern

    @property
    def dim(self) -> int:
        """Dimension d of the Hilbert space the state lives in (not of L)."""
        return self.hilbert.dim

    def state(self, v: np.ndarray) -> "DensityMatrix":
        """The state whose coordinates L acts on are v."""
        return DensityMatrix(unvec(v, self.dim))

    def trace_row(self) -> np.ndarray:
        """The trace functional on v, the left null vector enforced by trace preservation."""
        row = np.zeros(self.matrix.shape[1])
        row[self.pattern.unknowns] = self.pattern.trace_weights
        return row

    def trace_residual(self) -> float:
        """max |trace_row() L|, zero for a trace-preserving generator."""
        return float(np.abs(self.trace_row() @ self.matrix).max())


def _h_eff(p: SystemParams, shift: float, photons, excited, n_em: int) -> np.ndarray:
    """Diagonal of H_eff = H - (i/2) sum_k r_k A_k'A_k at n photons and e excited emitters."""
    return (p.delta_c - shift) * photons + (p.delta - shift) * excited - 0.5j * (
        p.kappa * photons + p.omega * (n_em - excited) + p.gamma_minus * excited + p.gamma_z * n_em
    )


def _check_model(p: SystemParams, h: HilbertConfig, frame: str):
    """Validate p and the frame, and check that h holds p's emitters and fits the cap."""
    validate_params(p)
    if frame not in ("as_written", "rotating"):
        raise InvalidValue(f"unknown frame {frame!r}")
    if p.n_emitters != h.n_emitters:
        raise InvalidValue(
            f"params have {p.n_emitters} emitters but the Hilbert space {h.n_emitters}"
        )
    h.check_cap()


def _assemble(cls, pattern: _Pattern, p: SystemParams, h: HilbertConfig, frame: str):
    """L of type cls from its cached pattern: each entry's term coefficient times its
    weight, the diagonal -i e(ket) + i e*(bra) + gamma_z zz with e the diagonal of
    H_eff, and no entry that a zero g or rate leaves.  L's entries in pattern order,
    zeros included, are kept read-only for the steady-state solve."""
    import scipy.sparse as sp
    shift = p.delta if frame == "rotating" else 0.0
    ket = _h_eff(p, shift, *pattern.ket, h.n_emitters)
    bra = _h_eff(p, shift, *pattern.bra, h.n_emitters)
    coefficients = np.array([-1j * p.g, p.kappa, p.omega, p.gamma_minus, 0.0])
    entries = coefficients[pattern.tags] * pattern.weights
    diagonal = -1j * ket + 1j * bra.conj() + p.gamma_z * pattern.zz
    entries[pattern.diagonal] = diagonal.ravel(order="F")
    entries.flags.writeable = False
    size = len(pattern.indptr) - 1
    # eliminate_zeros compacts L's arrays in place, so L gets its own copies
    liou = sp.csr_matrix(
        (entries.copy(), pattern.indices.copy(), pattern.indptr.copy()), shape=(size, size)
    )
    liou.eliminate_zeros()
    return cls(liou, h, p, frame, entries, pattern)


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
    H_eff.  The parameter-free structure comes from _liouvillian_pattern, so a
    build is one gather of the term coefficients, one broadcast for the
    diagonal and the removal of the entries that a zero g or rate leaves.
    """
    _check_model(p, h, frame)
    if h.dim > h.cap:  # the pattern holds d^2 rows, whatever is solved on it
        raise DimensionCap(
            f"Hilbert dimension {h.dim} = ({h.n_max}+1)*2^{h.n_emitters} exceeds cap {h.cap}"
        )
    return _assemble(Liouvillian, _liouvillian_pattern(h.n_max, h.n_emitters), p, h, frame)


# --- permutation-symmetric Liouvillian ---------------------------------------------

# Off-diagonal moves of L on u: (term, change of n, change of m, change of
# (k_ee, k_eg, k_ge, k_gg), field factor).  Summed over the sites, a one-site
# map taking |a><b| to |a'><b'| moves u(k) to u(k - e_ab + e_a'b') with weight
# k_ab times the field factor.  Left of rho, a' s-_n lowers an e on the ket
# and adds a photon, and s+_n a does the reverse; right of rho (sign -1),
# rho a' s-_n raises a g on the bra and removes a photon, and rho s+_n a does
# the reverse.
_MOVES = (
    (_G, 1, 0, (-1, 0, 1, 0), "ket_up"),    # ee -> ge
    (_G, 1, 0, (0, -1, 0, 1), "ket_up"),    # eg -> gg
    (_G, -1, 0, (1, 0, -1, 0), "ket_down"),  # ge -> ee
    (_G, -1, 0, (0, 1, 0, -1), "ket_down"),  # gg -> eg
    (_G, 0, -1, (0, 0, 1, -1), "bra_down"),  # gg -> ge
    (_G, 0, -1, (1, -1, 0, 0), "bra_down"),  # eg -> ee
    (_G, 0, 1, (-1, 1, 0, 0), "bra_up"),    # ee -> eg
    (_G, 0, 1, (0, 0, -1, 1), "bra_up"),    # ge -> gg
    (_KAPPA, -1, -1, (0, 0, 0, 0), "both_down"),
    (_OMEGA, 0, 0, (1, 0, 0, -1), "none"),   # gg -> ee
    (_GAMMA_MINUS, 0, 0, (-1, 0, 0, 1), "none"),  # ee -> gg
)


@dataclass(frozen=True, eq=False)
class _SymmetricPattern(_Pattern):
    """The pattern of build_symmetric_liouvillian, whose coordinates are the unknowns u(n, m, k)."""

    k: np.ndarray         # (k_ee, k_eg, k_ge, k_gg) of each unknown, shape (4, count)
    index: np.ndarray     # position of the unknown at [n, k_ee, k_eg, k_ge], -1 where none


@functools.lru_cache(maxsize=16)
def _symmetric_pattern(n_max: int, n_em: int) -> _SymmetricPattern:
    """build_symmetric_liouvillian's pattern, once per (n_max, N).

    The unknowns are every (n, m, k) with k_ee + k_eg + k_ge + k_gg = N and
    (n - m) + (k_eg - k_ge) = 0, ordered by n, then k_ee, k_eg, k_ge, so that
    u(0, 0, (0, 0, 0, N)), the vacuum population, comes first.
    """
    n, ee, eg, ge = np.ogrid[: n_max + 1, : n_em + 1, : n_em + 1, : n_em + 1]
    present = (ee + eg + ge <= n_em) & (n + eg - ge >= 0) & (n + eg - ge <= n_max)
    index = np.full(present.shape, -1, dtype=np.int32)
    count = np.count_nonzero(present)
    index[present] = np.arange(count)
    n, ee, eg, ge = (arr[present] for arr in np.broadcast_arrays(n, ee, eg, ge))
    m, gg = n + eg - ge, n_em - ee - eg - ge
    k = np.stack([ee, eg, ge, gg])
    # the field factor of each move: sqrt of the photon number a or a' meets on
    # the ket or the bra, negative on the bra; sqrt(n * m) keeps kappa n exact
    # on a population
    field = {"ket_up": np.sqrt(n + 1.0), "ket_down": np.sqrt(n), "bra_down": -np.sqrt(m),
             "bra_up": -np.sqrt(m + 1.0), "both_down": np.sqrt(n * m), "none": np.ones(count)}
    rows, cols = [np.arange(count)], [np.arange(count)]
    tags, weights = [np.full(count, _DIAGONAL, dtype=np.int8)], [np.zeros(count)]
    for tag, dn, dm, dk, which in _MOVES:
        dk = np.array(dk)
        weight = field[which] * k[np.flatnonzero(dk < 0)[0]] if dk.any() else field[which]
        n_to, m_to = n + dn, m + dm
        keep = (weight != 0) & (n_to >= 0) & (n_to <= n_max) & (m_to >= 0) & (m_to <= n_max)
        k_to = k[:, keep] + dk[:, None]
        target = index[n_to[keep], k_to[0], k_to[1], k_to[2]]
        rows.append(target)
        cols.append(np.flatnonzero(keep))
        tags.append(np.full(target.size, tag, dtype=np.int8))
        weights.append(weight[keep])
    return _freeze(
        _SymmetricPattern,
        **_csr_pattern(*(np.concatenate(x) for x in (rows, cols, tags, weights)), count),
        ket=np.stack([n, ee + eg]).astype(float),
        bra=np.stack([m, ee + ge]).astype(float),
        zz=(ee + gg - eg - ge).astype(float),
        unknowns=np.arange(count),
        trace_weights=((n == m) & (eg == 0) & (ge == 0)).astype(float),
        adjoint=index[m, ee, ge, eg].astype(np.intp),
        k=k,
        index=index,
    )


@dataclass(frozen=True)
class SymmetricLiouvillian(Liouvillian):
    """L on the permutation-symmetric unknowns u; its states are SymmetricState."""

    def state(self, v: np.ndarray) -> "SymmetricState":
        return SymmetricState(v, self.hilbert)


def build_symmetric_liouvillian(
    p: SystemParams, h: HilbertConfig, frame: str = "as_written"
) -> SymmetricLiouvillian:
    """Assemble L with u_dot = L u on the permutation-symmetric charge-0 unknowns.

    A state of N identical emitters that no permutation of the emitters
    changes is rho = sum c(n, m, k) |n><m| (x) Sym(k), where Sym(k) sums the
    product of one-site operators |e><e|, |e><g|, |g><e|, |g><g| over every
    way to give them to k = (k_ee, k_eg, k_ge, k_gg) of the emitters, and
    the master equation keeps it so.  L acts on u(n, m, k) = M(k) c(n, m, k),
    M(k) = N!/prod_t k_t!, and keeps only the charge-0 ones, (n - m) +
    (k_eg - k_ge) = 0, which hold the steady state (see steady_state_exact):
    about (n_max+1)^2 N^2/4 of them for large N, since |k_eg - k_ge| <=
    n_max, against about 4^N (n_max+1) elements of rho.  A one-site term
    summed over the emitters moves u(k) to u(k - e_t + e_t') with weight
    S[t' <- t] k_t (see _MOVES); the field factors are those of
    build_liouvillian.  The diagonal at u(n, m, k) is -i h(n, k_ee + k_eg) +
    i h*(m, k_ee + k_ge) + gamma_z (k_ee + k_gg - k_eg - k_ge), with h the
    diagonal of H_eff at n photons and e excited emitters.  As in
    build_liouvillian, the pattern is cached per (n_max, N), and a build is
    one gather.  A configuration with more unknowns than its cap raises
    DimensionCap before anything is built.
    """
    _check_model(p, h, frame)
    return _assemble(
        SymmetricLiouvillian, _symmetric_pattern(h.n_max, h.n_emitters), p, h, frame
    )


# --- density matrices ---------------------------------------------------------

# invariant tolerances of DensityMatrix.validate, and the steady-state residual bound
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-8
STEADY_RESIDUAL_TOL = 1e-10


def _require_finite(values: np.ndarray, what: str):
    """Raise InvalidValue naming the non-finite entries of values, if there are any."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.argwhere(~finite)
        first = tuple(bad[0].tolist())
        raise InvalidValue(f"{what} non-finite entries: {len(bad)}; the first is "
                           f"{values[first]} at index {list(first)}")


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
        _require_finite(m, "density matrix")
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


@functools.lru_cache(maxsize=16)
def _spin_blocks(n_max: int, n_em: int) -> tuple[sp.csr_matrix, tuple[int, ...]]:
    """The linear map from u to the blocks rho_j of a permutation-symmetric rho, stacked.

    By Schur-Weyl duality such a rho is the direct sum over total spin j
    (2j = N, N-2, ...) of rho_j (x) I_{d_j}, with d_j = C(N, p) - C(N, p-1) for
    p = N/2 - j, so rho >= 0 exactly when every rho_j >= 0.  With |psi_jq> =
    |singlet>^(x)p (x) |Dicke_2j, q> (q excited of 2j emitters),
    rho_j[(n, q), (m, q')] = sum_k c(n, m, k) F_qq'(k), where F_qq'(k) is the
    coefficient of x^k in det(X)^p <D_q| X^(x)2j |D_q'> for the one-site
    X = [[x_gg, x_ge], [x_eg, x_ee]]:

        F = sum_b C(p, b) (-1)^b (2j)! / (a! (q-a)! (q'-a)! (2j-q-q'+a)!)
            / sqrt(C(2j, q) C(2j, q')),  a = k_ee - p + b, k_eg = q - a + b.

    Returns the map T, so that T @ u stacks each row-major block
    ((n_max+1)(2j+1) square, in p order), and the block sizes.
    """
    import scipy.sparse as sp
    index = _symmetric_pattern(n_max, n_em).index
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_em + 1)))])

    def log_binom(top, bottom):
        return log_fact[top] - log_fact[bottom] - log_fact[top - bottom]

    rows, cols, values, sizes = [], [], [], []
    offset = 0
    for p in range(n_em // 2 + 1):
        spins = n_em - 2 * p  # 2j
        q, qq, a, b = (x.ravel() for x in np.meshgrid(
            *[np.arange(spins + 1)] * 3, np.arange(p + 1), indexing="ij"))
        rest = spins - q - qq + a
        ok = (a <= q) & (a <= qq) & (rest >= 0)
        q, qq, a, b, rest = q[ok], qq[ok], a[ok], b[ok], rest[ok]
        k = np.stack([a + p - b, q - a + b, qq - a + b, rest + p - b])
        log_value = (log_binom(p, b) + log_fact[spins] - log_fact[a] - log_fact[q - a]
                     - log_fact[qq - a] - log_fact[rest]
                     - 0.5 * (log_binom(spins, q) + log_binom(spins, qq))
                     - log_fact[n_em] + log_fact[k].sum(axis=0))  # F / M(k): c = u / M(k)
        value = np.where(b % 2, -1.0, 1.0) * np.exp(log_value)
        # photon pairs of the block entry: n - m = k_ge - k_eg = q' - q
        n = np.arange(n_max + 1)[:, None]
        m = n + q - qq
        present = (m >= 0) & (m <= n_max)
        size = (n_max + 1) * (spins + 1)
        rows.append(offset + ((n * (spins + 1) + q) * size + m * (spins + 1) + qq)[present])
        cols.append(index[np.broadcast_to(n, m.shape), k[0], k[1], k[2]][present])
        values.append(np.broadcast_to(value, m.shape)[present])
        sizes.append(size)
        offset += size * size
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    blocks = sp.csr_matrix((values, (rows, cols)), shape=(offset, index.max() + 1))
    _read_only(blocks)
    return blocks, tuple(sizes)


@dataclass
class SymmetricState:
    """A permutation-symmetric joint state, held as its unknowns u(n, m, k).

    mat is u in the order of build_symmetric_liouvillian, the vector that
    its L acts on, as vec(DensityMatrix.mat) is for build_liouvillian's L;
    see build_symmetric_liouvillian for rho in terms of u.  Only charge-0
    elements are held, so every element of rho with E_i != E_j is zero.
    """

    mat: np.ndarray
    hilbert: HilbertConfig

    def _checked_unknowns(self) -> np.ndarray:
        """u, once it holds one value per unknown of its configuration."""
        count = self.hilbert.symmetric_unknowns
        if self.mat.shape != (count,):
            raise InvalidValue(f"u has shape {self.mat.shape}, the configuration has {count} unknowns")
        return self.mat

    def spin_blocks(self) -> list[np.ndarray]:
        """The blocks rho_j for 2j = N, N-2, ... (see _spin_blocks)."""
        blocks, sizes = _spin_blocks(self.hilbert.n_max, self.hilbert.n_emitters)
        flat = blocks @ self._checked_unknowns()
        out, start = [], 0
        for size in sizes:
            out.append(flat[start:start + size * size].reshape(size, size))
            start += size * size
        return out

    def validate(self) -> "SymmetricState":
        """Hermiticity and trace on u, positivity through every spin block."""
        pattern = _symmetric_pattern(self.hilbert.n_max, self.hilbert.n_emitters)
        u = self._checked_unknowns()
        _require_finite(u, "symmetric state u")
        herm = float(np.abs(u - u[pattern.adjoint].conj()).max())
        if herm > HERMITICITY_TOL:
            raise InvalidValue(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = complex(pattern.trace_weights @ u)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidValue(f"trace {tr} differs from 1 beyond tolerance")
        min_eig = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min())
                      for b in self.spin_blocks())
        if min_eig < -PSD_TOL:
            raise InvalidValue(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        return self


def trace_distance(a: DensityMatrix | SymmetricState, b: DensityMatrix | SymmetricState) -> float:
    """(1/2) * sum of singular values of (a - b), for two states of one kind and shape.

    Two SymmetricStates are compared on their spin blocks (see _spin_blocks)
    without expanding rho: (1/2) sum_j d_j ||rho_j - sigma_j||_1, where d_j =
    C(N, p) - C(N, p-1) is the multiplicity of rho_j.
    """
    symmetric = isinstance(a, SymmetricState)
    if symmetric != isinstance(b, SymmetricState):
        raise InvalidValue(f"cannot compare a {type(a).__name__} with a {type(b).__name__}")
    if symmetric:
        h, hb = a.hilbert, b.hilbert
        if (h.n_max, h.n_emitters) != (hb.n_max, hb.n_emitters):
            raise InvalidValue(f"states of n_max={h.n_max}, N={h.n_emitters} and "
                               f"n_max={hb.n_max}, N={hb.n_emitters} cannot be compared")
        n_em = h.n_emitters
        multiplicity = [math.comb(n_em, p) - (math.comb(n_em, p - 1) if p else 0)
                        for p in range(n_em // 2 + 1)]
        diffs = zip((x - y for x, y in zip(a.spin_blocks(), b.spin_blocks())), multiplicity)
    else:
        if a.mat.shape != b.mat.shape:
            raise InvalidValue(f"states of shape {a.mat.shape} and {b.mat.shape} cannot be compared")
        diffs = [(a.mat - b.mat, 1)]
    return 0.5 * sum(d_j * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
                     for diff, d_j in diffs)


# --- steady state and dynamics --------------------------------------------------

@dataclass(frozen=True)
class _ColumnOrder:
    """The column order COLAMD chose for one kept-entry mask of a _HermitianSystem, read-only.

    With A the system on the kept entries (data != 0) and q = argsort(perm),
    the reordered system is P' A P: its column j is A's column q[j], with
    row r renamed perm[r].  SuperLU prefers the diagonal pivot on a tie with
    the largest entry of a column, and it takes the diagonal of A's column
    q[j] at row q[j]; renaming the rows too keeps that diagonal on it.  The
    rows of each column stay in A's stored order, which SuperLU's search
    follows, so the indices are not sorted.
    """

    gather: np.ndarray   # positions in the full data of the reordered system's entries
    indptr: np.ndarray   # its CSC column pointers
    indices: np.ndarray  # its CSC row indices, renamed, in A's order within each column
    perm: np.ndarray     # SuperLU's perm_c of A: w = y[perm] for the reordered solution y
    inverse: np.ndarray  # q: the reordered right-hand side is b[q]


# kept-entry masks per system whose column order is kept; the zero parameters,
# and whether the detuning is zero, make the mask
_ORDERS_PER_SYSTEM = 8


@dataclass(frozen=True)
class _HermitianSystem:
    """The real trace-replaced steady-state system of one L pattern, read-only but for its orders.

    Its unknowns are the Hermitian coordinates w of the charge-0 unknowns u
    (see steady_state_exact): a pair i < j = adjoint[i] has u_i = w_i + i w_j
    and u_j = w_i - i w_j, and a self-adjoint u_s = w_s is real.
    """

    indptr: np.ndarray        # CSC column pointers of the m x m real system
    indices: np.ndarray       # CSC row indices
    entries: sp.csr_matrix    # data = entries @ (Re e_0, Im e_0, Re e_1, ...) for L's entries e
    trace_at: np.ndarray      # positions in data of the trace row, which entries leave 0
    trace_values: np.ndarray  # the trace weights there
    pairs: np.ndarray         # (i, adjoint[i]) for each pair, shape (2, count)
    # the _ColumnOrder of each kept-entry mask factorised so far, keyed by the
    # packed mask, oldest first; at most _ORDERS_PER_SYSTEM of them
    orders: dict = field(default_factory=dict)

    def factorise(self, data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The solve b -> w of the system with values data, as COLAMD on its kept entries gives it.

        The zeros that a zero parameter or a real diagonal leaves are dropped;
        kept, they slow the factorisation (3x at N=40, n_max=5, in the
        rotating frame).  The first factorisation of a kept-entry mask runs
        COLAMD and records its order.  COLAMD reads only the positions of the
        kept entries, and the perm_c it returns already holds SuperLU's
        elimination-tree postorder, so a later one factorises the system
        reordered by perm_c (see _ColumnOrder) with NATURAL, which reorders
        nothing: the same pivots, L and U, and a bitwise equal solve.  A
        factorisation that raises records nothing.
        """
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        m = len(self.indptr) - 1
        kept = data != 0
        key = np.packbits(kept).tobytes()
        order = self.orders.get(key)
        if order is None:
            before = np.zeros(len(data) + 1, dtype=self.indptr.dtype)
            np.cumsum(kept, out=before[1:])
            system = sp.csc_matrix((data[kept], self.indices[kept], before[self.indptr]), shape=(m, m))
            # COLAMD: on the symmetric unknowns it factorises 2.5-4x faster than
            # MMD_AT_PLUS_A at N=20 (53 against 203 ms at n_max=5) and as fast at N=4
            lu = spla.splu(system, permc_spec="COLAMD")
            self._record(key, kept, lu.perm_c)
            return lu.solve
        system = sp.csc_matrix((data[order.gather], order.indices, order.indptr), shape=(m, m))
        system.has_canonical_format = True  # no duplicates; keeps splu from sorting the rows
        lu = spla.splu(system, permc_spec="NATURAL")
        return lambda b: lu.solve(b[order.inverse])[order.perm]

    def _record(self, key: bytes, kept: np.ndarray, perm: np.ndarray):
        """Keep the _ColumnOrder perm of the kept entries under key, dropping the oldest past the bound."""
        m = len(self.indptr) - 1
        rank = perm[np.repeat(np.arange(m), np.diff(self.indptr))[kept]]
        gather = np.flatnonzero(kept)[np.argsort(rank, kind="stable")]
        indptr = np.zeros(m + 1, dtype=self.indptr.dtype)
        np.cumsum(np.bincount(rank, minlength=m), out=indptr[1:])
        # two blocks, not five arrays: in the oracle benchmark five small arrays
        # kept per order raised the peak RSS by 1.4 MB, the two blocks by about 0.3 MB
        positions = np.concatenate([gather, perm, np.argsort(perm)])
        csc = np.concatenate([indptr, perm[self.indices[gather]]]).astype(self.indices.dtype)
        positions.flags.writeable = csc.flags.writeable = False
        nnz = len(gather)
        order = _ColumnOrder(positions[:nnz], csc[: m + 1], csc[m + 1:],
                             positions[nnz: nnz + m], positions[nnz + m:])
        if len(self.orders) >= _ORDERS_PER_SYSTEM:
            self.orders.pop(next(iter(self.orders)), None)
        self.orders[key] = order


@functools.lru_cache(maxsize=16)
def _hermitian_system(pattern: _Pattern) -> _HermitianSystem:
    """The structure of the real system on the unknowns of an L pattern, once per pattern.

    For u Hermitian, (L u)_j is the conjugate of (L u)_i for a pair and (L u)_s
    is real, so the equations are Re (L u)_i in row i and Im (L u)_i in row j
    for each pair, and Re (L u)_s in row s.  An entry e of L at row i and a
    column c with u_c = w_lo + sigma i w_hi (sigma = +1 if c is the lower of
    its pair, -1 if the upper) adds Re e to (i, lo), -sigma Im e to (i, hi),
    Im e to (j, lo) and sigma Re e to (j, hi).  Rows of L at the upper of a
    pair are the conjugates of others and are not read; row 0, whose unknown
    carries a trace weight, becomes the trace row.  An entry of term g is
    imaginary for every parameter, and one of kappa, omega or gamma_minus is
    real, so their other part adds nothing to the structure.
    """
    import scipy.sparse as sp
    unknowns, trace_weights, adjoint = pattern.unknowns, pattern.trace_weights, pattern.adjoint
    m = len(unknowns)
    size = len(pattern.indptr) - 1
    position = np.full(size, -1)
    position[unknowns] = np.arange(m)
    entry = np.arange(len(pattern.indices))
    row = position[np.repeat(np.arange(size), np.diff(pattern.indptr))]
    col = position[pattern.indices]
    # the rows read: not row 0, nor one at the upper of a pair; an entry
    # outside the unknowns cannot reach them
    keep = (row > 0) & (col >= 0)
    keep[keep] = adjoint[row[keep]] >= row[keep]
    entry, row, col, tag = entry[keep], row[keep], col[keep], pattern.tags[keep]
    row_mate, col_mate = adjoint[row], adjoint[col]
    lo, hi = np.minimum(col, col_mate), np.maximum(col, col_mate)
    one, sigma = np.ones(len(entry)), np.where(col == lo, 1.0, -1.0)
    real, imag = tag != _G, (tag == _G) | (tag == _DIAGONAL)
    row_pair, col_pair = row_mate != row, col_mate != col
    # (system row, system column, source 2e or 2e + 1 for Re e or Im e, factor, present)
    parts = [
        (row, lo, 2 * entry, one, real),
        (row, hi, 2 * entry + 1, -sigma, col_pair & imag),
        (row_mate, lo, 2 * entry + 1, one, row_pair & imag),
        (row_mate, hi, 2 * entry, sigma, row_pair & col_pair & real),
    ]
    rows, cols, sources, factors = (np.concatenate([part[k][part[4]] for part in parts])
                                    for k in range(4))
    traced = np.flatnonzero(trace_weights)
    keys, slot = np.unique(np.concatenate([cols * m + rows, traced * m]), return_inverse=True)
    indices = (keys % m).astype(np.int32)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    entries = sp.csr_matrix(
        (factors, (slot[: len(rows)], sources)), shape=(len(keys), 2 * len(pattern.indices))
    )
    below = np.flatnonzero(adjoint > np.arange(m))
    system = _HermitianSystem(indptr, indices, entries, slot[len(rows):],
                              trace_weights[traced], np.stack([below, adjoint[below]]))
    _read_only(entries)
    for arr in (indptr, indices, system.trace_at, system.trace_values, system.pairs):
        arr.flags.writeable = False
    return system


def steady_state_exact(liou: Liouvillian) -> DensityMatrix | SymmetricState:
    """Unique steady state, solved as a real system on the charge-0 unknowns that liou carries.

    H conserves E = a'a + sum_n s+_n s-_n, and every jump operator shifts E by
    the same amount on both sides of rho, so L never mixes elements rho_ij of
    different charge E_i - E_j.  The steady state lies in the E_i = E_j block:
    sum_E b_E^2 of the d^2 elements of vec(rho) (b_E basis states at each E;
    744 of 4096 at N=4, n_max=3), or every permutation-symmetric unknown
    (92 at N=4, n_max=3).  A block with more unknowns than the cap raises
    DimensionCap before anything is assembled for it.

    L maps Hermitian operators to Hermitian operators, so the solve runs on
    the real Hermitian coordinates w of the block, as many as its complex
    unknowns u (see _hermitian_system): Re and Im of one equation of each
    conjugate pair and Re of each self-adjoint one, with the first equation,
    which has a trace weight and is redundant, replaced by the trace
    functional with right-hand side 1.  Its structure, and the sparse map
    from the entries of L to its values, are cached per L pattern, so a
    solve is one sparse product, one real LU factorisation, up to three
    rounds of iterative refinement with that factor, and u from w, Hermitian
    by construction.  The factorisation drops the zero entries and runs
    COLAMD on the first solve of each set of kept entries; the structure
    records that column order, and later solves factorise in it (see
    _HermitianSystem.factorise), with the same pivots, L and U, so w is
    bitwise the one COLAMD gives.  u is normalised and the state validated.  A
    singular factorisation, or a residual ||L v||_inf on all of L above
    STEADY_RESIDUAL_TOL, signals a degenerate null space.

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
    import scipy.sparse as sp
    pattern = liou.pattern
    m = len(pattern.unknowns)
    if m > liou.hilbert.cap:
        raise DimensionCap(f"steady-state system of {m} sector unknowns exceeds cap {liou.hilbert.cap}")
    structure = _hermitian_system(pattern)
    data = structure.entries @ liou.entries.view(np.float64)
    data[structure.trace_at] = structure.trace_values
    # the residual sums over every entry in the stored order, as the system on
    # the kept entries does, since a dropped entry adds an exact 0
    system = sp.csc_matrix((data, structure.indices, structure.indptr), shape=(m, m))
    rhs = np.zeros(m)
    rhs[0] = 1.0

    try:
        solve = structure.factorise(data)
    except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyState(f"steady-state solve failed: {e}") from e
    except MemoryError as e:
        raise DimensionCap(
            f"factorising the steady-state system of {m} sector unknowns ran out of memory"
        ) from e
    w = solve(rhs)
    for _ in range(3):
        resid = rhs - system @ w
        if np.abs(resid).max() < 1e-14:
            break
        w = w + solve(resid)
    if not np.all(np.isfinite(w)):
        raise DegenerateSteadyState("steady-state solve returned non-finite values")

    tr = pattern.trace_weights @ w
    if not np.isfinite(tr) or abs(tr) < 1e-12:
        raise DegenerateSteadyState("steady-state trace collapsed to zero")
    lower, upper = structure.pairs
    u = w.astype(complex)
    u[lower] += 1j * w[upper]
    u[upper] = u[lower].conj()
    lmat = liou.matrix
    v = np.zeros(lmat.shape[1], dtype=complex)
    v[pattern.unknowns] = u / tr

    residual = float(np.abs(lmat @ v).max())
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyState(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}; "
            "null space is likely degenerate"
        )
    return liou.state(v).validate()


def time_evolve(liou: Liouvillian, rho0: DensityMatrix, t_final: float) -> DensityMatrix:
    """rho(t_final) = exp(t_final L) rho0, one dense matrix exponential per charge block.

    L never mixes charges E_i - E_j (see steady_state_exact), so each charge
    that vec(rho0) occupies evolves on its own under exp(t_final L_k), by
    scaling and squaring (scipy.linalg.expm); a vacuum start occupies only
    charge 0.  A block with more unknowns than h.cap raises DimensionCap first.
    A rho0 that is not Hermitian to HERMITICITY_TOL raises InvalidValue, since
    the result is symmetrised.
    """
    from scipy.linalg import expm
    if not (np.isfinite(t_final) and t_final >= 0):
        raise InvalidValue(f"t_final must be finite and >= 0, got {t_final}")
    d = liou.dim
    if liou.matrix.shape[0] != d * d:
        raise InvalidValue("time_evolve needs the full-space Liouvillian of build_liouvillian")
    if rho0.mat.shape != (d, d):
        raise InvalidValue(f"rho0 has shape {rho0.mat.shape}, the Liouvillian acts on {d}x{d}")
    herm = float(np.abs(rho0.mat - rho0.mat.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise InvalidValue(f"rho0 is not Hermitian: max |rho0 - rho0^+| = {herm:.3e}")
    if t_final == 0.0:
        return DensityMatrix(rho0.mat.copy())
    y0 = vec(rho0.mat).astype(complex)
    charge = _charge(liou.hilbert.n_max, liou.hilbert.n_emitters)
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

# each observable, and the number of emitter indices it reads
OBSERVABLES = {
    "photon_number": 0,     # a'a
    "sigma_z": 1,           # sz_i
    "cross_pm": 2,          # s+_i s-_j, i != j
    "cross_zz": 2,          # sz_i sz_j, i != j
    "field_coherence": 1,   # a' s-_i
    "photon_pair": 0,       # a'a'aa
}


def _observable_key(which: str, h: HilbertConfig, i, j) -> tuple:
    """(which, n_max, N, the emitter indices it reads of (i, j)), checked against h."""
    if which not in OBSERVABLES:
        raise UnknownObservable(f"unknown observable {which!r}; choose from {tuple(OBSERVABLES)}")
    indices = (i, j)[: OBSERVABLES[which]]
    for k in indices:
        if not isinstance(k, (int, np.integer)) or not 0 <= k < h.n_emitters:
            raise IndexOutOfRange(f"{which}: emitter index {k!r} not in 0..{h.n_emitters - 1}")
    if len(indices) == 2 and i == j:
        raise IndexOutOfRange("cross observables need two distinct emitters")
    return which, h.n_max, h.n_emitters, indices


def observable_operator(
    which: str, h: HilbertConfig, i: int | None = None, j: int | None = None
) -> sp.csr_matrix:
    """Sparse operator for a named observable, cached per (which, n_max, N, indices), read-only."""
    return _observable_operator(*_observable_key(which, h, i, j))


@functools.lru_cache(maxsize=64)
def _observable_operator(which: str, n_max: int, n_em: int, indices: tuple[int, ...]):
    """observable_operator's build, from the operators of _ladder_operators."""
    a, sigma_minus, sigma_z = _ladder_operators(n_max, n_em)
    ad = a.conj().T
    if which == "sigma_z":
        return sigma_z[indices[0]]
    if which == "photon_number":
        op = ad @ a
    elif which == "photon_pair":
        op = ad @ ad @ a @ a
    elif which == "field_coherence":
        op = ad @ sigma_minus[indices[0]]
    elif which == "cross_pm":
        op = sigma_minus[indices[0]].conj().T @ sigma_minus[indices[1]]
    else:
        op = sigma_z[indices[0]] @ sigma_z[indices[1]]
    op = op.tocsr()
    _read_only(op)
    return op


@functools.lru_cache(maxsize=64)
def _symmetric_observable(which: str, n_max: int, n_em: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and weights w of the unknowns with Tr(O rho) = w @ u[positions].

    A permutation-symmetric rho gives each emitter, and each pair, the same
    value, so Tr(O rho) is the average over them.  On a population term
    (n = m, k_eg = k_ge = 0) sum_i sz_i is k_ee - k_gg.  s+_i s-_j reads the
    terms with one |g><e| at i and one |e><g| at j, which is 1/(N(N-1)) of the
    M(k) assignments with k_eg = k_ge = 1; a' s-_i reads sqrt(m) |m-1><m| (x)
    one |e><g| at i, 1/N of the assignments with k_eg = 1, k_ge = 0.
    """
    pattern = _symmetric_pattern(n_max, n_em)
    n, m = pattern.ket[0], pattern.bra[0]
    ee, eg, ge, gg = pattern.k
    population = (n == m) & (eg == 0) & (ge == 0)
    pairs = max(n_em * (n_em - 1), 1)
    keep, weights = {
        "photon_number": (population, n),
        "photon_pair": (population, n * (n - 1)),
        "sigma_z": (population, (ee - gg) / n_em),
        "cross_zz": (population, ((ee - gg) ** 2 - n_em) / pairs),
        "cross_pm": ((n == m) & (eg == 1) & (ge == 1), np.full(n.shape, 1.0 / pairs)),
        "field_coherence": ((m == n + 1) & (eg == 1) & (ge == 0), np.sqrt(m) / n_em),
    }[which]
    positions = np.flatnonzero(keep)
    weights = weights[keep].astype(float)
    for arr in (positions, weights):
        arr.flags.writeable = False
    return positions, weights


def expectation(
    rho: DensityMatrix | SymmetricState,
    which: str,
    h: HilbertConfig,
    i: int | None = None,
    j: int | None = None,
) -> complex:
    """Tr(O rho) for the named observable, its indices checked against h.

    rho must be a state of h, a DensityMatrix of shape (h.dim, h.dim) or a
    SymmetricState of h's (n_max, N) with one value per unknown; any other
    raises InvalidValue.
    """
    symmetric = isinstance(rho, SymmetricState)
    held = (rho.hilbert.n_max, rho.hilbert.n_emitters) if symmetric else rho.mat.shape
    if held != ((h.n_max, h.n_emitters) if symmetric else (h.dim, h.dim)):
        kind = "(n_max, N)" if symmetric else "shape"
        raise InvalidValue(f"{type(rho).__name__} of {kind} {held} read with {h}")
    key = _observable_key(which, h, i, j)
    if symmetric:
        positions, weights = _symmetric_observable(which, h.n_max, h.n_emitters)
        return complex(weights @ rho._checked_unknowns()[positions])
    return operator_expectation(_observable_operator(*key), rho.mat)


def operator_expectation(op: sp.spmatrix, mat: np.ndarray) -> complex:
    """Tr(O M) = sum of O_ij M_ji over O's nonzeros, for a sparse O and a dense M."""
    op = op.tocsr()
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return complex((op.data * mat[op.indices, rows]).sum())


def total_excitation_operator(h: HilbertConfig) -> sp.csr_matrix:
    """a'a + sum_n s+_n s-_n, conserved by H and by pure dephasing."""
    a, sigma_minus, _ = _ladder_operators(h.n_max, h.n_emitters)
    out = (a.conj().T @ a).tocsr()
    for sm in sigma_minus:
        out = out + (sm.conj().T @ sm).tocsr()
    return out.tocsr()


# --- steady-state photon flux and statistics -----------------------------------

FLUX_CUTOFF_RTOL = 1e-6
VACUUM_THRESHOLD = 1e-12  # photon number below which g2(0) is undefined


def converge_in_cutoff(
    p: SystemParams,
    h: HilbertConfig,
    observe: Callable[[SymmetricState, HilbertConfig], tuple[float, ...]],
    frame: str = "as_written",
) -> tuple[tuple[float, ...], HilbertConfig, SymmetricState]:
    """The values observe(rho, h) at the exact steady state, converged in the Fock cutoff.

    Each rung solves on the permutation-symmetric unknowns
    (build_symmetric_liouvillian).  Starting from h.n_max the cutoff is
    raised by 2 until every value changes by less than FLUX_CUTOFF_RTOL
    relatively.  Returns the values with the HilbertConfig and the steady
    state of the last cutoff.  A next rung with more unknowns than the cap
    raises CutoffNotConverged; an initial configuration beyond the cap raises
    DimensionCap.
    """
    values = None
    while True:
        rho = steady_state_exact(build_symmetric_liouvillian(p, h, frame=frame))
        values_next = observe(rho, h)
        if values is not None and all(
            abs(new - old) <= FLUX_CUTOFF_RTOL * max(abs(new), 1e-300)
            for old, new in zip(values, values_next)
        ):
            return values_next, h, rho
        values = values_next
        bigger = HilbertConfig(h.n_max + 2, h.n_emitters, h.cap)
        if bigger.symmetric_unknowns > h.cap:
            raise CutoffNotConverged(
                f"value not converged at n_max={h.n_max} before the cap of {h.cap} unknowns"
            )
        h = bigger


def photon_flux_exact(p: SystemParams, h: HilbertConfig, frame: str = "as_written") -> float:
    """kappa * <a'a> at the exact steady state, converged in the Fock cutoff.

    See converge_in_cutoff for the ladder and the errors it raises.
    """

    def flux(rho, hh):
        return (p.kappa * expectation(rho, "photon_number", hh).real,)

    return converge_in_cutoff(p, h, flux, frame)[0][0]


def _number_and_g2(rho: SymmetricState, h: HilbertConfig) -> tuple[float, float]:
    """(<a'a>, g2(0)) of a state; VacuumState if <a'a> is at most VACUUM_THRESHOLD."""
    n_phot = expectation(rho, "photon_number", h).real
    if n_phot <= VACUUM_THRESHOLD:
        raise VacuumState(f"steady-state photon number {n_phot:.3e} is below threshold")
    pair = expectation(rho, "photon_pair", h).real
    return n_phot, pair / n_phot**2


def g2_zero_exact(p: SystemParams, h: HilbertConfig, frame: str = "as_written") -> float:
    """Equal-time second-order correlation <a'a'aa> / <a'a>^2 at steady state."""
    rho = steady_state_exact(build_symmetric_liouvillian(p, h, frame=frame))
    return _number_and_g2(rho, h)[1]


def g2_zero_converged(
    p: SystemParams, h: HilbertConfig, frame: str = "as_written"
) -> tuple[float, int]:
    """g2(0) converged in the Fock cutoff; returns (value, n_max used)."""
    (g2,), h_used, _ = converge_in_cutoff(
        p, h, lambda rho, hh: _number_and_g2(rho, hh)[1:], frame
    )
    return g2, h_used.n_max
