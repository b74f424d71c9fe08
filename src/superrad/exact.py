"""Exact Lindblad solver for N identical emitters in a lossy cavity.

This module is the oracle of the toolkit: it builds the sparse Liouvillian
superoperator of the driven-dissipative Tavis-Cummings model on the
permutation-symmetric unknowns of the state, solves for the steady state via
a trace-replacement linear system, time-evolves states by a dense matrix
exponential, and evaluates observables exactly.  A state of N identical
emitters that no permutation of the emitters changes, and whose elements
rho_ij all have charge E_i - E_j = 0, where E is the excitation number, is
held as its unknowns u(n, m, k) (see build_symmetric_liouvillian): 92 at
N=4 and 1724 at N=20, both at n_max=3; they grow as (n_max+1)^2 N^2/4, not
as 4^N.  The master equation keeps such states so, and the steady state is
one of them (see steady_state_exact).  L is affine in the parameters, and
maps Hermitian operators to Hermitian ones, so the steady-state system is
real, on the Hermitian coordinates of the unknowns.  At resonance, delta =
delta_c, L also commutes with the antiunitary map rho -> P rho* P, P =
(-1)^{a'a}, so the steady state is real where n - m is even and imaginary
where it is odd, and the system keeps only those coordinates, about half of
them (see _hermitian_system).  The pattern of L is cached per (n_max, N),
whatever the cap: its structure, term tags and weights, L's diagonal as a
table affine in the rates and the detunings, the photon numbers of each
unknown's ket and bra, and the unknowns' trace weights and adjoints.  A
build only fills in the values.  The structure of the real system is
cached per (n_max, N) and active set, which of g, the rates and delta -
delta_c are nonzero, its rows and columns numbered in a nested-dissection
order of the kept unknowns from their points on a small lattice (see
_lattice_order): the map from the entries of L to its values, the map
from its solution to u, and the CSC matrix of the entries that the active
set can make nonzero.  A system of at most _DENSE_MAX = 200 rows, such as
every rung up to N=4, n_max=7 at resonance, is scattered into a dense array
and factorised by LAPACK, where SuperLU's fixed cost per call would be most
of the time; a larger one is factorised by SuperLU in the lattice order,
with no further reordering (see _HermitianSystem.factorise); either solves
twice, the second time for one refinement step (see steady_state_exact).
A build makes no scipy matrix: L's CSR is built when Liouvillian.matrix is
first read, and a steady-state solve writes its values into the cached CSC.
One map from u to the excitation sub-blocks of the state's total-spin
blocks, cached per (n_max, N), serves both the positivity check of every
state and trace_distance (see _excitation_blocks).
The cumulant module covers arbitrary N approximately.

scipy is imported inside the functions that use it, so importing this module
costs only numpy, and scipy loads on the first exact-route call; the
cumulant, sweep, fit, reflectance and validate commands never load it.

Conventions
-----------
* emitter basis: index 0 = ground, index 1 = excited;
  sigma_minus = |g><e|, sigma_z = diag(-1, +1).
* Hamiltonian: H = delta_c a'a + sum_n [delta s+_n s-_n + g (a' s-_n + s+_n a)].
  With frame="rotating" both delta_c and delta are shifted by -delta, leaving
  only the detuning; all tracked observables commute with the total excitation
  phase rotation, so they are identical in either frame.  On the charge-0
  unknowns the shift cancels between ket and bra, so the two frames give the
  same L up to rounding.
* dissipators: L[A] rho = A rho A' - (1/2){A'A, rho} at rates
  kappa (A = a), omega (A = s+_n), gamma_minus (A = s-_n), gamma_z (A = sz_n).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CutoffNotConverged,
    DegenerateSteadyState,
    DimensionCap,
    InvalidValue,
    UnknownObservable,
    VacuumState,
)
from .params import SystemParams, is_integer

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_UNKNOWNS_CAP = 4096

@dataclass(frozen=True)
class HilbertConfig:
    """Truncated Hilbert space: photon cutoff n_max, N emitters, and a cap.

    The cap bounds the permutation-symmetric unknowns, the size of every
    steady-state system and of time_evolve's dense L.  They are counted from
    (n_max, N) before anything is assembled (check_cap).  dim is the
    dimension d = (n_max+1)*2^N of the space the state lives in.
    """

    n_max: int
    n_emitters: int
    cap: int = DEFAULT_UNKNOWNS_CAP

    def __post_init__(self):
        for name in ("n_max", "n_emitters", "cap"):
            value = getattr(self, name)
            if not is_integer(value):
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
        """Permutation-symmetric charge-0 unknowns, the size of L and of the steady-state system."""
        return _symmetric_count(self.n_max, self.n_emitters)

    def check_cap(self) -> "HilbertConfig":
        """Raise DimensionCap if the permutation-symmetric unknowns exceed the cap."""
        if self.symmetric_unknowns > self.cap:
            raise DimensionCap(
                f"{self.symmetric_unknowns} permutation-symmetric unknowns at n_max={self.n_max}, "
                f"N={self.n_emitters} exceed cap {self.cap}"
            )
        return self


@functools.lru_cache(maxsize=64)  # every SymmetricState reads it when it is made
def _symmetric_count(n_max: int, n_em: int) -> int:
    """Number of unknowns u(n, m, k) (see _symmetric_pattern), without listing them.

    Each k = (k_ee, k_eg, k_ge, k_gg) pairs with n_max + 1 - |d| photon pairs
    (n, m), d = k_eg - k_ge, and N - k_eg - k_ge + 1 values of k_ee go with
    each (k_eg, k_ge).  At a given d, k_ge runs over 0..T with M = N - |d|
    and T = M // 2, which sums to (T + 1)(M + 1 - T) = floor((M + 2)^2 / 4)
    values of k; d and -d count alike, for |d| <= min(n_max, N).  With j =
    M + 2, a term is (j + n_max - N - 1)(j^2 - j mod 2) / 4, so the sum over d
    is a difference of power sums of j, on Python ints: a large N or n_max is
    counted with no loop and no (N+1) x (N+1) grid.
    """
    n_max, n_em = int(n_max), int(n_em)
    shift = n_max - n_em - 1

    def four_times_sum(top: int) -> int:  # 4 sum_{j=1}^{top} (j + shift) floor(j^2 / 4)
        odd = (top + 1) // 2  # odd j <= top, which sum to odd^2
        return ((top * (top + 1) // 2) ** 2 + shift * top * (top + 1) * (2 * top + 1) // 6
                - odd * odd - shift * odd)

    half = (four_times_sum(n_em + 2) - four_times_sum(n_em - min(n_max, n_em) + 1)) // 4
    return 2 * half - (n_max + 1) * ((n_em + 2) ** 2 // 4)


# term tags of the entries of L: the off-diagonal terms scale with -i g, kappa,
# omega and gamma_minus; the diagonal is filled in separately
_G, _KAPPA, _OMEGA, _GAMMA_MINUS, _DIAGONAL = range(5)


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class _Pattern:
    """Everything in L that does not depend on the parameters, read-only.

    L acts on the unknowns u(n, m, k); see build_symmetric_liouvillian for
    the diagonal that decay and shifts give.
    """

    indptr: np.ndarray    # CSR row pointers of every entry L can hold (int32)
    indices: np.ndarray   # CSR column indices (int32)
    diagonal: np.ndarray  # position of the entry L[r, r] for each row r (int32)
    tags: np.ndarray      # term of each entry (int8), _DIAGONAL on the diagonal
    weights: np.ndarray   # real weight of each entry (the diagonal is overwritten)
    photons: np.ndarray   # photon numbers (n, m) of each unknown's ket and bra, shape (2, count)
    decay: np.ndarray     # the diagonal's real part per unit kappa, omega, gamma_minus, gamma_z
    shifts: np.ndarray    # n - m and e - e', shape (2, count)
    trace_weights: np.ndarray  # Tr rho = trace_weights @ u; the first is nonzero
    adjoint: np.ndarray   # position of each unknown's Hermitian conjugate
    k: np.ndarray         # (k_ee, k_eg, k_ge, k_gg) of each unknown, shape (4, count)
    index: np.ndarray     # position of the unknown at [n, k_ee, k_eg, k_ge], -1 where none


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


@functools.lru_cache(maxsize=16)
def _symmetric_pattern(n_max: int, n_em: int) -> _Pattern:
    """The pattern of L, once per (n_max, N).

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
    ket_excited, bra_excited = ee + eg, ee + ge
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
    arrays = dict(
        **_csr_pattern(*(np.concatenate(x) for x in (rows, cols, tags, weights)), count),
        photons=np.stack([n, m]),
        decay=-0.5 * np.array([n + m, 2 * n_em - ket_excited - bra_excited,
                               ket_excited + bra_excited, 4 * (eg + ge)], dtype=float),
        shifts=np.array([n - m, ket_excited - bra_excited], dtype=float),
        trace_weights=((n == m) & (eg == 0) & (ge == 0)).astype(float),
        adjoint=index[m, ee, ge, eg].astype(np.intp),
        k=k,
        index=index,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return _Pattern(**arrays)


@dataclass(frozen=True)
class Liouvillian:
    """Sparse generator L with u_dot = L u on the permutation-symmetric unknowns u.

    It carries what the steady-state solve needs: `entries`, the values of
    every entry of its cached pattern in pattern order, zeros included, which
    _hermitian_system maps to the real steady-state system; and `pattern`,
    with L's CSR structure and the unknowns' trace weights and adjoints.  The
    scipy matrix of L is built only when `matrix` is first read.
    """

    hilbert: HilbertConfig
    params: SystemParams
    frame: str
    entries: np.ndarray
    pattern: _Pattern

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """L as a CSR matrix, without the entries that a zero g or rate leaves."""
        import scipy.sparse as sp
        size = len(self.pattern.indptr) - 1
        # eliminate_zeros compacts L's arrays in place, so L gets its own copies
        liou = sp.csr_matrix(
            (self.entries.copy(), self.pattern.indices.copy(), self.pattern.indptr.copy()),
            shape=(size, size),
        )
        liou.eliminate_zeros()
        return liou

    @property
    def dim(self) -> int:
        """Dimension d of the Hilbert space the state lives in (not of L)."""
        return self.hilbert.dim


def build_symmetric_liouvillian(
    p: SystemParams, h: HilbertConfig, frame: str = "as_written"
) -> Liouvillian:
    """Assemble L with u_dot = L u on the permutation-symmetric charge-0 unknowns.

    A state of N identical emitters that no permutation of the emitters
    changes is rho = sum c(n, m, k) |n><m| (x) Sym(k), where Sym(k) sums the
    product of one-site operators |e><e|, |e><g|, |g><e|, |g><g| over every
    way to give them to k = (k_ee, k_eg, k_ge, k_gg) of the emitters, and
    the master equation keeps it so.  L acts on u(n, m, k) = M(k) c(n, m, k),
    M(k) = N!/prod_t k_t!, and keeps only the charge-0 ones, (n - m) +
    (k_eg - k_ge) = 0, which hold the steady state (see steady_state_exact):
    about (n_max+1)^2 N^2/4 of them for large N, since |k_eg - k_ge| <=
    n_max, against about 4^N (n_max+1) elements of rho.

    The anticommutator terms of the dissipators are folded into the
    non-Hermitian H_eff = H - (i/2) sum_k r_k A_k'A_k, so that L rho =
    -i H_eff rho + i rho H_eff' + sum_k r_k A_k rho A_k'.  Every A_k'A_k is
    diagonal, and so is H but for its coupling g C with C = sum_n (a' s-_n +
    s+_n a), so L is affine in the parameters theta = (delta_c - shift,
    delta - shift, g, kappa, omega, gamma_minus, gamma_z).  A one-site term
    summed over the emitters moves u(k) to u(k - e_t + e_t') with weight
    S[t' <- t] k_t times a field factor (see _MOVES), at -i g for C and at
    kappa, omega and gamma_minus for the jumps.  The diagonal at u(n, m, k)
    is -i h(n, e) + i h*(m, e') + gamma_z (k_ee + k_gg - k_eg - k_ge), with
    h the diagonal of H_eff at n photons and e excited emitters, e = k_ee +
    k_eg on the ket and e' = k_ee + k_ge on the bra.  Its real part is the
    rates (kappa, omega, gamma_minus, gamma_z) times the table decay, rows
    -(n + m)/2, -(2N - e - e')/2, -(e + e')/2 and -2 (k_eg + k_ge); its
    imaginary part is -(delta_c - shift)(n - m) - (delta - shift)(e - e'),
    from the table shifts.  On charge-0 unknowns e - e' = -(n - m), so with
    delta_c = delta that part is an exact 0 in either frame.  The
    parameter-free structure comes from _symmetric_pattern, cached per
    (n_max, N), so a build is one gather of the term coefficients, one
    product of the rates with decay and two scaled shifts for the diagonal;
    L's entries in pattern order, zeros included, are kept read-only.  A
    configuration with more unknowns than its cap raises DimensionCap
    before anything is built.
    """
    if frame not in ("as_written", "rotating"):
        raise InvalidValue(f"unknown frame {frame!r}")
    if p.n_emitters != h.n_emitters:
        raise InvalidValue(
            f"params have {p.n_emitters} emitters but the Hilbert space {h.n_emitters}"
        )
    h.check_cap()
    pattern = _symmetric_pattern(h.n_max, h.n_emitters)
    shift = p.delta if frame == "rotating" else 0.0
    coefficients = np.array([-1j * p.g, p.kappa, p.omega, p.gamma_minus, 0.0])
    entries = coefficients[pattern.tags] * pattern.weights
    entries.real[pattern.diagonal] = (
        np.array([p.kappa, p.omega, p.gamma_minus, p.gamma_z]) @ pattern.decay)
    # two products and a sum, unfused: with delta_c = delta the terms cancel exactly
    photon_shift, excited_shift = pattern.shifts
    entries.imag[pattern.diagonal] = ((shift - p.delta_c) * photon_shift
                                      + (shift - p.delta) * excited_shift)
    entries.flags.writeable = False
    return Liouvillian(h, p, frame, entries, pattern)


# --- states -------------------------------------------------------------------

# invariant tolerances of SymmetricState.validate, and the steady-state residual bound
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


@functools.lru_cache(maxsize=16)
def _excitation_blocks(n_max: int, n_em: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The linear map from u to the blocks of a permutation-symmetric rho, as excitation sub-blocks.

    By Schur-Weyl duality such a rho is the direct sum over total spin j
    (2j = N, N-2, ...) of rho_j (x) I_{d_j}, with d_j = C(N, p) - C(N, p-1) for
    p = N/2 - j, so rho >= 0 exactly when every rho_j >= 0.  With |psi_jq> =
    |singlet>^(x)p (x) |Dicke_2j, q> (q excited of 2j emitters),
    rho_j[(n, q), (m, q')] = sum_k c(n, m, k) F_qq'(k), where F_qq'(k) is the
    coefficient of x^k in det(X)^p <D_q| X^(x)2j |D_q'> for the one-site
    X = [[x_gg, x_ge], [x_eg, x_ee]]:

        F = sum_b C(p, b) (-1)^b (2j)! / (a! (q-a)! (q'-a)! (2j-q-q'+a)!)
            / sqrt(C(2j, q) C(2j, q')),  a = k_ee - p + b, k_eg = q - a + b.

    rho_j[(n, q), (m, q')] is zero unless n + q = m + q', since n - m =
    k_ge - k_eg = q' - q, so rho_j is the direct sum of its sub-blocks at
    excitation e = n + q = 0 .. n_max + 2j, each on the rows (n, e - n) in
    ascending n from low = max(e - 2j, 0), and rho >= 0 exactly when every
    sub-block is.  Returns the map S, shifted and the multiplicities: (S @
    u).reshape(shifted.shape) stacks every sub-block (p, then e order) in the
    top left of an s x s slice, s = min(n_max, N) + 1, zero elsewhere.
    rho_j[(n, q), (m, q')] is row ((c + e) s + n - low) s + m - low of S,
    with c the number of slices of the blocks before rho_j.  shifted is
    PSD_TOL I plus 1 on the diagonal off the sub-block, so that adding it
    gives the matrices whose Cholesky factorisation SymmetricState.validate
    tries; and each slice of rho_j appears d_j times in rho.
    """
    import scipy.sparse as sp
    index = _symmetric_pattern(n_max, n_em).index
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_em + 1)))])

    def log_binom(top, bottom):
        return log_fact[top] - log_fact[bottom] - log_fact[top - bottom]

    side = min(n_max, n_em) + 1
    rows, cols, values, widths, multiplicity = [], [], [], [], []
    count = 0
    for p in range(n_em // 2 + 1):
        spins = n_em - 2 * p  # 2j
        # only q' - q = n - m in -n_max .. n_max can hold an entry; the entries
        # keep their (q, q', a, b) order, so the stack sums them as it did
        reach = min(n_max, spins)
        q, dq, a, b = (x.ravel() for x in np.meshgrid(
            np.arange(spins + 1), np.arange(-reach, reach + 1), np.arange(spins + 1),
            np.arange(p + 1), indexing="ij"))
        qq = q + dq
        rest = spins - q - qq + a
        ok = (qq >= 0) & (qq <= spins) & (a <= q) & (a <= qq) & (rest >= 0)
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
        e = n + q
        low = np.maximum(e - spins, 0)
        rows.append((((count + e) * side + n - low) * side + m - low)[present])
        cols.append(index[np.broadcast_to(n, m.shape), k[0], k[1], k[2]][present])
        values.append(np.broadcast_to(value, m.shape)[present])
        levels = np.arange(n_max + spins + 1)
        widths.append(np.minimum(levels, n_max) - np.maximum(levels - spins, 0) + 1)
        d_j = math.comb(n_em, p) - (math.comb(n_em, p - 1) if p else 0)
        multiplicity.append(np.full(len(levels), float(d_j)))
        count += len(levels)
    stack = sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(count * side * side, index.max() + 1))
    shifted = np.zeros((count, side, side))
    shifted[:, np.arange(side), np.arange(side)] = (
        (np.arange(side) >= np.concatenate(widths)[:, None]) + PSD_TOL)
    multiplicity = np.concatenate(multiplicity)
    for arr in (stack.data, stack.indices, stack.indptr, shifted, multiplicity):
        arr.flags.writeable = False
    return stack, shifted, multiplicity


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """A permutation-symmetric joint state, held as its unknowns u(n, m, k).

    mat is u in the order of build_symmetric_liouvillian, the vector that
    its L acts on; see build_symmetric_liouvillian for rho in terms of u.
    Only charge-0 elements are held, so every element of rho with E_i != E_j
    is zero.  A state checks when made that mat holds one number per unknown
    of hilbert (InvalidValue if not); validate checks that rho is a state.
    """

    mat: np.ndarray
    hilbert: HilbertConfig

    def __post_init__(self):
        if not (isinstance(self.mat, np.ndarray) and self.mat.dtype.kind in "iufc"):
            kind = (f"an array of {self.mat.dtype}" if isinstance(self.mat, np.ndarray)
                    else type(self.mat).__name__)
            raise InvalidValue(f"u must be a numeric numpy array, got {kind}")
        count = self.hilbert.symmetric_unknowns
        if self.mat.shape != (count,):
            raise InvalidValue(f"u has shape {self.mat.shape}, the configuration has {count} unknowns")

    @classmethod
    def vacuum(cls, h: HilbertConfig) -> "SymmetricState":
        """Empty cavity, all emitters in the ground state: u = 1 at u(0, 0, (0, 0, 0, N)), the first."""
        u = np.zeros(h.symmetric_unknowns, dtype=complex)
        u[0] = 1.0
        return cls(u, h)

    def validate(self) -> "SymmetricState":
        """Hermiticity and trace on u, positivity through every spin block.

        One batched Cholesky factorisation of every excitation sub-block (see
        _excitation_blocks) of the Hermitian part (u + u^+)/2, plus PSD_TOL
        I, passes a positive state; only when it fails are the eigenvalues
        of the same stack computed, to decide against -PSD_TOL and report.
        The Hermitian part is taken on u, with the u^+ that the Hermiticity
        check gathers, so no sub-block is transposed.
        """
        pattern = _symmetric_pattern(self.hilbert.n_max, self.hilbert.n_emitters)
        u = self.mat
        _require_finite(u, "symmetric state u")
        mate = u[pattern.adjoint].conj()
        herm = float(np.abs(u - mate).max())
        if herm > HERMITICITY_TOL:
            raise InvalidValue(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = complex(pattern.trace_weights @ u)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidValue(f"trace {tr} differs from 1 beyond tolerance")
        stack, shifted, _ = _excitation_blocks(self.hilbert.n_max, self.hilbert.n_emitters)
        blocks = (stack @ ((u + mate) / 2)).reshape(shifted.shape) + shifted
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            # the pads read 1 here, so only a sub-block can give a negative minimum
            min_eig = float(np.linalg.eigvalsh(blocks).min()) - PSD_TOL
            if min_eig < -PSD_TOL:
                raise InvalidValue(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        return self


def trace_distance(a: SymmetricState, b: SymmetricState) -> float:
    """(1/2) * sum of singular values of (a - b), for two states of one (n_max, N).

    The states are compared on the excitation sub-blocks of their spin blocks
    (see _excitation_blocks) without expanding rho: (1/2) sum_j d_j
    ||rho_j - sigma_j||_1 from one batched eigvalsh of the stacked sub-blocks
    of the Hermitian part of a - b, whose zero pads add nothing.
    """
    h, hb = a.hilbert, b.hilbert
    if (h.n_max, h.n_emitters) != (hb.n_max, hb.n_emitters):
        raise InvalidValue(f"states of n_max={h.n_max}, N={h.n_emitters} and "
                           f"n_max={hb.n_max}, N={hb.n_emitters} cannot be compared")
    stack, shifted, multiplicity = _excitation_blocks(h.n_max, h.n_emitters)
    diff = a.mat - b.mat
    _require_finite(diff, "trace_distance: a - b has")
    diff = (diff + diff[_symmetric_pattern(h.n_max, h.n_emitters).adjoint].conj()) / 2
    spectra = np.linalg.eigvalsh((stack @ diff).reshape(shifted.shape))
    return 0.5 * float(multiplicity @ np.abs(spectra).sum(axis=1))


# --- steady state and dynamics --------------------------------------------------

# how far one entry of L moves an unknown along each coordinate of its lattice
# point (see _lattice_order): kappa moves n + m by 2, no term any other by more than 1
_REACH = np.array([2, 1, 1, 1])
_LEAF = 32  # most unknowns a part of the lattice order keeps in enumeration order
_DENSE_MAX = 200  # most rows of a steady-state system factorised densely (see factorise)


def _lattice_order(pattern: _Pattern, kept: np.ndarray) -> np.ndarray:
    """A nested-dissection order of the kept unknowns of a pattern, from their lattice points.

    kept marks the unknowns whose rows and columns the real system holds
    (see _hermitian_system); unknown 0 is always one.  Each unknown sits at
    the point (n + m, |k_eg - k_ge|, k_ee, k_eg + k_ge), which it shares with
    its adjoint, as do the rows and columns of the real system that it gives.
    An entry of L joins points at most _REACH apart along each coordinate,
    so the slab one reach wide at the median of a part's widest coordinate,
    in reaches, separates the points below it from those above.  Those two parts come first, each dissected in turn, then
    the slab (George, SIAM J. Numer. Anal. 10, 345, 1973).  A part of at most
    _LEAF unknowns keeps the enumeration order, and unknown 0, whose row is
    the trace row, goes last.
    """
    n, m = pattern.photons
    ee, eg, ge, _ = pattern.k
    points = np.stack([n + m, np.abs(eg - ge), ee, eg + ge])

    def dissect(members: np.ndarray) -> list[np.ndarray]:
        if len(members) <= _LEAF:
            return [members]
        held = points[:, members]
        axis = int(np.argmax(np.ptp(held, axis=1) / _REACH))
        at = held[axis]
        low = np.partition(at, len(at) // 2)[len(at) // 2]  # a member's, so both parts shrink
        high = low + _REACH[axis]
        return (dissect(members[at < low]) + dissect(members[at >= high])
                + [members[(at >= low) & (at < high)]])

    return np.concatenate(dissect(np.flatnonzero(kept)[1:]) + [np.zeros(1, dtype=np.intp)])


@dataclass(frozen=True)
class _HermitianSystem:
    """The real trace-replaced steady-state system of one (n_max, N) and active set.

    Its unknowns are the Hermitian coordinates w of the unknowns u (see
    steady_state_exact): a pair i < j = adjoint[i] has u_i = w_i + i w_j
    and u_j = w_i - i w_j, and a self-adjoint u_s = w_s is real.  At
    resonance it holds only the coordinates that can be nonzero (see
    _hermitian_system), and u reads a dropped one with sign 0.  Its rows
    and columns are numbered in the lattice order: row and column r are
    those of unknown order[r], so the trace row, unknown 0's, is the last.
    It stores only the entries that can be nonzero under its active set, and
    it is read-only but for the values of its CSC.
    """

    matrix: sp.csc_matrix     # the m x m system: its data are written per factorisation
    columns: np.ndarray       # the column of each stored entry
    # data[slots[t]] sums factors[t] * x[sources[t]] in t order, with x = (Re e_0,
    # Im e_0, Re e_1, ...) for L's entries e; each slot's sources ascend
    slots: np.ndarray
    sources: np.ndarray
    factors: np.ndarray
    trace_at: np.ndarray      # positions in data of the trace row, which entries leave 0
    trace_values: np.ndarray  # the trace weights there
    rhs: np.ndarray           # the right-hand side: 1 in the trace row, 0 elsewhere
    # u = (w[u_sources] * u_signs) read as complex: the real and the imaginary
    # source of each unknown, and their signs, 0 for a part that is always 0
    u_sources: np.ndarray     # shape (count, 2)
    u_signs: np.ndarray       # shape (count, 2)
    order: np.ndarray         # _lattice_order: row and column r belong to unknown order[r]

    def factorise(self, data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The bare solve b -> w of the system with values data, LU-factorised in the lattice order.

        A system of at most _DENSE_MAX rows is scattered into a dense m x m
        array and factorised by LAPACK's dgetrf with partial pivoting: at
        that size SuperLU's fixed cost per call, about 25 us, is most of the
        work.  A whole steady-state solve took about 0.6 times as long with
        the dense factor at 14 to 108 rows and 0.75 to 0.96 times at 142 to
        204; from 218 rows the two traded places, and SuperLU was faster on
        most shapes from 250 on (2 cores, OpenBLAS).  The dense array is
        factorised in place, and neither solve refines: steady_state_exact
        takes one refinement step with either, which partial pivoting needs
        (see there).  An exact zero pivot raises DegenerateSteadyState, as
        SuperLU's "exactly singular" does.  A larger system is numbered in
        the lattice order, so SuperLU factorises it with NATURAL, which
        reorders no column, and takes the diagonal pivot unless it is below
        0.1 times the largest in its column; the refinement step and the
        residual check guard a small pivot.  The values are written into
        the system's one CSC, and SuperLU copies them, so a solve returned
        earlier keeps its own, but a system must not be factorised from two
        threads at once.
        """
        m = len(self.rhs)
        if m <= _DENSE_MAX:
            from scipy.linalg.lapack import dgetrf, dgetrs
            dense = np.zeros((m, m), order="F")
            dense[self.matrix.indices, self.columns] = data
            lu, pivots, info = dgetrf(dense, overwrite_a=True)
            if info > 0:
                raise DegenerateSteadyState(f"steady-state solve failed: exact zero pivot "
                                            f"at row {info - 1} of the dense factor")
            return lambda b: dgetrs(lu, pivots, b)[0]
        import scipy.sparse.linalg as spla
        self.matrix.data[:] = data
        lu = spla.splu(self.matrix, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                       options=dict(SymmetricMode=True))
        return lu.solve


@functools.lru_cache(maxsize=16)
def _hermitian_system(n_max: int, n_em: int, active: tuple[bool, ...]) -> _HermitianSystem:
    """The structure of the real system on the unknowns of (n_max, N), for one active set.

    active is (g != 0, kappa != 0, omega != 0, gamma_minus != 0, gamma_z !=
    0, delta != delta_c).  For u Hermitian, (L u)_j is the conjugate of (L
    u)_i for a pair and (L u)_s is real, so the equations are Re (L u)_i in
    row i and Im (L u)_i in row j for each pair, and Re (L u)_s in row s.  An
    entry e of L at row i and a column c with u_c = w_lo + sigma i w_hi
    (sigma = +1 if c is the lower of its pair, -1 if the upper) adds Re e to
    (i, lo), -sigma Im e to (i, hi), Im e to (j, lo) and sigma Re e to (j,
    hi).  Rows of L at the upper of a pair are the conjugates of others and
    are not read; row 0, whose unknown carries a trace weight, becomes the
    trace row.  Only the parts that active lets be nonzero are kept, as
    stored zeros slow the factorisation (1.5x at N=40, n_max=5, rotating).
    Re e of an entry of term kappa, omega or gamma_minus, and Im e of one of
    term g, is its rate times a weight of at least 1; Re e on the diagonal
    sums the rates times rows of decay, none positive, and Im e there is
    (delta - delta_c)(n - m) up to rounding.  A slot is stored when a kept
    part feeds it, and the trace row's slots always are; a zero that
    rounding alone makes stays stored, which SuperLU accepts.

    Without detuning, the system keeps about half of its coordinates.  Let
    Theta rho = P rho* P, with P = (-1)^{a'a} and rho* conjugated in the
    Fock and emitter basis: Theta u(n, m, k) = (-1)^{n - m} u(n, m, k)*.
    The imaginary diagonal is an exact 0 in either frame (see
    build_symmetric_liouvillian); the g entries are imaginary and change
    the parity of n - m, and the kappa, omega and gamma_minus entries and
    the rest of the diagonal are real and keep it.  So L Theta = Theta L,
    Theta maps a steady state to a steady state, and with a one-dimensional
    null space Theta rho_ss = rho_ss: u is real where n - m is even and
    imaginary where it is odd.  Only w_lo of each even unknown and w_hi of
    each odd pair can then be nonzero, and only their equations, row i of an
    even pair and row j of an odd one, can read a nonzero value.  By the
    same parities no entry joins a kept and a dropped coordinate, and the
    dropped block's right-hand side is 0, so the kept block alone gives the
    w of the whole system.  A detuned system keeps every coordinate.  Rows
    and columns are then renumbered by their place in the _lattice_order of
    the kept unknowns.
    """
    import scipy.sparse as sp
    pattern = _symmetric_pattern(n_max, n_em)
    g, kappa, omega, gamma_minus, gamma_z, detuned = active
    trace_weights, adjoint = pattern.trace_weights, pattern.adjoint
    m = len(pattern.indptr) - 1
    # whether Re e and Im e of each entry of L can be nonzero
    real = np.array([False, kappa, omega, gamma_minus, False])[pattern.tags]
    real[pattern.diagonal] = pattern.decay[[kappa, omega, gamma_minus, gamma_z]].any(axis=0)
    imag = (pattern.tags == _G) & g
    imag[pattern.diagonal] = detuned & (pattern.photons[0] != pattern.photons[1])
    entry = np.arange(len(pattern.indices))
    row = np.repeat(np.arange(m), np.diff(pattern.indptr))
    col = pattern.indices.astype(np.intp)
    # the rows read: not row 0, nor one at the upper of a pair
    keep = row > 0
    keep[keep] = adjoint[row[keep]] >= row[keep]
    entry, row, col, real, imag = entry[keep], row[keep], col[keep], real[keep], imag[keep]
    row_mate, col_mate = adjoint[row], adjoint[col]
    lo, hi = np.minimum(col, col_mate), np.maximum(col, col_mate)
    one, sigma = np.ones(len(entry)), np.where(col == lo, 1.0, -1.0)
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
    # at resonance the kept coordinates: w_lo where n - m is even, w_hi where it is odd
    unknown = np.arange(m)
    kept = detuned | ((adjoint >= unknown) == (pattern.photons.sum(axis=0) % 2 == 0))
    inside = kept[rows] & kept[cols]
    rows, cols, sources, factors = rows[inside], cols[inside], sources[inside], factors[inside]
    order = _lattice_order(pattern, kept)
    size = len(order)
    rank = np.zeros(m, dtype=np.intp)  # a dropped coordinate is read with sign 0
    rank[order] = np.arange(size)
    rows, cols, traced = rank[rows], rank[cols], np.flatnonzero(trace_weights)
    keys, slot = np.unique(np.concatenate([cols * size + rows, rank[traced] * size + rank[0]]),
                           return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // size, minlength=size), out=indptr[1:])
    indices = (keys % size).astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    matrix = sp.csc_matrix((np.empty(len(keys)), indices, indptr), shape=(size, size))
    matrix.has_canonical_format = True  # sorted, no duplicates: splu leaves it as it is
    terms = np.lexsort((sources, slot[: len(rows)]))
    rhs = np.zeros(size)
    rhs[rank[0]] = 1.0
    coordinates = np.stack([np.minimum(unknown, adjoint), np.maximum(unknown, adjoint)], axis=1)
    u_sources = rank[coordinates]
    u_signs = np.stack([np.ones(m), np.sign(adjoint - unknown)], axis=1) * kept[coordinates]
    system = _HermitianSystem(matrix, keys // size, slot[terms], sources[terms], factors[terms],
                              slot[len(rows):], trace_weights[traced], rhs, u_sources, u_signs,
                              order)
    for arr in (system.columns, system.slots, system.sources, system.factors, system.trace_at,
                system.trace_values, rhs, u_sources, u_signs, order):
        arr.flags.writeable = False
    return system


def steady_state_exact(liou: Liouvillian) -> SymmetricState:
    """Unique steady state, solved as a real system on the unknowns u that liou acts on.

    H conserves E = a'a + sum_n s+_n s-_n, and every jump operator shifts E by
    the same amount on both sides of rho, so L never mixes elements rho_ij of
    different charge E_i - E_j.  The steady state lies in the E_i = E_j block,
    and it is permutation symmetric, so it is held by the unknowns u (92 at
    N=4, n_max=3, against 744 charge-0 elements of the full rho).  The
    builder has refused a configuration with more unknowns than its cap.

    L maps Hermitian operators to Hermitian operators, so the solve runs on
    the real Hermitian coordinates w of the block, as many as its complex
    unknowns u (see _hermitian_system): Re and Im of one equation of each
    conjugate pair and Re of each self-adjoint one, with the first equation,
    which has a trace weight and is redundant, replaced by the trace
    functional with right-hand side 1.  At resonance L also commutes with
    the antiunitary Theta rho = P rho* P, P = (-1)^{a'a}, so Theta maps
    the steady state to a steady state, and with a one-dimensional null
    space fixes it: u is real where n - m is even and imaginary where it
    is odd.  The system then holds only those coordinates and their
    equations (8550 of 14454 at N=40, n_max=5), and the full system's
    solution is 0 on the others.  The reduced system still shows a second
    steady state when (rho + Theta rho)/2 tells the two apart, as in every
    degenerate rate pattern the tests meet; one that only a Theta-odd part
    tells apart would pass unseen.  Its structure, and the map from the
    entries of L to its values, are cached per (n_max, N) and active set,
    with only the entries that the set can make nonzero, so a solve is
    one weighted bincount for the values A, one real LU factorisation, two
    solves with it, w = solve(b) and one refinement step w += solve(b - A w),
    and u from w, Hermitian by construction.  One step of fixed-precision
    refinement after partial pivoting makes a solve componentwise backward
    stable (Skeel, Math. Comp. 35, 817, 1980); unrefined, a dense solve left
    a two-photon population of 6e-10 off by 9e-8 relatively.  A non-finite
    w raises DegenerateSteadyState.  The residuals are sums over the stored
    entries, of the system and of L, in numpy.  The system's rows and
    columns are numbered in a nested-dissection order of the unknowns: the
    unknowns sit on a lattice of points (n + m, |k_eg - k_ge|, k_ee, k_eg +
    k_ge), and L joins only nearby points, so slabs of the lattice separate
    it (see _lattice_order).  The trace row comes last, so the right-hand
    side is a cached unit vector, and a solve permutes neither it nor w; u
    is read from w through a cached map.  A small system is factorised
    densely, as SuperLU's fixed cost per call would dominate it; a system of
    more than _DENSE_MAX rows goes to SuperLU, which reorders nothing
    further and prefers the diagonal pivot (see
    _HermitianSystem.factorise); at N=40, n_max=5 its factors hold 0.59
    times the entries that COLAMD's order gives at resonance and 0.65 times
    detuned.  u is normalised and the state validated (by one batched
    Cholesky factorisation, see SymmetricState.validate).  A singular
    factorisation, or a residual ||L v||_inf on all of L above
    STEADY_RESIDUAL_TOL, signals a degenerate null space.  With g = kappa =
    0 the cavity is decoupled and lossless, so every photon-number
    population is stationary and the null space is (n_max+1)-fold; such an
    L is refused before any system is built, since whether a factorisation
    meets an exact zero pivot there depends on rounding.

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
    p, h, pattern = liou.params, liou.hilbert, liou.pattern
    if p.g == 0 and p.kappa == 0:
        raise DegenerateSteadyState(
            "g = kappa = 0 conserves the photon number, so the steady state is not unique"
        )
    active = (p.g != 0, p.kappa != 0, p.omega != 0, p.gamma_minus != 0, p.gamma_z != 0,
              p.delta != p.delta_c)
    structure = _hermitian_system(h.n_max, h.n_emitters, active)
    indices, m = structure.matrix.indices, len(structure.rhs)
    parts = liou.entries.view(np.float64)  # Re e_0, Im e_0, Re e_1, ...
    data = np.bincount(structure.slots, structure.factors * parts[structure.sources],
                       minlength=len(indices))
    data[structure.trace_at] = structure.trace_values
    rhs = structure.rhs

    try:
        solve = structure.factorise(data)
    except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyState(f"steady-state solve failed: {e}") from e
    except MemoryError as e:
        raise DimensionCap(
            f"factorising the steady-state system of {m} real sector unknowns ran out of memory"
        ) from e
    w = solve(rhs)
    # one step of refinement; each row of A w sums its entries in the stored
    # order, as a CSC product does, and a zero the factorisation drops adds an exact 0
    w += solve(rhs - np.bincount(indices, data * w[structure.columns], minlength=m))
    if not np.isfinite(w).all():
        raise DegenerateSteadyState("steady-state solve returned non-finite values")

    u = (w[structure.u_sources] * structure.u_signs).view(complex).ravel()
    tr = pattern.trace_weights @ u.real
    if not math.isfinite(tr) or abs(tr) < 1e-12:
        raise DegenerateSteadyState("steady-state trace collapsed to zero")
    v = u / tr

    # ||L v||_inf on L's entries; every row holds its diagonal, so none is empty
    residual = float(np.abs(np.add.reduceat(liou.entries * v[pattern.indices],
                                            pattern.indptr[:-1])).max())
    if not residual <= STEADY_RESIDUAL_TOL:  # a NaN fails too
        raise DegenerateSteadyState(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}; "
            "null space is likely degenerate"
        )
    return SymmetricState(v, liou.hilbert).validate()


def time_evolve(liou: Liouvillian, rho0: SymmetricState, t_final: float) -> SymmetricState:
    """rho(t_final) = exp(t_final L) rho0, one dense matrix exponential of L.

    L acts on the unknowns u, so the exponential is as large as the
    steady-state system, which the builder's cap bounds; it is computed by
    scaling and squaring (scipy.linalg.expm).  rho0 must be a state of
    liou's (n_max, N), Hermitian to HERMITICITY_TOL, since the result is
    symmetrised; anything else, or a t_final that is not a real int or
    float, finite and >= 0, raises InvalidValue.  The result is validated,
    so a time so long that the exponential loses the state raises
    InvalidValue too.  The exponential's rounding loses the trace about
    linearly in t: from the vacuum at N=2, n_max=3 (resonant, g = 5, kappa =
    50, omega = 1, gamma_minus = 0.1, gamma_z = 1, rotating frame), the
    trace is 1 - 5.2e-12 at t = 1e3 and off by 2.6e-9, past TRACE_TOL, at
    t = 1e6, which is refused.  A caller that needs long times steps the
    evolution, or takes steady_state_exact for the limit.  Running out of
    memory raises DimensionCap, naming the unknowns and the bytes of L.
    """
    from scipy.linalg import expm
    if isinstance(t_final, (np.integer, np.floating)):
        t_final = t_final.item()
    if (isinstance(t_final, bool) or not isinstance(t_final, (int, float))
            or not 0 <= t_final <= sys.float_info.max):  # an int compares exactly
        raise InvalidValue(f"t_final must be finite and >= 0, a real int or float, got {t_final!r}")
    h, held = liou.hilbert, rho0.hilbert
    if (held.n_max, held.n_emitters) != (h.n_max, h.n_emitters):
        raise InvalidValue(f"rho0 of n_max={held.n_max}, N={held.n_emitters} evolved with {h}")
    u = rho0.mat
    adjoint = liou.pattern.adjoint
    herm = float(np.abs(u - u[adjoint].conj()).max())
    if herm > HERMITICITY_TOL:
        raise InvalidValue(f"rho0 is not Hermitian: max |rho0 - rho0^+| = {herm:.3e}")
    if t_final == 0.0:
        return SymmetricState(u.copy(), h).validate()
    try:
        y = expm(t_final * liou.matrix.toarray()) @ u
    except MemoryError as e:
        raise DimensionCap(f"the dense exponential of L on {u.size} unknowns "
                           f"({16 * u.size**2} bytes a copy) ran out of memory") from e
    return SymmetricState((y + y[adjoint].conj()) / 2, h).validate()


# --- observables -----------------------------------------------------------------

# every emitter, and every pair of distinct emitters, reads the same value in
# a permutation-symmetric state, so no observable takes emitter indices
OBSERVABLES = (
    "photon_number",    # a'a
    "sigma_z",          # sz_i
    "cross_pm",         # s+_i s-_j, i != j
    "cross_zz",         # sz_i sz_j, i != j
    "field_coherence",  # a' s-_i
    "photon_pair",      # a'a'aa
)


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
    n, m = pattern.photons
    ee, eg, ge, gg = pattern.k
    population = (n == m) & (eg == 0) & (ge == 0)
    pairs = max(n_em * (n_em - 1), 1)  # at N = 1 expectation refuses the cross observables
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


def expectation(rho: SymmetricState, which: str) -> complex:
    """Tr(O rho) for the named observable, the same at every emitter and pair.

    rho is read in its own configuration, rho.hilbert.  A cross observable
    at N = 1, which has no pair of emitters, raises InvalidValue.
    """
    h = rho.hilbert
    if which not in OBSERVABLES:
        raise UnknownObservable(f"unknown observable {which!r}; choose from {OBSERVABLES}")
    if which.startswith("cross_") and h.n_emitters == 1:
        raise InvalidValue(f"{which} needs two emitters, the configuration has 1")
    positions, weights = _symmetric_observable(which, h.n_max, h.n_emitters)
    return complex(weights @ rho.mat[positions])


# --- steady-state photon flux and statistics -----------------------------------

FLUX_CUTOFF_RTOL = 1e-6
VACUUM_THRESHOLD = 1e-12  # photon number below which g2(0) is undefined; the ladder's floor


def converge_in_cutoff(
    p: SystemParams,
    h: HilbertConfig,
    observe: Callable[[SymmetricState], tuple[float, ...]],
    frame: str = "as_written",
) -> tuple[tuple[float, ...], SymmetricState]:
    """The values observe(rho) at the exact steady state, converged in the Fock cutoff.

    Each rung solves on the permutation-symmetric unknowns
    (build_symmetric_liouvillian).  Starting from h.n_max the cutoff is
    raised by 2 until every value changes by at most FLUX_CUTOFF_RTOL times
    its size or VACUUM_THRESHOLD, whichever is larger, so that a value 0 up
    to rounding settles.  Returns the values with the steady state of the last
    cutoff, whose rho.hilbert is that rung.  A next rung with more unknowns
    than the cap raises CutoffNotConverged, naming the last two rungs, their
    values and the relative change between them; an initial configuration
    beyond the cap raises DimensionCap.  Two rungs that observe a different
    number of values, where a value is defined on only one, do not converge.
    """
    values = None
    while True:
        rho = steady_state_exact(build_symmetric_liouvillian(p, h, frame=frame))
        values_next = observe(rho)
        if values is not None and len(values) == len(values_next) and all(
            abs(new - old) <= FLUX_CUTOFF_RTOL * max(abs(new), VACUUM_THRESHOLD)
            for old, new in zip(values, values_next)
        ):
            return values_next, rho
        bigger = HilbertConfig(h.n_max + 2, h.n_emitters, h.cap)
        if bigger.symmetric_unknowns > h.cap:
            reached = f"n_max={h.n_max}: {_floats_text(values_next)}"
            if values is None:
                reached += ", the only rung under the cap"
            else:
                change = [abs(new - old) / max(abs(new), VACUUM_THRESHOLD)
                          for old, new in zip(values, values_next)]
                reached = (f"n_max={h.n_max - 2}: {_floats_text(values)}, {reached}, "
                           f"relative change {_floats_text(change)}")
            raise CutoffNotConverged(
                f"values not converged within {FLUX_CUTOFF_RTOL:g} before the cap of {h.cap} "
                f"unknowns ({bigger.symmetric_unknowns} at n_max={bigger.n_max}); {reached}"
            )
        values, h = values_next, bigger


def _floats_text(values) -> str:
    """Values as "(v1, v2, ...)", each to 10 significant digits."""
    return "(" + ", ".join(f"{v:.10g}" for v in values) + ")"


def photon_flux_exact(p: SystemParams, h: HilbertConfig, frame: str = "as_written") -> float:
    """kappa * <a'a> at the exact steady state, converged in the Fock cutoff.

    See converge_in_cutoff for the ladder and the errors it raises.
    """

    def flux(rho):
        return (p.kappa * expectation(rho, "photon_number").real,)

    return converge_in_cutoff(p, h, flux, frame)[0][0]


def _number_and_g2(rho: SymmetricState) -> tuple[float, float]:
    """(<a'a>, g2(0)) of a state; VacuumState if <a'a> is at most VACUUM_THRESHOLD."""
    n_phot = expectation(rho, "photon_number").real
    if n_phot <= VACUUM_THRESHOLD:
        raise VacuumState(f"steady-state photon number {n_phot:.3e} is below threshold")
    pair = expectation(rho, "photon_pair").real
    return n_phot, pair / n_phot**2


def _steady_values(rho: SymmetricState) -> tuple[float, ...]:
    """The values of a state that are defined: <a'a> and sigma_z, then cross_pm if
    N >= 2 and g2(0) if <a'a> is above VACUUM_THRESHOLD.

    A cutoff ladder compares only these, as a nan never settles.
    """
    n_phot = expectation(rho, "photon_number").real
    values = (n_phot, expectation(rho, "sigma_z").real)
    if rho.hilbert.n_emitters >= 2:
        values += (expectation(rho, "cross_pm").real,)
    if n_phot > VACUUM_THRESHOLD:
        values += _number_and_g2(rho)[1:]
    return values


def g2_zero_converged(
    p: SystemParams, h: HilbertConfig, frame: str = "as_written"
) -> tuple[float, int]:
    """g2(0) converged in the Fock cutoff; returns (value, n_max used)."""
    (g2,), rho = converge_in_cutoff(p, h, lambda rho: _number_and_g2(rho)[1:], frame)
    return g2, rho.hilbert.n_max
