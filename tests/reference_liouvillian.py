"""An independent full-space reference for the exact route, built from kron products.

The package acts on the permutation-symmetric charge-0 unknowns u of a state
(see superrad.exact.build_symmetric_liouvillian).  This module builds the
same master equation on all d^2 elements of rho, d = (n_max+1)*2^N, term by
term from the ladder operators, and moves states between the two spaces:
expand gives the d x d rho of a symmetric state, and symmetric_state the
unknowns of the permutation- and phase-averaged part of a d x d rho.

Conventions: the field factor comes first in the tensor order, then emitters
0..N-1, each with index 0 = ground and 1 = excited; vec(rho) is column-stacked,
so vec(A rho B) = (B^T kron A) vec(rho).
"""

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from superrad import exact
from superrad.exact import SymmetricState

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
SIGMA_Z = np.diag([-1.0, 1.0])


def vec(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


@functools.lru_cache(maxsize=16)
def ladder_operators(n_max: int, n_em: int):
    """a, every sigma-minus_n and every sigma-z_n on the full space, as CSR matrices."""
    a = sp.kron(sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1), sp.identity(2**n_em), format="csr")

    def site(op, n):
        left = sp.identity((n_max + 1) * 2**n)
        return sp.kron(sp.kron(left, op), sp.identity(2 ** (n_em - n - 1)), format="csr")

    return (a, tuple(site(SIGMA_MINUS, n) for n in range(n_em)),
            tuple(site(SIGMA_Z, n) for n in range(n_em)))


@functools.lru_cache(maxsize=16)
def _terms(n_max: int, n_em: int) -> tuple:
    """The parameter-free terms of L, one per parameter of kron_liouvillian's coefficients."""
    a, sigma_minus, sigma_z = ladder_operators(n_max, n_em)
    ident = sp.identity(a.shape[0], format="csr")

    def commutator(op):  # -i [op, .]
        return -1j * (sp.kron(ident, op) - sp.kron(op.T, ident))

    def dissipator(op):  # A . A' - {A'A, .}/2
        op_dag_op = op.conj().T @ op
        return (sp.kron(op.conj(), op) - 0.5 * sp.kron(ident, op_dag_op)
                - 0.5 * sp.kron(op_dag_op.T, ident))

    return (
        commutator(a.T @ a),
        commutator(sum(sm.T @ sm for sm in sigma_minus)),
        commutator(sum(a.T @ sm + sm.T @ a for sm in sigma_minus)),
        dissipator(a),
        sum(dissipator(sm.T) for sm in sigma_minus),
        sum(dissipator(sm) for sm in sigma_minus),
        sum(dissipator(sz) for sz in sigma_z),
    )


def kron_liouvillian(p, h, frame="as_written") -> sp.csr_matrix:
    """L with vec(rho_dot) = L vec(rho): -i[H, .] plus r L[A] for each jump A at rate r.

    H and the dissipators are affine in the parameters, so L sums the cached
    terms of each (n_max, N) with the parameters as coefficients.
    """
    shift = p.delta if frame == "rotating" else 0.0
    coefficients = (p.delta_c - shift, p.delta - shift, p.g, p.kappa, p.omega, p.gamma_minus,
                    p.gamma_z)
    return sum(c * term for c, term in zip(coefficients, _terms(h.n_max, h.n_emitters))).tocsr()


def full_space_steady_state(lmat: sp.csr_matrix, dim: int) -> np.ndarray:
    """Trace-replacement solve on all d^2 unknowns: row 0 of L becomes vec(I)^T."""
    system = sp.vstack([sp.csr_matrix(vec(np.eye(dim))), lmat[1:]], format="csc")
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = unvec(spla.splu(system, permc_spec="MMD_AT_PLUS_A").solve(rhs), dim)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def full_space_evolution(lmat: sp.csr_matrix, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) vec(rho0), with one dense exponential of the whole d^2 x d^2 matrix."""
    return unvec(scipy.linalg.expm(t * lmat.toarray()) @ vec(rho0), len(rho0))


def observable(which: str, h, i=None, j=None) -> sp.csr_matrix:
    """The operator of a named observable of superrad.exact.OBSERVABLES on the full space."""
    a, sigma_minus, sigma_z = ladder_operators(h.n_max, h.n_emitters)
    return {
        "photon_number": lambda: a.T @ a,
        "photon_pair": lambda: a.T @ a.T @ a @ a,
        "sigma_z": lambda: sigma_z[i],
        "field_coherence": lambda: a.T @ sigma_minus[i],
        "cross_pm": lambda: sigma_minus[i].T @ sigma_minus[j],
        "cross_zz": lambda: sigma_z[i] @ sigma_z[j],
    }[which]()


def dense_expectation(rho: np.ndarray, which: str, h, *indices) -> complex:
    """Tr(O rho) for a named observable and a d x d rho."""
    return complex(observable(which, h, *indices).multiply(rho.T).sum())


def dense_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * sum of the singular values of a - b."""
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


@functools.lru_cache(maxsize=16)
def unknown_of(n_max: int, n_em: int) -> tuple[np.ndarray, np.ndarray]:
    """The unknown u(n, m, k) of each element rho_ij (-1 where its charge is not 0), and M(k) of each unknown.

    Element (i, j) has n and m photons and its emitters hold k = (k_ee,
    k_eg, k_ge, k_gg) of the one-site operators |e><e|, |e><g|, |g><e|,
    |g><g|; M(k) = N!/prod_t k_t! elements share each (n, m, k).
    """
    pattern = exact._symmetric_pattern(n_max, n_em)
    dim = (n_max + 1) * 2**n_em
    photons = np.repeat(np.arange(n_max + 1), 2**n_em)
    bits = ((np.arange(dim) % 2**n_em)[:, None] >> np.arange(n_em)) & 1  # 1 = excited
    ket, bra = bits[:, None, :], bits[None, :, :]
    k = [(ket * bra).sum(-1), (ket * (1 - bra)).sum(-1), ((1 - ket) * bra).sum(-1)]
    n, m = np.broadcast_arrays(photons[:, None], photons[None, :])
    charge_zero = (n - m) + (k[1] - k[2]) == 0
    unknown = np.where(charge_zero, pattern.index[n, k[0], k[1], k[2]], -1)
    factorial = np.array([math.factorial(x) for x in range(n_em + 1)], dtype=float)
    return unknown, math.factorial(n_em) / factorial[pattern.k].prod(axis=0)




def symmetric_state(rho: np.ndarray, h) -> SymmetricState:
    """The unknowns of rho averaged over the emitter permutations and the phases e^{i phi E}.

    u(n, m, k) sums the M(k) elements rho_ij of its (n, m, k), so it holds
    each element's average times M(k), and every other charge drops out.
    Both averages are mixtures of unitary conjugations, so a state maps to
    a state.
    """
    unknown, _ = unknown_of(h.n_max, h.n_emitters)
    keep = unknown >= 0
    u = np.zeros(h.symmetric_unknowns, dtype=complex)
    np.add.at(u, unknown[keep], rho[keep])
    return SymmetricState(u, h)


def expansion(h) -> sp.csr_matrix:
    """The d^2 x count matrix E with vec(rho) = E @ u: rho_ij = u(n, m, k(i, j)) / M(k)."""
    unknown, multiplicity = unknown_of(h.n_max, h.n_emitters)
    flat = vec(unknown)
    rows = np.flatnonzero(flat >= 0)
    return sp.csr_matrix((1.0 / multiplicity[flat[rows]], (rows, flat[rows])),
                         shape=(len(flat), len(multiplicity)))


def expand(state: SymmetricState) -> np.ndarray:
    """The d x d density matrix of a symmetric state."""
    return unvec(expansion(state.hilbert) @ state.mat, state.hilbert.dim)


def spin_blocks(state: SymmetricState) -> list[np.ndarray]:
    """The blocks rho_j of a symmetric state, 2j = N, N-2, ..., projected out of its d x d rho.

    rho_j[(n, q), (m, q')] = <n, psi_jq| rho |m, psi_jq'>, row-major in (n, q),
    with |psi_jq> = |singlet>^(x)p (x) |Dicke_2j, q> for p = N/2 - j: the
    singlets (|ge> - |eg>)/sqrt 2 on emitters (0, 1), (2, 3), ..., and the
    normalised sum of the C(2j, q) product states with q of the other 2j
    emitters excited.
    """
    h = state.hilbert
    rho = expand(state)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    blocks = []
    for p in range(h.n_emitters // 2 + 1):
        spins = h.n_emitters - 2 * p
        excited = np.array([bin(i).count("1") for i in range(2**spins)])
        pairs = functools.reduce(np.kron, [singlet] * p, np.ones(1))
        columns = [np.kron(np.eye(h.n_max + 1)[n],
                           np.kron(pairs, (excited == q) / math.sqrt(math.comb(spins, q))))
                   for n in range(h.n_max + 1) for q in range(spins + 1)]
        basis = np.stack(columns, axis=1)
        blocks.append(basis.T @ rho @ basis)
    return blocks
