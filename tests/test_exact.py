import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    random_density_matrix,
    random_hermitian,
    random_params,
    regression_params,
)
from superrad import exact
from superrad.errors import (
    CutoffNotConverged,
    DegenerateSteadyState,
    DimensionCap,
    IndexOutOfRange,
    InvalidValue,
    UnknownObservable,
    VacuumState,
)
from superrad.exact import (
    DensityMatrix,
    HilbertConfig,
    build_liouvillian,
    build_symmetric_liouvillian,
    converge_in_cutoff,
    expectation,
    g2_zero_converged,
    g2_zero_exact,
    photon_flux_exact,
    site_operator,
    steady_state_exact,
    time_evolve,
    total_excitation_operator,
    trace_distance,
    unvec,
    vec,
)
from superrad.params import SystemParams

# frozen by running the cutoff-converged solver on the N=1 reference set;
# stable to <1e-12 against rel_tol in {1e-6, 1e-9, 1e-12} and both frames
FLUX_N1_REFERENCE = 0.6145299918401527


def test_dimension_arithmetic():
    h = HilbertConfig(n_max=1, n_emitters=2)
    assert h.dim == 8
    liou = build_liouvillian(regression_params(2), h)
    assert liou.matrix.shape == (64, 64)


def test_dimension_cap_enforced():
    with pytest.raises(DimensionCap):
        HilbertConfig(n_max=10, n_emitters=6, cap=512).check_cap()
    with pytest.raises(DimensionCap):
        build_liouvillian(regression_params(2), HilbertConfig(7, 2, cap=16))


@pytest.mark.parametrize("n_max, n_em, cap", [(0, 1, 4096), (1, 0, 4096), (1, 1, 0), (3, 3, -5)])
def test_hilbert_config_rejects_values_below_one(n_max, n_em, cap):
    with pytest.raises(InvalidValue, match="must be >= 1"):
        HilbertConfig(n_max, n_em, cap)


@pytest.mark.parametrize("fields, name", [
    ((3.0, 1), "n_max"), ((3, True), "n_emitters"), (("3", 1), "n_max"),
    ((3, 1, 4096.0), "cap"), ((3, 1, np.bool_(True)), "cap"),
])
def test_hilbert_config_rejects_values_that_are_not_integers(fields, name):
    with pytest.raises(InvalidValue, match=f"{name} must be an integer"):
        HilbertConfig(*fields)


def test_hilbert_config_accepts_numpy_integers():
    h = HilbertConfig(np.int64(3), np.int32(2), np.int64(4096))
    assert h == HilbertConfig(3, 2)
    assert h.symmetric_unknowns == HilbertConfig(3, 2).symmetric_unknowns


def test_trace_preservation_is_structural():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        liou = build_liouvillian(random_params(rng, n), HilbertConfig(2, n))
        assert liou.trace_residual() <= 1e-10


def test_dark_state_is_null_vector_without_pump():
    p = SystemParams(1, 10.0, 10.0, 0.0, 3.0, 0.0, 0.5, 0.0)
    h = HilbertConfig(2, 1)
    liou = build_liouvillian(p, h)
    rho_dark = DensityMatrix.vacuum(h)
    assert np.abs(liou.matrix @ vec(rho_dark.mat)).max() <= 1e-12


def test_liouvillian_has_zero_eigenvalue():
    rng = np.random.default_rng(1)
    liou = build_liouvillian(random_params(rng, 2), HilbertConfig(1, 2))
    eigs = np.linalg.eigvals(liou.matrix.toarray())
    scale = max(1.0, np.abs(eigs).max())
    assert np.abs(eigs).min() <= 1e-10 * scale


def test_steady_state_no_pump_is_vacuum():
    p = SystemParams(2, 8.0, 9.0, 2.0, 5.0, 0.0, 0.3, 0.7)
    h = HilbertConfig(3, 2)
    rho = steady_state_exact(build_liouvillian(p, h))
    assert expectation(rho, "photon_number", h).real == pytest.approx(0.0, abs=1e-12)
    assert expectation(rho, "sigma_z", h, 0).real == pytest.approx(-1.0, abs=1e-12)


def test_steady_state_rate_equation_fixed_point():
    # g = 0 decouples the field; the emitter settles at omega/(omega+gamma-)
    p = SystemParams(1, 2350.0, 2350.0, 0.0, 1.0, 1.0, 3.0, 0.0)
    h = HilbertConfig(2, 1)
    rho = steady_state_exact(build_liouvillian(p, h))
    population = (1.0 + expectation(rho, "sigma_z", h, 0).real) / 2.0
    assert population == pytest.approx(0.25, abs=1e-9)


def test_steady_state_matches_long_time_integration():
    p = regression_params(2)
    h = HilbertConfig(4, 2)
    liou = build_liouvillian(p, h, frame="rotating")
    rho_ss = steady_state_exact(liou)
    rho_t = time_evolve(liou, DensityMatrix.vacuum(h), 1000.0)
    assert trace_distance(rho_ss, rho_t) <= 1e-8


def test_steady_state_matches_dense_null_eigenvector():
    # independent route: the eigenvector of the dense L with eigenvalue ~ 0
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 8:
        n_em = int(rng.integers(1, 3))
        h = HilbertConfig(2, n_em)
        p = random_params(rng, n_em)
        if p.kappa < 0.05 and p.gamma_minus < 0.05:
            continue  # near-degenerate null space, not comparable
        liou = build_liouvillian(p, h)
        rho_tr = steady_state_exact(liou)
        eigvals, eigvecs = np.linalg.eig(liou.matrix.toarray())
        k = int(np.argmin(np.abs(eigvals)))
        rho_ev = unvec(eigvecs[:, k], h.dim)
        rho_ev = (rho_ev + rho_ev.conj().T) / 2
        rho_ev = rho_ev / np.trace(rho_ev).real
        assert trace_distance(rho_tr, DensityMatrix(rho_ev)) <= 1e-10
        checked += 1


def _hamiltonian(p, h, frame):
    """Tavis-Cummings Hamiltonian on the truncated space, from the cached ladder operators."""
    shift = p.delta if frame == "rotating" else 0.0
    a, sigma_minus, _ = exact._ladder_operators(h.n_max, h.n_emitters)
    ham = (p.delta_c - shift) * (a.conj().T @ a)
    for sm in sigma_minus:
        sp_ = sm.conj().T
        ham = ham + (p.delta - shift) * (sp_ @ sm) + p.g * (a.conj().T @ sm + sp_ @ a)
    return ham.tocsr()


def _jump_operators(p, h):
    """All (rate, collapse operator) pairs of the master equation."""
    a, sigma_minus, sigma_z = exact._ladder_operators(h.n_max, h.n_emitters)
    ops = [(p.kappa, a)]
    for sm, sz in zip(sigma_minus, sigma_z):
        ops.append((p.omega, sm.conj().T))
        ops.append((p.gamma_minus, sm))
        ops.append((p.gamma_z, sz))
    return ops


def _kron_reference_liouvillian(p, h, frame):
    """L term by term: -i[H, .] plus r (A* kron A - I kron A'A/2 - (A'A)^T kron I/2) per jump."""
    ident = sp.identity(h.dim, dtype=complex, format="csr")
    ham = _hamiltonian(p, h, frame)
    liou = -1j * (sp.kron(ident, ham) - sp.kron(ham.T, ident))
    for rate, op in _jump_operators(p, h):
        op_dag_op = op.conj().T @ op
        liou = liou + rate * (
            sp.kron(op.conj(), op)
            - 0.5 * sp.kron(ident, op_dag_op)
            - 0.5 * sp.kron(op_dag_op.T, ident)
        )
    return liou.tocsr()


def _full_space_steady_state(liou):
    """Trace-replacement solve on all d^2 unknowns: row 0 of L becomes vec(I)^T."""
    d = liou.dim
    system = sp.vstack([sp.csr_matrix(liou.trace_row()), liou.matrix.tocsr()[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = unvec(spla.splu(system, permc_spec="MMD_AT_PLUS_A").solve(rhs), d)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho / np.trace(rho).real)


def complex_steady_state(liou):
    """The complex trace-replacement solve on the pattern's unknowns, the reference for the real one.

    Row 0 of L on the unknowns becomes the trace functional with right-hand
    side 1; the solution is made Hermitian and normalised.  Returns the
    state's coordinates v, unvalidated.
    """
    pattern = liou.pattern
    unknowns = pattern.unknowns
    system = liou.matrix.tocsr()[unknowns][:, unknowns].tolil()
    system[0, :] = pattern.trace_weights
    rhs = np.zeros(len(unknowns), dtype=complex)
    rhs[0] = 1.0
    x = spla.splu(system.tocsc(), permc_spec="COLAMD").solve(rhs)
    x = (x + x[pattern.adjoint].conj()) / 2
    v = np.zeros(liou.matrix.shape[1], dtype=complex)
    v[unknowns] = x / (pattern.trace_weights @ x).real
    return v


def assert_matches_complex_solve(liou, tol=1e-12):
    """The real solve against complex_steady_state: coordinates and trace distance."""
    state = steady_state_exact(liou)
    reference = complex_steady_state(liou)
    got = state.mat if isinstance(state, exact.SymmetricState) else vec(state.mat)
    assert np.abs(got - reference).max() <= tol
    assert trace_distance(state, liou.state(reference)) <= tol
    return state


def _with_zero_rates(p, rng):
    """p with a random subset of kappa, omega, gamma_minus, gamma_z set to 0."""
    names = ("kappa", "omega", "gamma_minus", "gamma_z")
    zeroed = [name for name in names if rng.random() < 0.4]
    return dataclasses.replace(p, **dict.fromkeys(zeroed, 0.0))


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_liouvillian_matches_term_by_term_kron_reference(frame):
    rng = np.random.default_rng(31)
    for k in range(12):
        n_em = 1 + k % 3
        p = random_params(rng, n_em)
        if k % 2:
            p = _with_zero_rates(p, rng)
        h = HilbertConfig(int(rng.integers(1, 4)), n_em)
        ref = _kron_reference_liouvillian(p, h, frame)
        diff = abs(build_liouvillian(p, h, frame).matrix - ref).max()
        assert diff <= 1e-13 * abs(ref).max()


_PATTERN_BASE = SystemParams(1, 7.3, 11.9, 2.3, 13.0, 0.7, 1.9, 0.45)


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
@pytest.mark.parametrize("n_em", [1, 2, 3, 4])
@pytest.mark.parametrize("zeroed", [None, "g", "kappa", "omega", "gamma_minus", "gamma_z"])
def test_liouvillian_pattern_matches_kron_reference(n_em, frame, zeroed):
    # the pattern holds every entry L can have; a zero g or rate must leave no explicit zero
    p = dataclasses.replace(_PATTERN_BASE, n_emitters=n_em)
    if zeroed is not None:
        p = dataclasses.replace(p, **{zeroed: 0.0})
    h = HilbertConfig(2, n_em)
    ref = _kron_reference_liouvillian(p, h, frame)
    ref.eliminate_zeros()
    ref.sort_indices()
    lmat = build_liouvillian(p, h, frame).matrix
    assert abs(lmat - ref).max() <= 1e-13 * abs(ref).max()
    assert np.array_equal(lmat.indptr, ref.indptr)
    assert np.array_equal(lmat.indices, ref.indices)
    assert np.all(lmat.data != 0)


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
@pytest.mark.parametrize("n_em", [1, 2, 3, 4])
@pytest.mark.parametrize("zeroed", [None, "g", "kappa", "omega", "gamma_minus", "gamma_z"])
def test_real_solve_matches_complex_solve_on_the_sector(n_em, frame, zeroed):
    # a zero g or rate leaves stored zeros in the pattern-ordered entries that L drops
    p = dataclasses.replace(_PATTERN_BASE, n_emitters=n_em)
    if zeroed is not None:
        p = dataclasses.replace(p, **{zeroed: 0.0})
    assert_matches_complex_solve(build_liouvillian(p, HilbertConfig(2, n_em), frame))


def test_real_solve_matches_complex_solve_at_twenty_emitters():
    p = SystemParams(20, 2000.0, 2000.0, 2.0 / np.sqrt(20), 20.0, 0.3, 0.1, 0.5)
    assert_matches_complex_solve(build_symmetric_liouvillian(p, HilbertConfig(5, 20), "rotating"))


def test_hermitian_system_is_cached_and_read_only():
    p = regression_params(3)
    for build in (build_liouvillian, build_symmetric_liouvillian):
        h = HilbertConfig(3, 3)
        steady_state_exact(build(p, h))
        hits = exact._hermitian_system.cache_info().hits
        steady_state_exact(build(regression_params(3, omega=0.3), h, "rotating"))
        assert exact._hermitian_system.cache_info().hits == hits + 1
        system = exact._hermitian_system(build(p, h).pattern)
        for arr in (system.indptr, system.indices, system.trace_at, system.trace_values,
                    system.pairs, system.entries.data, system.entries.indices,
                    system.entries.indptr):
            assert not arr.flags.writeable


def test_liouvillian_pattern_is_cached_and_read_only():
    h = HilbertConfig(3, 2)
    for build, cached in ((build_liouvillian, exact._liouvillian_pattern),
                          (build_symmetric_liouvillian, exact._symmetric_pattern)):
        build(regression_params(2), h)
        hits = cached.cache_info().hits
        liou = build(regression_params(2, omega=0.3), h, "rotating")
        assert cached.cache_info().hits == hits + 1
        assert liou.pattern is cached(h.n_max, h.n_emitters)
        for arr in vars(liou.pattern).values():
            assert not arr.flags.writeable
        # the built L owns its arrays, so changing it leaves the pattern intact
        liou.matrix.indices[0] += 1
        assert liou.matrix.indices[0] != liou.pattern.indices[0]
    rho = steady_state_exact(build_liouvillian(regression_params(2), h))
    for which, idx in [("photon_number", ()), ("photon_pair", ()), ("sigma_z", (0,)),
                       ("field_coherence", (1,)), ("cross_pm", (0, 1)), ("cross_zz", (0, 1))]:
        op = exact.observable_operator(which, h, *idx)
        assert exact.observable_operator(which, h, *idx) is op
        assert expectation(rho, which, h, *idx) == exact.operator_expectation(op, rho.mat)
        for arr in (op.data, op.indices, op.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("build, cached", [
    (build_liouvillian, exact._liouvillian_pattern),
    (build_symmetric_liouvillian, exact._symmetric_pattern),
])
def test_caches_are_shared_by_configurations_that_differ_only_in_cap(build, cached):
    for cache in (cached, exact._hermitian_system, exact._ladder_operators, exact._charge):
        cache.cache_clear()
    p = regression_params(3)
    liou = [build(p, HilbertConfig(3, 3, cap)) for cap in (4096, 5000)]
    for each in liou:
        steady_state_exact(each)
    assert liou[0].pattern is liou[1].pattern
    assert exact._hermitian_system(liou[0].pattern) is exact._hermitian_system(liou[1].pattern)
    assert cached.cache_info().misses == 1
    assert exact._hermitian_system.cache_info().misses == 1
    if build is build_liouvillian:
        assert exact._ladder_operators.cache_info().misses == 1
        assert exact._charge.cache_info().misses == 1


def test_observable_operator_is_shared_by_configurations_that_differ_only_in_cap():
    exact._observable_operator.cache_clear()
    ops = [exact.observable_operator("photon_number", HilbertConfig(3, 3, cap))
           for cap in (4096, 5000)]
    assert ops[0] is ops[1]
    assert exact._observable_operator.cache_info().misses == 1
    # indices the observable does not read are not part of the key either
    assert exact.observable_operator("photon_number", HilbertConfig(3, 3), 2) is ops[0]
    assert exact.observable_operator("sigma_z", HilbertConfig(3, 3), 1, 0) is \
        exact.observable_operator("sigma_z", HilbertConfig(3, 3), 1)


@pytest.mark.parametrize("n_em", [1, 2, 3, 4, 5])
def test_liouvillian_pattern_retains_no_more_than_its_liouvillian(n_em):
    h = HilbertConfig(3, n_em)
    lmat = build_liouvillian(regression_params(n_em), h).matrix
    retained = sum(arr.nbytes for arr in vars(exact._liouvillian_pattern(3, n_em)).values())
    assert retained <= lmat.data.nbytes + lmat.indices.nbytes + lmat.indptr.nbytes


def test_build_liouvillian_rejects_unknown_frame():
    with pytest.raises(InvalidValue):
        build_liouvillian(regression_params(1), HilbertConfig(2, 1), frame="lab")


@pytest.mark.parametrize("build", [build_liouvillian, build_symmetric_liouvillian])
def test_builders_reject_params_of_another_emitter_count(build, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(exact, "_liouvillian_pattern", refuse)
    monkeypatch.setattr(exact, "_symmetric_pattern", refuse)
    with pytest.raises(InvalidValue, match="3 emitters"):
        build(regression_params(3), HilbertConfig(3, 2))


def test_density_matrix_validate_rejects_non_hermitian():
    # trace 1 and a positive semidefinite Hermitian part: only Hermiticity fails
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[0, 1] = 1e-6
    with pytest.raises(InvalidValue, match="not Hermitian"):
        DensityMatrix(mat).validate()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["DensityMatrix", "SymmetricState"])
def test_state_validate_names_non_finite_entries(kind, value):
    # one bad entry in a valid state: every comparison with nan is false, and
    # inf - inf is nan, so the finite check must come before the others
    h = HilbertConfig(1, 1)
    if kind == "DensityMatrix":
        state, index = DensityMatrix.vacuum(h), (2, 1)
    else:
        p = SystemParams(1, 2000.0, 2000.0, 1.0, 10.0, 0.0, 0.2, 0.5)  # no pump: the vacuum
        state, index = steady_state_exact(build_symmetric_liouvillian(p, h)), (3,)
    state.validate()
    state.mat[index] = value
    where = ", ".join(map(str, index))
    with pytest.raises(InvalidValue, match=rf"non-finite entries: 1; .* at index \[{where}\]"):
        state.validate()


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_liouvillian_never_mixes_excitation_differences(frame):
    rng = np.random.default_rng(32)
    for n_em in (1, 2, 3):
        for _ in range(3):
            h = HilbertConfig(int(rng.integers(1, 4)), n_em)
            liou = build_liouvillian(random_params(rng, n_em), h, frame)
            lmat, sector = liou.matrix.tocsr(), liou.pattern.unknowns
            outside = np.setdiff1d(np.arange(h.dim**2), sector)
            assert lmat[outside][:, sector].nnz == 0
            assert lmat[sector][:, outside].nnz == 0


@pytest.mark.parametrize("n_max, n_em", [(1, 1), (3, 4), (126, 1), (127, 1)])
def test_charge_matches_total_excitation_operator(n_max, n_em):
    # n_max + N = 127 and 128 sit on either side of the int8 range
    h = HilbertConfig(n_max, n_em)
    energy = np.rint(total_excitation_operator(h).diagonal().real).astype(np.int64)
    reference = (energy[:, None] - energy[None, :]).reshape(-1, order="F")
    assert np.array_equal(exact._charge(n_max, n_em), reference)


def test_zero_difference_sector_size():
    # b_E basis states at each excitation number E; the sector holds sum_E b_E^2,
    # and the trace weights sit on the rho_ii, rho_00 first
    for (n_max, n_em), size in {(3, 4): 744, (1, 1): 6, (2, 2): 36}.items():
        pattern = exact._liouvillian_pattern(n_max, n_em)
        assert len(pattern.unknowns) == size
        d = (n_max + 1) * 2**n_em
        diagonal = pattern.unknowns[np.flatnonzero(pattern.trace_weights)]
        assert np.array_equal(diagonal, np.arange(d) * (d + 1))
        assert np.all(pattern.trace_weights[pattern.trace_weights != 0] == 1.0)
        assert pattern.trace_weights[0] == 1.0


@pytest.mark.parametrize(
    "n_em, n_max", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 5), (4, 3)]
)
def test_sector_solve_matches_full_space_solve(n_em, n_max):
    if n_em < 4:
        p = random_params(np.random.default_rng(100 * n_em + n_max), n_em)
    else:  # the oracle's leaky regime
        p = SystemParams(4, 2000.0, 2000.0, 1.2, 40.0, 0.2, 0.1, 0.5)
    for frame in ("as_written", "rotating"):
        liou = build_liouvillian(p, HilbertConfig(n_max, n_em), frame)
        assert trace_distance(steady_state_exact(liou), _full_space_steady_state(liou)) <= 1e-12


def test_steady_state_out_of_memory_is_a_dimension_cap(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "splu", exhausted)
    with pytest.raises(DimensionCap, match="744 sector unknowns"):
        steady_state_exact(build_liouvillian(regression_params(4), HilbertConfig(3, 4)))


def _cold_and_warm(liou):
    """The steady state with no recorded column order, then solved again with the one recorded."""
    exact._hermitian_system.cache_clear()
    return steady_state_exact(liou), steady_state_exact(liou)


def _spy_on_splu(monkeypatch):
    """Patch splu to log the permc_spec of each factorisation that succeeds into the returned list."""
    specs, splu = [], spla.splu

    def spy(a, permc_spec=None, **kwargs):
        lu = splu(a, permc_spec=permc_spec, **kwargs)
        specs.append(permc_spec)
        return lu

    monkeypatch.setattr(spla, "splu", spy)
    return specs


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
@pytest.mark.parametrize("build", [build_liouvillian, build_symmetric_liouvillian])
def test_a_recorded_column_order_solves_bitwise_as_colamd(build, frame):
    # at the reference point SuperLU meets exact pivot ties, which it breaks
    # toward the diagonal, so the reordered system must keep COLAMD's diagonal
    rng = np.random.default_rng(16)
    draws = [regression_params(1), regression_params(2)]
    for n_em in (1, 2, 3):
        p = random_params(rng, n_em)
        draws += [dataclasses.replace(p, gamma_z=0.0), dataclasses.replace(p, delta_c=p.delta + 3.0)]
    for p in draws:
        for n_max in (2, 3):
            cold, warm = _cold_and_warm(build(p, HilbertConfig(n_max, p.n_emitters), frame))
            assert warm.mat.tobytes() == cold.mat.tobytes()


def test_each_kept_entry_mask_runs_colamd_once(monkeypatch):
    specs = _spy_on_splu(monkeypatch)
    exact._hermitian_system.cache_clear()
    h = HilbertConfig(3, 2)
    liou = build_symmetric_liouvillian(regression_params(2), h, "rotating")
    steady_state_exact(liou)
    steady_state_exact(build_symmetric_liouvillian(regression_params(2, omega=0.3), h, "rotating"))
    assert specs == ["COLAMD", "NATURAL"]
    # on the charge-0 unknowns the diagonal's imaginary part is the detuning
    # times a photon-number difference: the same structure with another mask
    detuned = dataclasses.replace(regression_params(2), delta_c=2353.0)
    steady_state_exact(build_symmetric_liouvillian(detuned, h, "rotating"))
    steady_state_exact(build_symmetric_liouvillian(detuned, h, "as_written"))
    assert specs == ["COLAMD", "NATURAL", "COLAMD", "NATURAL"]
    orders = exact._hermitian_system(liou.pattern).orders
    assert len(orders) == 2
    for order in orders.values():
        for arr in (order.gather, order.indptr, order.indices, order.perm, order.inverse):
            assert not arr.flags.writeable


def test_recorded_column_orders_are_bounded(monkeypatch):
    specs = _spy_on_splu(monkeypatch)
    exact._hermitian_system.cache_clear()
    h = HilbertConfig(2, 2)
    names = ("kappa", "omega", "gamma_minus", "gamma_z")
    for delta_c in (_PATTERN_BASE.delta_c, _PATTERN_BASE.delta):
        for k in range(2 ** len(names)):
            zeroed = dict.fromkeys([name for j, name in enumerate(names) if k >> j & 1], 0.0)
            p = dataclasses.replace(_PATTERN_BASE, n_emitters=2, delta_c=delta_c, **zeroed)
            liou = build_symmetric_liouvillian(p, h)
            try:
                steady_state_exact(liou)
            except DegenerateSteadyState:
                pass
    orders = exact._hermitian_system(liou.pattern).orders
    assert specs.count("COLAMD") > exact._ORDERS_PER_SYSTEM
    assert len(orders) == exact._ORDERS_PER_SYSTEM


def test_an_exhausted_first_factorisation_records_no_order(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    liou = build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 3))
    exact._hermitian_system.cache_clear()
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", exhausted)
    with pytest.raises(DimensionCap, match="ran out of memory"):
        steady_state_exact(liou)
    assert not exact._hermitian_system(liou.pattern).orders
    monkeypatch.setattr(spla, "splu", splu)
    after = steady_state_exact(liou)
    cold, _ = _cold_and_warm(liou)
    assert after.mat.tobytes() == cold.mat.tobytes()


@pytest.mark.parametrize("error, typed", [(MemoryError, DimensionCap),
                                          (RuntimeError, DegenerateSteadyState)])
def test_a_failing_reordered_factorisation_is_typed(monkeypatch, error, typed):
    def fail(*args, **kwargs):
        raise error("Factor is exactly singular")

    liou = build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 3))
    steady_state_exact(liou)
    monkeypatch.setattr(spla, "splu", fail)
    with pytest.raises(typed):
        steady_state_exact(liou)


def test_steady_state_beyond_the_cap_is_refused_before_factorising(monkeypatch):
    # N=7, n_max=3: the charge-0 sector holds 41756 unknowns, over the default cap
    def refuse(*args, **kwargs):
        raise AssertionError("the real system was built or factorised")

    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(exact, "_hermitian_system", refuse)
    liou = build_liouvillian(regression_params(7), HilbertConfig(3, 7))
    with pytest.raises(DimensionCap, match="41756 sector unknowns exceeds cap 4096"):
        steady_state_exact(liou)


def test_brute_force_liouvillian_beyond_the_cap_is_refused_before_assembly(monkeypatch):
    # N=11, n_max=3: 554 permutation-symmetric unknowns fit the default cap,
    # but the brute-force L would hold d^2 = 8192^2 rows
    def refuse(*args, **kwargs):
        raise AssertionError("the pattern was built")

    monkeypatch.setattr(exact, "_liouvillian_pattern", refuse)
    h = HilbertConfig(3, 11)
    assert h.symmetric_unknowns <= h.cap < h.dim
    with pytest.raises(DimensionCap, match="Hilbert dimension 8192"):
        build_liouvillian(regression_params(11), h)


def test_degenerate_steady_state_detected():
    # g = 0, kappa = 0, omega = 0: every diagonal field state is stationary
    p = SystemParams(1, 5.0, 5.0, 0.0, 0.0, 0.0, 0.4, 0.0)
    with pytest.raises(DegenerateSteadyState):
        steady_state_exact(build_liouvillian(p, HilbertConfig(2, 1)))


def test_steady_state_frame_invariance():
    # resonant and detuned: every tracked observable commutes with the
    # excitation-number phase rotation, so both frames must agree
    for delta_c in (2350.0, 2365.0):
        p = SystemParams(2, 2350.0, delta_c, 5.0, 50.0, 1.0, 0.1, 1.0)
        h = HilbertConfig(3, 2)
        rho_aw = steady_state_exact(build_liouvillian(p, h))
        rho_rot = steady_state_exact(build_liouvillian(p, h, frame="rotating"))
        for which, idx in [("photon_number", ()), ("sigma_z", (0,)),
                           ("cross_pm", (0, 1)), ("field_coherence", (0,))]:
            a = expectation(rho_aw, which, h, *idx)
            b = expectation(rho_rot, which, h, *idx)
            assert a == pytest.approx(b, abs=1e-9)


def test_time_evolve_zero_time_is_identity():
    rng = np.random.default_rng(2)
    h = HilbertConfig(2, 1)
    liou = build_liouvillian(regression_params(1), h)
    rho0 = random_density_matrix(rng, h.dim)
    rho1 = time_evolve(liou, rho0, 0.0)
    assert np.abs(rho1.mat - rho0.mat).max() == 0.0


def test_time_evolve_trace_drift():
    rng = np.random.default_rng(3)
    p = random_params(rng, 2, delta_scale=5.0)
    h = HilbertConfig(2, 2)
    liou = build_liouvillian(p, h)
    rho0 = random_density_matrix(rng, h.dim)
    rho_t = time_evolve(liou, rho0, 100.0)
    assert abs(np.trace(rho_t.mat) - 1.0) <= 1e-9
    rho_t.validate()


@pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf])
def test_time_evolve_rejects_non_finite_time(t_final):
    h = HilbertConfig(2, 1)
    liou = build_liouvillian(regression_params(1), h)
    with pytest.raises(InvalidValue):
        time_evolve(liou, DensityMatrix.vacuum(h), t_final)


def test_time_evolve_rejects_state_of_another_size():
    liou = build_liouvillian(regression_params(1), HilbertConfig(2, 1))
    with pytest.raises(InvalidValue):
        time_evolve(liou, DensityMatrix.vacuum(HilbertConfig(3, 1)), 1.0)


def _full_space_evolution(liou, rho0, t):
    """exp(t L) vec(rho0) with one dense exponential of the whole d^2 x d^2 matrix."""
    propagator = scipy.linalg.expm(t * liou.matrix.toarray())
    return DensityMatrix(unvec(propagator @ vec(rho0.mat), liou.dim))


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
@pytest.mark.parametrize("n_em", [1, 2])
def test_time_evolve_matches_full_space_exponential(n_em, frame):
    # a random full-rank start occupies every charge block
    rng = np.random.default_rng(40 + n_em)
    h = HilbertConfig(2, n_em)
    for p in (regression_params(n_em), random_params(rng, n_em)):
        liou = build_liouvillian(p, h, frame)
        rho0 = random_density_matrix(rng, h.dim)
        for t in (0.3, 4.0):
            ref = _full_space_evolution(liou, rho0, t)
            assert trace_distance(time_evolve(liou, rho0, t), ref) <= 1e-12


def test_time_evolve_keeps_a_coherence_in_its_charge_blocks():
    # |1 photon><vacuum| has charge +1; a Hermitian start pairs it with its adjoint (charge -1)
    h = HilbertConfig(2, 2)
    liou = build_liouvillian(regression_params(2), h, "rotating")
    one_photon = 2**h.n_emitters  # basis index n * 2^N + s of one photon, no excited emitter
    mat = np.zeros((h.dim, h.dim), dtype=complex)
    mat[one_photon, 0] = mat[0, one_photon] = 0.5
    rho0 = DensityMatrix(mat)
    rho_t = time_evolve(liou, rho0, 0.05)
    ref = _full_space_evolution(liou, rho0, 0.05)
    outside = np.abs(exact._charge(h.n_max, h.n_emitters)) != 1
    assert np.all(vec(rho_t.mat)[outside] == 0.0)
    assert np.abs(vec(ref.mat)[outside]).max() <= 1e-15
    assert np.abs(rho_t.mat[one_photon, 0]) > 0.1
    assert np.abs(rho_t.mat - ref.mat).max() <= 1e-13


def test_time_evolve_rejects_a_lone_coherence():
    # |1 photon><vacuum| alone is not Hermitian; symmetrising it would invent a charge -1 part
    h = HilbertConfig(2, 2)
    liou = build_liouvillian(regression_params(2), h, "rotating")
    mat = np.zeros((h.dim, h.dim), dtype=complex)
    mat[2**h.n_emitters, 0] = 1.0
    with pytest.raises(InvalidValue, match="not Hermitian"):
        time_evolve(liou, DensityMatrix(mat), 0.05)


def test_time_evolve_caps_the_dense_block():
    # the 58 permutation-symmetric unknowns fit the cap, but the charge-0 block
    # of a vacuum start holds 196 unknowns
    h = HilbertConfig(3, 3, cap=64)
    liou = build_liouvillian(regression_params(3), h, "rotating")
    assert len(liou.pattern.unknowns) == 196
    with pytest.raises(DimensionCap):
        time_evolve(liou, DensityMatrix.vacuum(h), 1.0)


def test_pure_dephasing_keeps_populations_fixed():
    # L[sz] only: diagonal entries in the product basis are untouched
    rng = np.random.default_rng(4)
    p = SystemParams(2, 6.0, 6.0, 0.0, 0.0, 0.0, 0.0, 1.3)
    h = HilbertConfig(2, 2)
    liou = build_liouvillian(p, h)
    rho0 = random_density_matrix(rng, h.dim)
    rho_t = time_evolve(liou, rho0, 5.0)
    assert np.abs(np.diag(rho_t.mat) - np.diag(rho0.mat)).max() <= 1e-9


def test_expectation_examples():
    h = HilbertConfig(2, 2)
    vac = DensityMatrix.vacuum(h)
    assert expectation(vac, "photon_number", h) == pytest.approx(0.0)

    # all emitters excited: |0_field> x |e e>
    state = np.zeros(h.dim, dtype=complex)
    state[3] = 1.0  # field 0, both spins at index 1 -> 0*4 + 1*2 + 1
    rho_exc = DensityMatrix.pure(state)
    assert expectation(rho_exc, "sigma_z", h, 0).real == pytest.approx(1.0)

    # symmetric one-excitation state (|eg> + |ge>)/sqrt(2): <s+_0 s-_1> = 1/2
    psi = np.zeros(h.dim, dtype=complex)
    psi[2] = 1.0 / np.sqrt(2)  # |g e>... field 0: indices: spin0*2 + spin1
    psi[1] = 1.0 / np.sqrt(2)
    rho_dicke = DensityMatrix.pure(psi)
    assert expectation(rho_dicke, "cross_pm", h, 0, 1).real == pytest.approx(0.5)


def test_photon_pair_observable():
    # <a'a'aa> = n(n-1) on a Fock state
    h = HilbertConfig(3, 1)
    two_photons = np.zeros(h.dim, dtype=complex)
    two_photons[2 * 2] = 1.0  # field index 2, spin ground
    rho = DensityMatrix.pure(two_photons)
    assert expectation(rho, "photon_pair", h).real == pytest.approx(2.0)
    assert expectation(DensityMatrix.vacuum(h), "photon_pair", h) == pytest.approx(0.0)


def test_expectation_errors():
    # both state kinds go through one check of the name and the indices
    h = HilbertConfig(2, 2)
    states = [DensityMatrix.vacuum(h),
              steady_state_exact(build_symmetric_liouvillian(regression_params(2), h))]
    for which, idx, error in [("parity", (), UnknownObservable), ("sigma_z", (), IndexOutOfRange),
                              ("sigma_z", (5,), IndexOutOfRange),
                              ("sigma_z", (1.5,), IndexOutOfRange),
                              ("field_coherence", (-1,), IndexOutOfRange),
                              ("cross_zz", (0,), IndexOutOfRange),
                              ("cross_pm", (1, 1), IndexOutOfRange)]:
        for rho in states:
            with pytest.raises(error):
                expectation(rho, which, h, *idx)
    for rho in states:  # an index the observable does not read is ignored
        assert expectation(rho, "photon_number", h, 7) == expectation(rho, "photon_number", h)
        assert expectation(rho, "sigma_z", h, 1, 1) == expectation(rho, "sigma_z", h, 1)


def test_expectation_rejects_a_state_of_another_configuration():
    small, big = HilbertConfig(1, 2), HilbertConfig(3, 2)
    two_photons = np.zeros((big.dim, big.dim), dtype=complex)
    two_photons[9, 9] = 1.0  # basis index 9 = 2 * 2^2 + 1: two photons, emitter 1 excited
    symmetric = steady_state_exact(build_symmetric_liouvillian(regression_params(2), small))
    # unchecked, the first would read only rho's top-left block (0j), the second past its end
    for rho, h in [(DensityMatrix(two_photons), small), (DensityMatrix.vacuum(small), big),
                   (symmetric, big)]:
        with pytest.raises(InvalidValue, match="read with"):
            expectation(rho, "photon_number", h)


def test_symmetric_state_of_the_wrong_length_is_refused():
    # (3, 2) has 32 unknowns: unchecked, 3 values read past u's end (a bare
    # IndexError) and 300 read 0j; trace_distance failed inside scipy
    h = HilbertConfig(3, 2)
    good = steady_state_exact(build_symmetric_liouvillian(regression_params(2), h))
    for length in (3, 300):
        short = exact.SymmetricState(np.zeros(length, dtype=complex), h)
        with pytest.raises(InvalidValue, match=f"u has shape \\({length},\\), the configuration has 32"):
            expectation(short, "photon_number", h)
        for a, b in [(short, good), (good, short)]:
            with pytest.raises(InvalidValue, match="the configuration has 32 unknowns"):
                trace_distance(a, b)


def test_flux_zero_when_decoupled():
    p = SystemParams(2, 10.0, 10.0, 0.0, 5.0, 1.0, 0.2, 0.1)
    assert photon_flux_exact(p, HilbertConfig(2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_flux_n1_regression_value():
    p = regression_params(1)
    flux = photon_flux_exact(p, HilbertConfig(3, 1), frame="rotating")
    assert flux == pytest.approx(FLUX_N1_REFERENCE, rel=1e-10)
    # sanity band: adiabatic estimate Gamma_c * p_e with Gamma_c = 4 g^2 / kappa = 2
    gamma_c = 4 * p.g**2 / p.kappa
    p_e = p.omega / (p.omega + p.gamma_minus + gamma_c)
    assert 0.3 * gamma_c * p_e < flux < 3.0 * gamma_c * p_e


def test_flux_linear_response_doubling():
    base = dict(delta=2350.0, delta_c=2350.0, g=5.0, kappa=50.0,
                gamma_minus=0.1, gamma_z=1.0)
    f1 = photon_flux_exact(SystemParams(n_emitters=1, omega=0.01, **base),
                           HilbertConfig(3, 1), frame="rotating")
    f2 = photon_flux_exact(SystemParams(n_emitters=1, omega=0.02, **base),
                           HilbertConfig(3, 1), frame="rotating")
    assert f2 / f1 == pytest.approx(2.0, rel=0.05)


def test_converge_in_cutoff_returns_the_last_rung():
    p = regression_params(1)

    def flux(rho, h):
        return (p.kappa * expectation(rho, "photon_number", h).real,)

    (value,), h, rho = converge_in_cutoff(p, HilbertConfig(3, 1), flux, frame="rotating")
    assert value == photon_flux_exact(p, HilbertConfig(3, 1), frame="rotating")
    assert h.n_max > 3 and (h.n_max - 3) % 2 == 0
    assert (value,) == flux(rho, h)
    direct = steady_state_exact(build_symmetric_liouvillian(p, h, frame="rotating"))
    assert trace_distance(rho, direct) <= 1e-14


def test_converge_in_cutoff_climbs_until_every_value_settles():
    # the first value settles at n_max=5, the second only at n_max=9
    rungs = []

    def observe(rho, h):
        rungs.append(h.n_max)
        return 1.0, float(min(h.n_max, 7))

    values, h, _ = converge_in_cutoff(regression_params(1), HilbertConfig(3, 1), observe,
                                      frame="rotating")
    assert rungs == [3, 5, 7, 9]
    assert values == (1.0, 7.0) and h.n_max == 9


def test_flux_cutoff_not_converged_when_capped():
    # 32 unknowns at n_max=3 fit the cap, the 52 of the next rung do not
    p = regression_params(2, omega=5.0)
    with pytest.raises(CutoffNotConverged):
        photon_flux_exact(p, HilbertConfig(3, 2, cap=40), frame="rotating")


def test_g2_vacuum_guard():
    p = SystemParams(1, 10.0, 10.0, 2.0, 5.0, 0.0, 0.2, 0.0)
    with pytest.raises(VacuumState):
        g2_zero_exact(p, HilbertConfig(2, 1))


def test_g2_single_emitter_antibunching():
    # one two-level emitter cannot emit photon pairs: g2 << 1 at weak drive
    p = SystemParams(1, 2350.0, 2350.0, 5.0, 50.0, 0.01, 0.1, 1.0)
    g2, _ = g2_zero_converged(p, HilbertConfig(3, 1), frame="rotating")
    assert g2 < 0.5


def test_g2_collective_trend_toward_coherent():
    vals = {}
    for n in (1, 2, 3):
        p = SystemParams(n, 2350.0, 2350.0, 5.0, 100.0, 1.5 * n, 0.1, 1.0)
        vals[n], _ = g2_zero_converged(p, HilbertConfig(3, n), frame="rotating")
    assert vals[1] < 0.5
    assert 0.8 < vals[2] < 1.5
    assert 0.8 < vals[3] < 1.5
    assert abs(vals[3] - 1.0) < abs(vals[1] - 1.0)


# --- randomized invariants -----------------------------------------------------

def test_trace_preserved_on_random_states():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        h = HilbertConfig(2, n)
        liou = build_liouvillian(random_params(rng, n), h)
        rho = random_density_matrix(rng, h.dim)
        assert abs(liou.trace_row() @ (liou.matrix @ vec(rho.mat))) <= 1e-10


def test_hermiticity_preserved():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        h = HilbertConfig(2, n)
        liou = build_liouvillian(random_params(rng, n), h)
        herm = random_hermitian(rng, h.dim)
        out = unvec(liou.matrix @ vec(herm), h.dim)
        assert np.abs(out - out.conj().T).max() <= 1e-10


def test_permutation_symmetry_preserved():
    rng = np.random.default_rng(8)
    p = random_params(rng, 2, delta_scale=5.0)
    h = HilbertConfig(2, 2)
    liou = build_liouvillian(p, h)
    # symmetrize a random state over the two emitters
    rho_raw = random_density_matrix(rng, h.dim).mat
    swap = np.zeros((h.dim, h.dim))
    for f in range(h.n_max + 1):
        for s0 in range(2):
            for s1 in range(2):
                swap[f * 4 + s1 * 2 + s0, f * 4 + s0 * 2 + s1] = 1.0
    rho_sym = (rho_raw + swap @ rho_raw @ swap.T) / 2
    rho_sym = DensityMatrix(rho_sym / np.trace(rho_sym).real)
    for t in (0.5, 2.0):
        rho_t = time_evolve(liou, rho_sym, t)
        sz0 = expectation(rho_t, "sigma_z", h, 0)
        sz1 = expectation(rho_t, "sigma_z", h, 1)
        assert abs(sz0 - sz1) <= 1e-9


def test_excitation_conserved_under_dephasing_only():
    # kappa = omega = gamma_minus = 0: H and L[sz] conserve a'a + sum s+s-
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = SystemParams(2, rng.uniform(1, 10), rng.uniform(1, 10),
                         rng.uniform(0, 5), 0.0, 0.0, 0.0, rng.uniform(0.1, 3))
        h = HilbertConfig(2, 2)
        liou = build_liouvillian(p, h)
        n_tot = total_excitation_operator(h)
        rho = random_density_matrix(rng, h.dim)
        drho = unvec(liou.matrix @ vec(rho.mat), h.dim)
        assert abs(np.trace(n_tot.toarray() @ drho)) <= 1e-8


def test_site_operator_index_guard():
    h = HilbertConfig(2, 2)
    with pytest.raises(IndexOutOfRange):
        site_operator(h, np.eye(2), 2)


def test_expectation_builds_ladder_operators_once_per_config():
    h = HilbertConfig(3, 2)
    rho = random_density_matrix(np.random.default_rng(5), h.dim)
    exact._ladder_operators.cache_clear()
    exact._observable_operator.cache_clear()
    expectation(rho, "photon_number", h)
    expectation(rho, "photon_pair", h)
    expectation(rho, "field_coherence", h, 1)
    expectation(rho, "sigma_z", h, 0)
    expectation(rho, "cross_zz", h, 0, 1)
    info = exact._ladder_operators.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    # the shared operators cannot be changed through a returned reference
    a, _, sigma_z_all = exact._ladder_operators(h.n_max, h.n_emitters)
    sigma_z = sigma_z_all[0]
    assert (sigma_z != site_operator(h, np.diag([-1.0, 1.0]), 0)).nnz == 0
    for op in (a, sigma_z):
        with pytest.raises(ValueError):
            op.data[0] = 0.0
