import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    random_density_matrix,
    random_hermitian,
    random_params,
    regression_params,
)
from reference_liouvillian import (
    dense_expectation,
    dense_trace_distance,
    expand,
    expansion,
    full_space_evolution,
    full_space_steady_state,
    kron_liouvillian,
    ladder_operators,
    symmetric_state,
    unknown_of,
    vec,
)
from superrad import exact
from superrad.errors import (
    CutoffNotConverged,
    DegenerateSteadyState,
    DimensionCap,
    InvalidValue,
    UnknownObservable,
    VacuumState,
)
from superrad.exact import (
    FLUX_CUTOFF_RTOL,
    OBSERVABLES,
    HilbertConfig,
    SymmetricState,
    build_symmetric_liouvillian,
    converge_in_cutoff,
    expectation,
    g2_zero_converged,
    photon_flux_exact,
    steady_state_exact,
    time_evolve,
    trace_distance,
)
from superrad.params import SystemParams

# frozen by running the cutoff-converged solver on the N=1 reference set;
# stable to <1e-12 against rel_tol in {1e-6, 1e-9, 1e-12} and both frames
FLUX_N1_REFERENCE = 0.6145299918401527


def test_dimension_arithmetic():
    h = HilbertConfig(n_max=1, n_emitters=2)
    assert h.dim == 8
    liou = build_symmetric_liouvillian(regression_params(2), h)
    assert liou.dim == 8
    assert liou.matrix.shape == (12, 12) == (h.symmetric_unknowns,) * 2


def test_dimension_cap_enforced():
    with pytest.raises(DimensionCap):
        HilbertConfig(n_max=10, n_emitters=6, cap=512).check_cap()
    with pytest.raises(DimensionCap):
        build_symmetric_liouvillian(regression_params(2), HilbertConfig(7, 2, cap=16))


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
        liou = build_symmetric_liouvillian(random_params(rng, n), HilbertConfig(2, n))
        assert np.abs(liou.pattern.trace_weights @ liou.matrix).max() <= 1e-10


def test_dark_state_is_null_vector_without_pump():
    p = SystemParams(1, 10.0, 10.0, 0.0, 3.0, 0.0, 0.5, 0.0)
    h = HilbertConfig(2, 1)
    liou = build_symmetric_liouvillian(p, h)
    assert np.abs(liou.matrix @ SymmetricState.vacuum(h).mat).max() <= 1e-12


def test_liouvillian_has_zero_eigenvalue():
    rng = np.random.default_rng(1)
    liou = build_symmetric_liouvillian(random_params(rng, 2), HilbertConfig(1, 2))
    eigs = np.linalg.eigvals(liou.matrix.toarray())
    scale = max(1.0, np.abs(eigs).max())
    assert np.abs(eigs).min() <= 1e-10 * scale


def test_steady_state_no_pump_is_vacuum():
    p = SystemParams(2, 8.0, 9.0, 2.0, 5.0, 0.0, 0.3, 0.7)
    h = HilbertConfig(3, 2)
    rho = steady_state_exact(build_symmetric_liouvillian(p, h))
    assert expectation(rho, "photon_number").real == pytest.approx(0.0, abs=1e-12)
    assert expectation(rho, "sigma_z").real == pytest.approx(-1.0, abs=1e-12)


def test_steady_state_rate_equation_fixed_point():
    # g = 0 decouples the field; the emitter settles at omega/(omega+gamma-)
    p = SystemParams(1, 2350.0, 2350.0, 0.0, 1.0, 1.0, 3.0, 0.0)
    h = HilbertConfig(2, 1)
    rho = steady_state_exact(build_symmetric_liouvillian(p, h))
    population = (1.0 + expectation(rho, "sigma_z").real) / 2.0
    assert population == pytest.approx(0.25, abs=1e-9)


def test_steady_state_matches_long_time_integration():
    p = regression_params(2)
    h = HilbertConfig(4, 2)
    liou = build_symmetric_liouvillian(p, h, frame="rotating")
    rho_ss = steady_state_exact(liou)
    rho_t = time_evolve(liou, SymmetricState.vacuum(h), 1000.0)
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
        liou = build_symmetric_liouvillian(p, h)
        rho_tr = steady_state_exact(liou)
        eigvals, eigvecs = np.linalg.eig(liou.matrix.toarray())
        u = eigvecs[:, int(np.argmin(np.abs(eigvals)))]
        u = u / (liou.pattern.trace_weights @ u)  # trace 1 fixes the eigenvector's phase
        u = (u + u[liou.pattern.adjoint].conj()) / 2
        assert trace_distance(rho_tr, SymmetricState(u, h)) <= 1e-10
        checked += 1


def complex_steady_state(liou):
    """The complex trace-replacement solve on the unknowns, the reference for the real one.

    Row 0 of L becomes the trace functional with right-hand side 1; the
    solution is made Hermitian and normalised.  Returns the unknowns u,
    unvalidated.
    """
    pattern = liou.pattern
    system = liou.matrix.tolil()
    system[0, :] = pattern.trace_weights
    rhs = np.zeros(system.shape[0], dtype=complex)
    rhs[0] = 1.0
    x = spla.splu(system.tocsc(), permc_spec="COLAMD").solve(rhs)
    x = (x + x[pattern.adjoint].conj()) / 2
    return x / (pattern.trace_weights @ x).real


def assert_matches_complex_solve(liou, tol=1e-12):
    """The real solve against complex_steady_state: unknowns and trace distance."""
    state = steady_state_exact(liou)
    reference = complex_steady_state(liou)
    assert np.abs(state.mat - reference).max() <= tol
    assert trace_distance(state, SymmetricState(reference, liou.hilbert)) <= tol
    return state


def _with_zero_rates(p, rng):
    """p with a random subset of kappa, omega, gamma_minus, gamma_z set to 0."""
    names = ("kappa", "omega", "gamma_minus", "gamma_z")
    zeroed = [name for name in names if rng.random() < 0.4]
    return dataclasses.replace(p, **dict.fromkeys(zeroed, 0.0))


def _restricted_kron_reference(p, h, frame):
    """The kron reference L on the unknowns, (E'E)^-1 E' L_kron E with E = expansion(h), and L_kron E.

    L_kron E = E L holds exactly when the symmetric charge-0 states are
    invariant under L_kron and L is its restriction to them.  E'E is
    diagonal, 1/M(k) at each unknown.
    """
    applied = kron_liouvillian(p, h, frame) @ expansion(h)
    _, multiplicity = unknown_of(h.n_max, h.n_emitters)
    return (expansion(h).T @ applied).multiply(multiplicity[:, None]).tocsr(), applied


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_liouvillian_matches_term_by_term_kron_reference(frame):
    rng = np.random.default_rng(31)
    for k in range(12):
        n_em = 1 + k % 3
        p = random_params(rng, n_em)
        if k % 2:
            p = _with_zero_rates(p, rng)
        h = HilbertConfig(int(rng.integers(1, 4)), n_em)
        lmat = build_symmetric_liouvillian(p, h, frame).matrix
        ref, applied = _restricted_kron_reference(p, h, frame)
        assert abs(applied - expansion(h) @ lmat).max() <= 1e-13 * abs(applied).max()
        assert abs(lmat - ref).max() <= 1e-13 * abs(ref).max()


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
    ref, _ = _restricted_kron_reference(p, h, frame)
    ref.data[abs(ref.data) <= 1e-13 * abs(ref).max()] = 0  # rounding of cancelled terms
    ref.eliminate_zeros()
    ref.sort_indices()
    lmat = build_symmetric_liouvillian(p, h, frame).matrix.copy()
    lmat.sort_indices()
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
    assert_matches_complex_solve(build_symmetric_liouvillian(p, HilbertConfig(2, n_em), frame))


def test_real_solve_matches_complex_solve_at_twenty_emitters():
    p = SystemParams(20, 2000.0, 2000.0, 2.0 / np.sqrt(20), 20.0, 0.3, 0.1, 0.5)
    assert_matches_complex_solve(build_symmetric_liouvillian(p, HilbertConfig(5, 20), "rotating"))


def _active(p):
    """The active set of p, the key of its steady-state system: which of g, the rates and
    delta - delta_c are nonzero."""
    return (p.g != 0, p.kappa != 0, p.omega != 0, p.gamma_minus != 0, p.gamma_z != 0,
            p.delta != p.delta_c)


def _system_values(system, liou):
    """The values of a steady-state system of liou, as steady_state_exact sums them."""
    parts = liou.entries.view(np.float64)
    # with no rate at all no part is kept, and bincount counts in ints
    data = np.bincount(system.slots, system.factors * parts[system.sources],
                       minlength=len(system.columns)).astype(float, copy=False)
    data[system.trace_at] = system.trace_values
    return data


def test_hermitian_system_is_cached_and_read_only():
    p = regression_params(3)
    h = HilbertConfig(3, 3)
    steady_state_exact(build_symmetric_liouvillian(p, h))
    hits = exact._hermitian_system.cache_info().hits
    steady_state_exact(build_symmetric_liouvillian(regression_params(3, omega=0.3), h, "rotating"))
    assert exact._hermitian_system.cache_info().hits == hits + 1
    pattern = build_symmetric_liouvillian(p, h).pattern
    system = exact._hermitian_system(h.n_max, h.n_emitters, _active(p))
    for arr in (system.matrix.indptr, system.matrix.indices, system.columns, system.slots,
                system.sources, system.factors, system.trace_at, system.trace_values,
                system.rhs, system.u_sources, system.u_signs, system.order):
        assert not arr.flags.writeable
    # the system's values, summed per slot, are bitwise those of a CSR product
    # of the map from L's entries, as are the refinement residual's row sums
    # of a CSC product
    indptr, indices = system.matrix.indptr, system.matrix.indices
    m = len(indptr) - 1
    rng = np.random.default_rng(7)
    parts = rng.normal(size=2 * len(pattern.indices))  # Re and Im of each entry of L
    terms = sp.csr_matrix((system.factors, (system.slots, system.sources)),
                          shape=(len(indices), len(parts)))
    assert np.array_equal(np.bincount(system.slots, system.factors * parts[system.sources],
                                      minlength=len(indices)), terms @ parts)
    data, w = rng.normal(size=len(indices)), rng.normal(size=m)
    product = sp.csc_matrix((data, indices, indptr), shape=(m, m)) @ w
    assert np.array_equal(np.bincount(indices, data * w[system.columns], minlength=m), product)


_RATE_NAMES = ("g", "kappa", "omega", "gamma_minus", "gamma_z")


def _rate_pattern_points():
    """L at every zero pattern of (g, kappa, omega, gamma_minus, gamma_z), resonant and
    detuned, in both frames at N = 1-3 and n_max 2-3: 768 points."""
    for n_em in (1, 2, 3):
        for k in range(2 ** len(_RATE_NAMES)):
            zeroed = dict.fromkeys([name for j, name in enumerate(_RATE_NAMES) if k >> j & 1], 0.0)
            for delta_c in (_PATTERN_BASE.delta, _PATTERN_BASE.delta_c):
                p = dataclasses.replace(_PATTERN_BASE, n_emitters=n_em, delta_c=delta_c, **zeroed)
                for n_max in (2, 3):
                    for frame in ("as_written", "rotating"):
                        yield build_symmetric_liouvillian(p, HilbertConfig(n_max, n_em), frame)


def _zero_pattern_points():
    """The rate patterns of _rate_pattern_points, then 20 seeded draws at N <= 10 in both frames."""
    yield from _rate_pattern_points()
    rng = np.random.default_rng(3101)
    for _ in range(20):
        p = random_params(rng, int(rng.integers(1, 11)))
        p = dataclasses.replace(p, **{name: 0.0 for name in _RATE_NAMES if rng.random() < 0.3})
        if rng.random() < 0.5:
            p = dataclasses.replace(p, delta_c=p.delta)
        for frame in ("as_written", "rotating"):
            yield build_symmetric_liouvillian(p, HilbertConfig(int(rng.integers(1, 4)),
                                                               p.n_emitters), frame)


def _stored_by_coordinate(system, values):
    """(row coordinate, column coordinate, value) of each stored entry, by column then row."""
    rows, cols = system.order[system.matrix.indices], system.order[system.columns]
    sort = np.lexsort((rows, cols))
    return rows[sort], cols[sort], values[sort]


def test_the_kept_entries_of_an_active_set_are_the_nonzero_values():
    # the system with every part kept holds every slot L can fill, on every
    # coordinate; the system of an L's active set must keep exactly the slots
    # where its values are not 0, with the same values, on the coordinates
    # it holds: all of them if detuned, and otherwise a set that no nonzero
    # value joins to the others
    for liou in _zero_pattern_points():
        h = liou.hilbert
        full = exact._hermitian_system(h.n_max, h.n_emitters, (True,) * 6)
        kept = exact._hermitian_system(h.n_max, h.n_emitters, _active(liou.params))
        held = np.zeros(len(full.order), dtype=bool)
        held[kept.order] = True
        assert held.sum() == len(kept.order)
        assert held.all() == _active(liou.params)[-1]
        rows, cols, values = _stored_by_coordinate(full, _system_values(full, liou))
        nonzero = values != 0
        assert np.array_equal(held[rows][nonzero], held[cols][nonzero])
        inside = nonzero & held[rows]
        got = _stored_by_coordinate(kept, _system_values(kept, liou))
        for got_part, part in zip(got, (rows, cols, values)):
            assert got_part.tobytes() == part[inside].tobytes()


def test_solves_build_the_csr_of_l_only_when_it_is_read(monkeypatch):
    built = []

    def keep(*args, build=exact.build_symmetric_liouvillian, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(exact, "build_symmetric_liouvillian", keep)
    p = dataclasses.replace(regression_params(2, omega=0.5), gamma_minus=0.0)  # zero entries in L
    assert photon_flux_exact(p, HilbertConfig(3, 2)) > 0
    assert len(built) >= 2
    steady_state_exact(keep(p, HilbertConfig(2, 2), "rotating"))
    for liou in built:
        assert "matrix" not in vars(liou)
        pattern, entries = liou.pattern, liou.entries
        size = len(pattern.indptr) - 1
        rows = np.repeat(np.arange(size), np.diff(pattern.indptr))
        # every row holds its diagonal, so the solve's residual sums no empty row
        for positions in (rows, pattern.indices):
            assert np.array_equal(positions[pattern.diagonal], np.arange(size))
        kept = entries != 0
        assert not kept.all()
        expected = sp.csr_matrix((entries[kept], (rows[kept], pattern.indices[kept])),
                                 shape=liou.matrix.shape)
        assert liou.matrix is vars(liou)["matrix"]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(liou.matrix, name), getattr(expected, name)), name


def test_liouvillian_pattern_is_cached_and_read_only():
    h = HilbertConfig(3, 2)
    build_symmetric_liouvillian(regression_params(2), h)
    hits = exact._symmetric_pattern.cache_info().hits
    liou = build_symmetric_liouvillian(regression_params(2, omega=0.3), h, "rotating")
    assert exact._symmetric_pattern.cache_info().hits == hits + 1
    assert liou.pattern is exact._symmetric_pattern(h.n_max, h.n_emitters)
    for arr in vars(liou.pattern).values():
        assert not arr.flags.writeable
    # the built L owns its arrays, so changing it leaves the pattern intact
    liou.matrix.indices[0] += 1
    assert liou.matrix.indices[0] != liou.pattern.indices[0]
    for which in OBSERVABLES:
        positions, weights = exact._symmetric_observable(which, h.n_max, h.n_emitters)
        assert exact._symmetric_observable(which, h.n_max, h.n_emitters)[0] is positions
        for arr in (positions, weights):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_unknowns_are_counted_as_the_pattern_lists_them():
    for n_max in range(1, 6):
        for n_em in range(1, 12):
            pattern = exact._symmetric_pattern(n_max, n_em)
            assert HilbertConfig(n_max, n_em).symmetric_unknowns == len(pattern.trace_weights)


def _symmetric_count_by_terms(n_max, n_em):
    """The unknowns counted as a sum over |d| = |k_eg - k_ge| <= min(n_max, N), the reference."""
    total = 0
    for d in range(min(n_max, n_em) + 1):
        m = n_em - d
        t = m // 2
        total += (2 if d else 1) * (n_max + 1 - d) * (t + 1) * (m + 1 - t)
    return total


def test_the_closed_form_count_is_the_sum_of_its_terms():
    cases = [(n_max, n_em) for n_max in range(1, 41) for n_em in range(1, 201)]
    cases += [(3, 10**8), (40, 10**8 + 1), (10**8, 7), (10**8 - 1, 200), (123_457, 10**8 + 3),
              (10**8 + 2, 98_765)]
    for n_max, n_em in cases:
        assert exact._symmetric_count(n_max, n_em) == _symmetric_count_by_terms(n_max, n_em)


def test_cap_check_at_a_large_n_is_arithmetic():
    # counting on an (N+1) x (N+1) grid would need 8 TB at N = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCap, match="^4000006000004 permutation-symmetric unknowns"):
            HilbertConfig(3, 10**6).check_cap()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_caches_are_shared_by_configurations_that_differ_only_in_cap(monkeypatch):
    calls = _spy_on_splu(monkeypatch)
    for cache in (exact._symmetric_pattern, exact._hermitian_system):
        cache.cache_clear()
    p = regression_params(3)
    liou = [build_symmetric_liouvillian(p, HilbertConfig(3, 3, cap)) for cap in (4096, 5000)]
    for each in liou:
        steady_state_exact(each)
    assert liou[0].pattern is liou[1].pattern
    assert calls[0][0] is calls[1][0] is exact._hermitian_system(3, 3, _active(p)).matrix
    assert exact._symmetric_pattern.cache_info().misses == 1
    assert exact._hermitian_system.cache_info().misses == 1


def test_build_liouvillian_rejects_unknown_frame():
    with pytest.raises(InvalidValue):
        build_symmetric_liouvillian(regression_params(1), HilbertConfig(2, 1), frame="lab")


def test_builder_rejects_params_of_another_emitter_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(exact, "_symmetric_pattern", refuse)
    with pytest.raises(InvalidValue, match="3 emitters"):
        build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_state_validate_names_non_finite_entries(value):
    # one bad entry in a valid state: every comparison with nan is false, and
    # inf - inf is nan, so the finite check must come before the others
    h = HilbertConfig(1, 1)
    p = SystemParams(1, 2000.0, 2000.0, 1.0, 10.0, 0.0, 0.2, 0.5)  # no pump: the vacuum
    state = steady_state_exact(build_symmetric_liouvillian(p, h))
    state.validate()
    state.mat[3] = value
    with pytest.raises(InvalidValue, match=r"non-finite entries: 1; .* at index \[3\]"):
        state.validate()


def _excitations(h):
    """E = a'a + sum_n s+_n s-_n at each basis state, from the reference's ladder operators."""
    a, sigma_minus, _ = ladder_operators(h.n_max, h.n_emitters)
    return np.rint((a.T @ a + sum(sm.T @ sm for sm in sigma_minus)).diagonal()).astype(int)


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_liouvillian_never_mixes_excitation_differences(frame):
    # why the steady state lies among the charge-0 elements E_i = E_j that the unknowns hold
    rng = np.random.default_rng(32)
    for n_em in (1, 2, 3):
        for _ in range(3):
            h = HilbertConfig(int(rng.integers(1, 4)), n_em)
            lmat = kron_liouvillian(random_params(rng, n_em), h, frame)
            energy = _excitations(h)
            charge = vec(energy[:, None] - energy[None, :])
            sector, outside = np.flatnonzero(charge == 0), np.flatnonzero(charge != 0)
            assert lmat[outside][:, sector].nnz == 0
            assert lmat[sector][:, outside].nnz == 0


@pytest.mark.parametrize("n_max, n_em", [(1, 1), (3, 4), (126, 1), (127, 1)])
def test_charge_matches_total_excitation_operator(n_max, n_em):
    # every element an unknown holds has the E of the unknown's ket and bra,
    # which the diagonal of L reads, and charge 0
    h = HilbertConfig(n_max, n_em)
    pattern = exact._symmetric_pattern(n_max, n_em)
    unknown, _ = unknown_of(n_max, n_em)
    rows, cols = np.nonzero(unknown >= 0)
    energy = _excitations(h)
    held = unknown[rows, cols]
    n, m = pattern.photons
    ee, eg, ge, _ = pattern.k
    ket, bra = n + ee + eg, m + ee + ge
    assert np.array_equal(ket[held], energy[rows])
    assert np.array_equal(bra[held], energy[cols])
    assert np.array_equal(energy[rows], energy[cols])


def test_zero_difference_sector_size():
    # the unknowns are the classes (n, m, k) of the charge-0 elements of rho,
    # and the trace weights sit on those of the rho_ii, u(0, 0, (0, 0, 0, N)) first
    for (n_max, n_em), size in {(3, 4): 92, (1, 1): 6, (2, 2): 22}.items():
        h = HilbertConfig(n_max, n_em)
        pattern = exact._symmetric_pattern(n_max, n_em)
        assert h.symmetric_unknowns == len(pattern.trace_weights) == size
        unknown, _ = unknown_of(h.n_max, n_em)
        assert np.array_equal(np.unique(unknown[unknown >= 0]), np.arange(size))
        diagonal = np.unique(np.diagonal(unknown))
        assert np.array_equal(np.flatnonzero(pattern.trace_weights), diagonal)
        assert np.all(pattern.trace_weights[diagonal] == 1.0)
        assert pattern.trace_weights[0] == 1.0


@pytest.mark.parametrize(
    "n_em, n_max", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 5), (4, 3)]
)
def test_sector_solve_matches_full_space_solve(n_em, n_max):
    if n_em < 4:
        p = random_params(np.random.default_rng(100 * n_em + n_max), n_em)
    else:  # the oracle's leaky regime
        p = SystemParams(4, 2000.0, 2000.0, 1.2, 40.0, 0.2, 0.1, 0.5)
    h = HilbertConfig(n_max, n_em)
    for frame in ("as_written", "rotating"):
        rho = expand(steady_state_exact(build_symmetric_liouvillian(p, h, frame)))
        reference = full_space_steady_state(kron_liouvillian(p, h, frame), h.dim)
        assert dense_trace_distance(rho, reference) <= 1e-12


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_a_resonant_full_space_steady_state_is_fixed_by_the_parity_conjugation(frame):
    # Theta rho = P rho* P with P = (-1)^{a'a} fixes the steady state at delta =
    # delta_c: the kron reference's rho is real where n_i + n_j is even and
    # imaginary where it is odd, which the reduced system assumes; 3 meV off
    # resonance it is not, so a reduction applied there would be caught
    rng = np.random.default_rng(3401)
    for n_em in (1, 2, 3):
        for _ in range(3):
            p = random_params(rng, n_em)
            h = HilbertConfig(int(rng.integers(1, 4)), n_em)
            photons = np.arange(h.dim) // 2**n_em  # the field factor comes first
            odd = (photons[:, None] + photons[None, :]) % 2 == 1
            broken = []
            for delta_c in (p.delta, p.delta + 3.0):
                lmat = kron_liouvillian(dataclasses.replace(p, delta_c=delta_c), h, frame)
                rho = full_space_steady_state(lmat, h.dim)
                broken.append(max(np.abs(rho.imag[~odd]).max(), np.abs(rho.real[odd]).max()))
            assert broken[0] <= 1e-12 and broken[1] > 1e-5


def _solve_on(system, liou):
    """u from one solve of liou's steady state on system, and the solved w, unrefined."""
    w = system.factorise(_system_values(system, liou))(system.rhs)
    u = (w[system.u_sources] * system.u_signs).view(complex).ravel()
    return u / (liou.pattern.trace_weights @ u.real), w


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_the_reduced_resonant_solve_is_the_solve_on_every_coordinate(frame):
    # at resonance the system holds only the coordinates that Theta lets be
    # nonzero; the solve on every coordinate puts exact zeros on the others
    # and the same u within 1e-14; a detuned system holds every coordinate
    rng = np.random.default_rng(3402)
    for _ in range(30):
        p = random_params(rng, int(rng.integers(1, 11)))
        p = dataclasses.replace(p, delta_c=p.delta)
        h = HilbertConfig(int(rng.integers(1, 4)), p.n_emitters)
        liou = build_symmetric_liouvillian(p, h, frame)
        full = exact._hermitian_system(h.n_max, h.n_emitters, (True,) * 6)
        reduced = exact._hermitian_system(h.n_max, h.n_emitters, _active(p))
        assert len(reduced.order) < len(full.order) == h.symmetric_unknowns
        u, w = _solve_on(full, liou)
        dropped = ~np.isin(full.order, reduced.order)
        assert np.all(w[dropped] == 0)
        state = steady_state_exact(liou).mat
        assert np.abs(state - u).max() <= 1e-14 * np.abs(u).max()
        detuned = exact._hermitian_system(h.n_max, h.n_emitters, _active(p)[:-1] + (True,))
        assert np.array_equal(np.sort(detuned.order), np.arange(h.symmetric_unknowns))


def test_steady_state_out_of_memory_is_a_dimension_cap(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(exact, "_DENSE_MAX", 0)  # every system goes to SuperLU
    monkeypatch.setattr(spla, "splu", exhausted)
    # N=4, n_max=3 has 92 unknowns; at resonance the system holds 64 of their coordinates
    with pytest.raises(DimensionCap, match="of 64 real sector unknowns"):
        steady_state_exact(build_symmetric_liouvillian(regression_params(4), HilbertConfig(3, 4)))


def _cold_and_warm(liou):
    """The steady state solved with no steady-state system cached, then again with it cached."""
    exact._hermitian_system.cache_clear()
    return steady_state_exact(liou), steady_state_exact(liou)


def _spy_on_splu(monkeypatch):
    """Patch splu to log (matrix, permc_spec, LU) of each factorisation that succeeds into the returned list.

    Every system is then factorised by SuperLU, whatever its size.
    """
    monkeypatch.setattr(exact, "_DENSE_MAX", 0)
    calls, splu = [], spla.splu

    def spy(a, permc_spec=None, **kwargs):
        lu = splu(a, permc_spec=permc_spec, **kwargs)
        calls.append((a, permc_spec, lu))
        return lu

    monkeypatch.setattr(spla, "splu", spy)
    return calls


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_a_repeated_solve_is_bitwise_the_first(monkeypatch, frame):
    # at the reference point SuperLU meets exact pivot ties; the second solve
    # writes into the CSC the first built, and must factorise it the same way;
    # these systems are small enough for the dense factor too, so both paths run
    rng = np.random.default_rng(16)
    draws = [regression_params(1), regression_params(2)]
    for n_em in (1, 2, 3):
        p = random_params(rng, n_em)
        draws += [dataclasses.replace(p, gamma_z=0.0), dataclasses.replace(p, delta_c=p.delta + 3.0)]
    for dense_max in (0, exact._DENSE_MAX):
        monkeypatch.setattr(exact, "_DENSE_MAX", dense_max)
        for p in draws:
            for n_max in (2, 3):
                cold, warm = _cold_and_warm(
                    build_symmetric_liouvillian(p, HilbertConfig(n_max, p.n_emitters), frame))
                assert warm.mat.tobytes() == cold.mat.tobytes()


def test_each_kept_entry_mask_builds_its_csc_once_and_factorises_it_naturally(monkeypatch):
    # the kept entries are those of an active set, so each (n_max, N, active)
    # builds one CSC, on its first solve
    calls = _spy_on_splu(monkeypatch)
    exact._hermitian_system.cache_clear()
    h = HilbertConfig(3, 2)
    steady_state_exact(build_symmetric_liouvillian(regression_params(2), h, "rotating"))
    steady_state_exact(build_symmetric_liouvillian(regression_params(2, omega=0.3), h, "rotating"))
    # on the charge-0 unknowns the diagonal's imaginary part is the detuning
    # times a photon-number difference: the same structure with more kept
    detuned = dataclasses.replace(regression_params(2), delta_c=2353.0)
    steady_state_exact(build_symmetric_liouvillian(detuned, h, "rotating"))
    steady_state_exact(build_symmetric_liouvillian(detuned, h, "as_written"))
    assert [spec for _, spec, _ in calls] == ["NATURAL"] * 4
    matrices = [a for a, _, _ in calls]
    assert matrices[0] is matrices[1] and matrices[2] is matrices[3]
    assert matrices[0] is not matrices[2]
    assert exact._hermitian_system.cache_info().misses == 2
    systems = [exact._hermitian_system(h.n_max, h.n_emitters, _active(p))
               for p in (regression_params(2), detuned)]
    assert [system.matrix for system in systems] == [matrices[0], matrices[2]]
    assert len(matrices[0].indices) < len(matrices[2].indices)
    # the system is numbered in the lattice order of the coordinates it holds,
    # trace row last, and its CSC is canonical, with no stored zero on these
    # draws; at resonance it holds w_lo of each unknown whose n - m is even and
    # w_hi of each whose n - m is odd, and detuned every coordinate
    pattern = exact._symmetric_pattern(h.n_max, h.n_emitters)
    unknown = np.arange(h.symmetric_unknowns)
    n, m = pattern.photons
    invariant = (pattern.adjoint >= unknown) == ((n - m) % 2 == 0)
    for system, held in zip(systems, (np.flatnonzero(invariant), unknown)):
        order, csc = system.order, system.matrix
        assert order[-1] == 0 and np.array_equal(system.rhs, np.eye(len(order))[-1])
        assert np.array_equal(np.sort(order), held)
        columns = np.split(csc.indices, csc.indptr[1:-1])  # none empty, each ascending
        assert csc.has_canonical_format and all(np.all(np.diff(c) > 0) for c in columns)
        assert np.all(np.diff(csc.indptr) > 0)
        assert np.all(csc.data != 0)
        for arr in (csc.indptr, csc.indices, order):
            assert not arr.flags.writeable


def test_a_warm_lu_keeps_its_values_when_the_next_overwrites_the_csc(monkeypatch):
    # two L with one active set share one CSC; a solve returned for the
    # first must not see the values of the second
    seen, factorise = [], exact._HermitianSystem.factorise

    def keep(self, data):
        seen.append(data.copy())
        return factorise(self, data)

    monkeypatch.setattr(exact._HermitianSystem, "factorise", keep)
    h = HilbertConfig(3, 3)
    first, second = (build_symmetric_liouvillian(regression_params(3, omega), h, "rotating")
                     for omega in (1.0, 0.3))
    steady_state_exact(first)
    steady_state_exact(second)
    first_data, second_data = seen
    assert np.array_equal(first_data != 0, second_data != 0)
    assert not np.array_equal(first_data, second_data)
    exact._hermitian_system.cache_clear()
    system = exact._hermitian_system(h.n_max, h.n_emitters, _active(first.params))
    rhs = np.random.default_rng(22).normal(size=len(system.rhs))
    cold = factorise(system, first_data)(rhs)  # the first values the new CSC holds
    warm = factorise(system, first_data)
    factorise(system, second_data)
    assert warm(rhs).tobytes() == cold.tobytes()


def test_a_warm_solve_builds_no_scipy_matrix(monkeypatch):
    built = []
    for cls in (sp.csc_matrix, sp.csr_matrix, sp.coo_matrix, sp.csc_array, sp.csr_array,
                sp.coo_array):
        def spy(self, *args, init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    liou = build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 3), "rotating")
    exact._hermitian_system.cache_clear()
    steady_state_exact(liou)
    assert "csc_matrix" in built  # the CSC that the system keeps
    built.clear()
    steady_state_exact(liou)
    assert built == []


def test_the_lattice_order_fills_no_more_than_colamd(monkeypatch):
    # N=20, n_max=5, kappa = 10 g sqrt(N): 0.59M against COLAMD's 0.71M
    splu, calls = spla.splu, _spy_on_splu(monkeypatch)
    p = SystemParams(20, 2000.0, 2000.0, 2.0 / np.sqrt(20), 20.0, 0.3, 0.1, 0.5)
    liou = build_symmetric_liouvillian(p, HilbertConfig(5, 20), "rotating")
    steady_state_exact(liou)
    order = exact._hermitian_system(5, 20, _active(p)).order
    (a, _, lu), rank = calls[0], np.argsort(order)
    colamd = splu(a[rank][:, rank].tocsc(), permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= colamd.L.nnz + colamd.U.nnz


def test_a_small_diagonal_pivot_still_solves_the_steady_state(monkeypatch):
    # the diagonal pivot is kept down to 0.1 times the largest in its column:
    # partial pivoting would take another row of this system
    splu, calls = spla.splu, _spy_on_splu(monkeypatch)
    liou = build_symmetric_liouvillian(regression_params(2), HilbertConfig(3, 2), "rotating")
    exact._hermitian_system.cache_clear()
    assert_matches_complex_solve(liou)
    a, _, lu = calls[0]
    partial = splu(a.copy(), permc_spec="NATURAL", diag_pivot_thresh=1.0,
                   options=dict(SymmetricMode=True))
    assert not np.array_equal(lu.perm_r, partial.perm_r)


def test_recorded_reordered_systems_are_bounded(monkeypatch):
    # each zero pattern of the rates, resonant or detuned, is an active set of
    # its own, with its own CSC; the cache keeps the last 16 of them
    calls = _spy_on_splu(monkeypatch)
    exact._hermitian_system.cache_clear()
    h = HilbertConfig(2, 2)
    names = ("kappa", "omega", "gamma_minus", "gamma_z")
    degenerate = set()
    for delta_c in (_PATTERN_BASE.delta_c, _PATTERN_BASE.delta):
        for k in range(2 ** len(names)):
            zeroed = dict.fromkeys([name for j, name in enumerate(names) if k >> j & 1], 0.0)
            p = dataclasses.replace(_PATTERN_BASE, n_emitters=2, delta_c=delta_c, **zeroed)
            liou = build_symmetric_liouvillian(p, h)
            try:
                steady_state_exact(liou)
            except DegenerateSteadyState:
                degenerate.add((delta_c, k))
    # no pump and no emitter decay, and no cavity loss or no dephasing
    assert degenerate == {(d, k) for d in (_PATTERN_BASE.delta_c, _PATTERN_BASE.delta)
                          for k in (7, 14, 15)}
    assert len(calls) == len({id(a) for a, _, _ in calls}) == 2 * 16 - len(degenerate)
    assert exact._hermitian_system.cache_info().currsize == 16


def test_an_exhausted_factorisation_leaves_the_next_solve_correct(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    liou = build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 3))
    exact._hermitian_system.cache_clear()
    monkeypatch.setattr(exact, "_DENSE_MAX", 0)  # every system goes to SuperLU
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", exhausted)
    with pytest.raises(DimensionCap, match="ran out of memory"):
        steady_state_exact(liou)
    monkeypatch.setattr(spla, "splu", splu)
    after = assert_matches_complex_solve(liou)
    cold, _ = _cold_and_warm(liou)
    assert after.mat.tobytes() == cold.mat.tobytes()


@pytest.mark.parametrize("error, typed", [(MemoryError, DimensionCap),
                                          (RuntimeError, DegenerateSteadyState)])
def test_a_failing_reordered_factorisation_is_typed(monkeypatch, error, typed):
    def fail(*args, **kwargs):
        raise error("Factor is exactly singular")

    liou = build_symmetric_liouvillian(regression_params(3), HilbertConfig(3, 3))
    monkeypatch.setattr(exact, "_DENSE_MAX", 0)  # every system goes to SuperLU
    steady_state_exact(liou)
    monkeypatch.setattr(spla, "splu", fail)
    with pytest.raises(typed):
        steady_state_exact(liou)


def _solve_on_both_paths(monkeypatch, liou):
    """steady_state_exact(liou)'s u, or the DegenerateSteadyState it raised, by SuperLU and
    by the dense factor, in that order."""
    outcomes = []
    for dense_max in (0, np.inf):
        monkeypatch.setattr(exact, "_DENSE_MAX", dense_max)
        try:
            outcomes.append(steady_state_exact(liou).mat)
        except DegenerateSteadyState as e:
            outcomes.append(e)
    return outcomes


def test_a_singular_dense_factorisation_is_a_degenerate_steady_state(monkeypatch):
    # no pump, no emitter decay and no dephasing leave every emitter
    # population stationary: the dense factor meets an exact zero pivot where
    # SuperLU finds the factor exactly singular
    p = dataclasses.replace(_PATTERN_BASE, n_emitters=2, omega=0.0, gamma_minus=0.0, gamma_z=0.0)
    liou = build_symmetric_liouvillian(p, HilbertConfig(3, 2))
    assert len(exact._hermitian_system(3, 2, _active(p)).rhs) <= exact._DENSE_MAX
    with pytest.raises(DegenerateSteadyState,
                       match=r"^steady-state solve failed: exact zero pivot at row \d+ of the dense"):
        steady_state_exact(liou)
    monkeypatch.setattr(exact, "_DENSE_MAX", 0)
    with pytest.raises(DegenerateSteadyState, match="Factor is exactly singular"):
        steady_state_exact(liou)


def test_an_exhausted_dense_factorisation_is_a_dimension_cap(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    liou = build_symmetric_liouvillian(regression_params(4), HilbertConfig(3, 4))
    dgetrf = lapack.dgetrf
    monkeypatch.setattr(lapack, "dgetrf", exhausted)
    # N=4, n_max=3 has 92 unknowns; at resonance the system holds 64 of their coordinates
    with pytest.raises(DimensionCap, match="of 64 real sector unknowns ran out of memory"):
        steady_state_exact(liou)
    monkeypatch.setattr(lapack, "dgetrf", dgetrf)
    assert_matches_complex_solve(liou)


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
def test_the_dense_and_sparse_factorisations_agree_on_seeded_draws(monkeypatch, frame):
    # N 1-8 at n_max 2-6, resonant and detuned: systems on both sides of _DENSE_MAX
    threshold, sizes = exact._DENSE_MAX, []
    rng = np.random.default_rng(3503)
    for _ in range(24):
        p = random_params(rng, int(rng.integers(1, 9)))
        if rng.random() < 0.5:
            p = dataclasses.replace(p, delta_c=p.delta)
        h = HilbertConfig(int(rng.integers(2, 7)), p.n_emitters)
        sparse, dense = _solve_on_both_paths(monkeypatch, build_symmetric_liouvillian(p, h, frame))
        assert np.abs(sparse - dense).max() <= 1e-14
        sizes.append(len(exact._hermitian_system(h.n_max, h.n_emitters, _active(p)).rhs))
    assert min(sizes) <= threshold < max(sizes)


def test_the_two_factorisations_give_one_outcome_on_every_rate_pattern(monkeypatch):
    # the same state within 1e-14, or DegenerateSteadyState on both paths
    degenerate = 0
    for liou in _rate_pattern_points():
        sparse, dense = _solve_on_both_paths(monkeypatch, liou)
        if isinstance(sparse, DegenerateSteadyState) or isinstance(dense, DegenerateSteadyState):
            assert type(sparse) is type(dense)
            degenerate += 1
        else:
            assert np.abs(sparse - dense).max() <= 1e-14
    assert degenerate == 304


def test_the_dense_factorisation_is_no_further_from_the_kron_reference(monkeypatch):
    # flux and g2(0) at N <= 3 against the full-space steady state: the dense
    # path's relative error is at most SuperLU's plus 4 ulps, as the two trade
    # places at the reference's own rounding from draw to draw
    slack = 8 * np.finfo(float).eps
    rng = np.random.default_rng(3504)
    for _ in range(16):
        p = random_params(rng, int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            p = dataclasses.replace(p, delta_c=p.delta)
        h = HilbertConfig(int(rng.integers(2, 5)), p.n_emitters)
        rho = full_space_steady_state(kron_liouvillian(p, h), h.dim)
        n_ref = dense_expectation(rho, "photon_number", h).real
        flux_ref = p.kappa * n_ref
        g2_ref = dense_expectation(rho, "photon_pair", h).real / n_ref**2
        errors = []
        for u in _solve_on_both_paths(monkeypatch, build_symmetric_liouvillian(p, h)):
            state = SymmetricState(u, h)
            n = expectation(state, "photon_number").real
            g2 = expectation(state, "photon_pair").real / n**2
            errors.append(np.abs([p.kappa * n / flux_ref - 1, g2 / g2_ref - 1]))
        sparse, dense = errors
        assert np.all(sparse <= 1e-12)
        assert np.all(dense <= sparse + slack)


def test_a_non_finite_solve_is_a_degenerate_steady_state(monkeypatch):
    # a NaN w stays NaN through the refinement step, and the finiteness
    # check after it names it
    def factorise(self, data):
        return lambda b: np.full(len(b), np.nan)

    monkeypatch.setattr(exact._HermitianSystem, "factorise", factorise)
    liou = build_symmetric_liouvillian(regression_params(2), HilbertConfig(3, 2))
    with pytest.raises(DegenerateSteadyState, match="non-finite"):
        steady_state_exact(liou)


@pytest.mark.parametrize("shift, message", [
    (1e-6, r"steady-state residual 1\.492e-04 exceeds 1e-10; null space is likely degenerate"),
    (None, "steady-state trace collapsed to zero"),
], ids=["offset_solve", "zero_solve"])
def test_a_wrong_solve_is_refused_by_the_oracle_guards(monkeypatch, shift, message):
    # the refinement step solves with the same wrong solve, so it cannot mend
    # w, and the trace and the residual of L v are the last guards before a
    # state is returned
    factorise = exact._HermitianSystem.factorise

    def wrong(self, data):
        solve = factorise(self, data)
        if shift is None:
            return lambda b: np.zeros(len(b))
        return lambda b: solve(b) + shift

    monkeypatch.setattr(exact._HermitianSystem, "factorise", wrong)
    liou = build_symmetric_liouvillian(regression_params(2), HilbertConfig(3, 2))
    with pytest.raises(DegenerateSteadyState, match=f"^{message}$"):
        steady_state_exact(liou)


@pytest.mark.parametrize("dense_max", [exact._DENSE_MAX, 0], ids=["dense", "superlu"])
def test_each_steady_state_solves_twice_with_its_factor(monkeypatch, dense_max):
    # one solve and one refinement step, whichever factorisation, resonant or detuned
    calls, factorise = [], exact._HermitianSystem.factorise

    def counted(self, data):
        solve = factorise(self, data)
        calls.append(0)

        def count(b):
            calls[-1] += 1
            return solve(b)

        return count

    draws = (regression_params(2), dataclasses.replace(regression_params(3), delta_c=2353.0))
    for p in draws:  # each small enough for the dense factor
        assert len(exact._hermitian_system(3, p.n_emitters, _active(p)).rhs) <= exact._DENSE_MAX
    monkeypatch.setattr(exact, "_DENSE_MAX", dense_max)
    monkeypatch.setattr(exact._HermitianSystem, "factorise", counted)
    for p in draws:
        assert_matches_complex_solve(build_symmetric_liouvillian(p, HilbertConfig(3, p.n_emitters)))
    assert calls == [2, 2]


def _decoupled_lossless_points():
    """120 seeded L with g = kappa = 0: N 1-4, n_max 1-5, rates in [0.05, 1], both frames."""
    rng = np.random.default_rng(2910)
    for _ in range(60):
        n_em, n_max = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        p = SystemParams(n_em, rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0), 0.0, 0.0,
                         *rng.uniform(0.05, 1.0, 3))
        for frame in ("as_written", "rotating"):
            yield build_symmetric_liouvillian(p, HilbertConfig(n_max, n_em), frame)


def test_a_decoupled_lossless_cavity_is_refused_before_any_solve(monkeypatch):
    # every photon-number population is stationary, so whether a solve met an
    # exact zero pivot, returned a state or failed validation was rounding
    def solved(*args, **kwargs):
        raise AssertionError("the steady-state system was built or factorised")

    points = list(_decoupled_lossless_points())
    monkeypatch.setattr(spla, "splu", solved)
    monkeypatch.setattr(exact, "_hermitian_system", solved)
    for liou in points:
        with pytest.raises(DegenerateSteadyState, match="conserves the photon number"):
            steady_state_exact(liou)


def test_degenerate_steady_state_detected():
    # g = 0, kappa = 0, omega = 0: every diagonal field state is stationary
    p = SystemParams(1, 5.0, 5.0, 0.0, 0.0, 0.0, 0.4, 0.0)
    with pytest.raises(DegenerateSteadyState):
        steady_state_exact(build_symmetric_liouvillian(p, HilbertConfig(2, 1)))


def test_steady_state_frame_invariance():
    # resonant and detuned: every tracked observable commutes with the
    # excitation-number phase rotation, so both frames must agree
    for delta_c in (2350.0, 2365.0):
        p = SystemParams(2, 2350.0, delta_c, 5.0, 50.0, 1.0, 0.1, 1.0)
        h = HilbertConfig(3, 2)
        rho_aw = steady_state_exact(build_symmetric_liouvillian(p, h))
        rho_rot = steady_state_exact(build_symmetric_liouvillian(p, h, frame="rotating"))
        for which in ("photon_number", "sigma_z", "cross_pm", "field_coherence"):
            a = expectation(rho_aw, which)
            b = expectation(rho_rot, which)
            assert a == pytest.approx(b, abs=1e-9)


def _random_state(rng, h):
    """A random full-rank d x d state, averaged onto the unknowns (see symmetric_state)."""
    return symmetric_state(random_density_matrix(rng, h.dim), h)


def test_time_evolve_zero_time_is_identity():
    rng = np.random.default_rng(2)
    h = HilbertConfig(2, 1)
    liou = build_symmetric_liouvillian(regression_params(1), h)
    rho0 = _random_state(rng, h)
    rho1 = time_evolve(liou, rho0, 0.0)
    assert np.abs(rho1.mat - rho0.mat).max() == 0.0


def test_time_evolve_trace_drift():
    rng = np.random.default_rng(3)
    p = random_params(rng, 2, delta_scale=5.0)
    h = HilbertConfig(2, 2)
    liou = build_symmetric_liouvillian(p, h)
    rho_t = time_evolve(liou, _random_state(rng, h), 100.0)
    assert abs(liou.pattern.trace_weights @ rho_t.mat - 1.0) <= 1e-9
    rho_t.validate()


@pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf, True, "1", None, 1j, [1.0],
                                     np.float32(np.inf), pytest.param(10**400, id="huge-int")])
def test_time_evolve_rejects_non_finite_time(t_final):
    h = HilbertConfig(2, 1)
    liou = build_symmetric_liouvillian(regression_params(1), h)
    with pytest.raises(InvalidValue, match="t_final must be finite"):
        time_evolve(liou, SymmetricState.vacuum(h), t_final)


def test_time_evolve_rejects_state_of_another_size():
    liou = build_symmetric_liouvillian(regression_params(1), HilbertConfig(2, 1))
    with pytest.raises(InvalidValue):
        time_evolve(liou, SymmetricState.vacuum(HilbertConfig(3, 1)), 1.0)


@pytest.mark.parametrize("t_final", [1e6, 1e50])
def test_time_evolve_refuses_the_state_a_long_exponential_loses(t_final):
    # the dense exponential's rounding grows with t: at 1e6 the trace is off by
    # about 2.6e-9, past TRACE_TOL, and at 1e50 every entry is inf or nan
    h = HilbertConfig(3, 2)
    liou = build_symmetric_liouvillian(regression_params(2), h, "rotating")
    with pytest.raises(InvalidValue, match="trace|non-finite"):
        time_evolve(liou, SymmetricState.vacuum(h), t_final)


@pytest.mark.parametrize("frame", ["as_written", "rotating"])
@pytest.mark.parametrize("n_em", [1, 2])
def test_time_evolve_matches_full_space_exponential(n_em, frame):
    rng = np.random.default_rng(40 + n_em)
    h = HilbertConfig(2, n_em)
    for p in (regression_params(n_em), random_params(rng, n_em)):
        liou = build_symmetric_liouvillian(p, h, frame)
        rho0 = _random_state(rng, h)
        for t in (0.3, 4.0):
            ref = full_space_evolution(kron_liouvillian(p, h, frame), expand(rho0), t)
            assert dense_trace_distance(expand(time_evolve(liou, rho0, t)), ref) <= 1e-12


def test_time_evolve_relaxes_to_the_steady_state_at_ten_emitters():
    # 464 unknowns; the full space would hold d^2 = 4096^2 elements.  Leaky
    # cavity: g sqrt(N) = 2 meV, kappa = 10 g sqrt(N)
    p = SystemParams(10, 2000.0, 2000.0, 2.0 / np.sqrt(10), 20.0, 0.3, 0.1, 0.5)
    h = HilbertConfig(3, 10)
    liou = build_symmetric_liouvillian(p, h, "rotating")
    assert h.symmetric_unknowns == 464
    rho_t = time_evolve(liou, SymmetricState.vacuum(h), 120.0)
    assert trace_distance(rho_t, steady_state_exact(liou)) <= 1e-7


def test_time_evolve_out_of_memory_is_a_dimension_cap(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("scipy.linalg.expm", exhausted)
    h = HilbertConfig(3, 2)
    liou = build_symmetric_liouvillian(regression_params(2), h)
    with pytest.raises(DimensionCap, match=r"^the dense exponential of L on 32 unknowns "
                                           r"\(16384 bytes a copy\) ran out of memory$") as err:
        time_evolve(liou, SymmetricState.vacuum(h), 1.0)
    assert isinstance(err.value.__cause__, MemoryError)


def test_time_evolve_rejects_a_lone_coherence():
    # the coherence u(0, 1, (0, 1, 0, 1)) without its adjoint is not Hermitian
    h = HilbertConfig(2, 2)
    liou = build_symmetric_liouvillian(regression_params(2), h, "rotating")
    u = SymmetricState.vacuum(h).mat
    u[exact._symmetric_pattern(h.n_max, h.n_emitters).index[0, 0, 1, 0]] = 0.5
    with pytest.raises(InvalidValue, match="not Hermitian"):
        time_evolve(liou, SymmetricState(u, h), 0.05)


def test_pure_dephasing_keeps_populations_fixed():
    # L[sz] only: diagonal entries in the product basis are untouched
    rng = np.random.default_rng(4)
    p = SystemParams(2, 6.0, 6.0, 0.0, 0.0, 0.0, 0.0, 1.3)
    h = HilbertConfig(2, 2)
    liou = build_symmetric_liouvillian(p, h)
    rho0 = _random_state(rng, h)
    rho_t = time_evolve(liou, rho0, 5.0)
    populations = np.flatnonzero(liou.pattern.trace_weights)
    assert np.abs(rho_t.mat[populations] - rho0.mat[populations]).max() <= 1e-9


def test_expectation_examples():
    h = HilbertConfig(2, 2)
    assert expectation(SymmetricState.vacuum(h), "photon_number") == pytest.approx(0.0)

    # all emitters excited: |0_field> x |e e>
    state = np.zeros(h.dim, dtype=complex)
    state[3] = 1.0  # field 0, both spins at index 1 -> 0*4 + 1*2 + 1
    rho_exc = symmetric_state(np.outer(state, state.conj()), h)
    assert expectation(rho_exc, "sigma_z").real == pytest.approx(1.0)

    # symmetric one-excitation state (|eg> + |ge>)/sqrt(2): <s+_0 s-_1> = 1/2
    psi = np.zeros(h.dim, dtype=complex)
    psi[2] = 1.0 / np.sqrt(2)  # |g e>... field 0: indices: spin0*2 + spin1
    psi[1] = 1.0 / np.sqrt(2)
    rho_dicke = symmetric_state(np.outer(psi, psi.conj()), h)
    assert expectation(rho_dicke, "cross_pm").real == pytest.approx(0.5)


def test_photon_pair_observable():
    # <a'a'aa> = n(n-1) on a Fock state
    h = HilbertConfig(3, 1)
    two_photons = np.zeros((h.dim, h.dim), dtype=complex)
    two_photons[2 * 2, 2 * 2] = 1.0  # field index 2, spin ground
    rho = symmetric_state(two_photons, h)
    assert expectation(rho, "photon_pair").real == pytest.approx(2.0)
    assert expectation(SymmetricState.vacuum(h), "photon_pair") == pytest.approx(0.0)


def test_expectation_errors():
    for h in (HilbertConfig(2, 1), HilbertConfig(2, 2)):
        states = [SymmetricState.vacuum(h), steady_state_exact(
            build_symmetric_liouvillian(regression_params(h.n_emitters), h))]
        for rho in states:
            with pytest.raises(UnknownObservable):
                expectation(rho, "parity")
            for which in ("cross_pm", "cross_zz"):
                if h.n_emitters == 1:  # no pair of emitters to read
                    with pytest.raises(InvalidValue, match="needs two emitters"):
                        expectation(rho, which)
                else:
                    assert np.isfinite(expectation(rho, which))


def test_symmetric_state_of_the_wrong_length_is_refused():
    # (3, 2) has 32 unknowns: unchecked, 3 values would read past u's end (a
    # bare IndexError) and 300 would read 0j; trace_distance failed inside scipy
    h = HilbertConfig(3, 2)
    for length in (3, 300, 0):
        with pytest.raises(InvalidValue, match=f"u has shape \\({length},\\), the configuration has 32"):
            SymmetricState(np.zeros(length, dtype=complex), h)
    with pytest.raises(InvalidValue, match=r"u has shape \(4, 8\), the configuration has 32"):
        SymmetricState(np.zeros((4, 8), dtype=complex), h)


@pytest.mark.parametrize("mat, kind", [([1.0] + [0.0] * 31, "list"),
                                       (np.zeros(32, dtype=object), "an array of object"),
                                       (np.zeros(32, dtype=bool), "an array of bool")])
def test_symmetric_state_that_is_not_a_numeric_array_is_refused(mat, kind):
    with pytest.raises(InvalidValue, match=f"u must be a numeric numpy array, got {kind}$"):
        SymmetricState(mat, HilbertConfig(3, 2))


def test_a_symmetric_state_is_frozen_and_compared_by_identity():
    h = HilbertConfig(1, 1)
    rho = SymmetricState.vacuum(h)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.mat = np.zeros(5, dtype=complex)  # unchecked, this would skip the length check
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.hilbert = HilbertConfig(3, 1)
    assert rho == rho and rho != SymmetricState.vacuum(h)


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

    def flux(rho):
        return (p.kappa * expectation(rho, "photon_number").real,)

    (value,), rho = converge_in_cutoff(p, HilbertConfig(3, 1), flux, frame="rotating")
    h = rho.hilbert
    assert value == photon_flux_exact(p, HilbertConfig(3, 1), frame="rotating")
    assert h.n_max > 3 and (h.n_max - 3) % 2 == 0
    assert (value,) == flux(rho)
    direct = steady_state_exact(build_symmetric_liouvillian(p, h, frame="rotating"))
    assert trace_distance(rho, direct) <= 1e-14


def test_converge_in_cutoff_climbs_until_every_value_settles():
    # the first value settles at n_max=5, the second only at n_max=9
    rungs = []

    def observe(rho):
        rungs.append(rho.hilbert.n_max)
        return 1.0, float(min(rho.hilbert.n_max, 7))

    values, rho = converge_in_cutoff(regression_params(1), HilbertConfig(3, 1), observe,
                                     frame="rotating")
    assert rungs == [3, 5, 7, 9]
    assert values == (1.0, 7.0) and rho.hilbert.n_max == 9


def test_converge_in_cutoff_compares_rungs_only_with_the_same_values_defined():
    # a value defined from n_max=5 on is compared at 5 and 7, not missed at 5
    rungs = []

    def observe(rho):
        rungs.append(rho.hilbert.n_max)
        return (1.0,) if rho.hilbert.n_max == 3 else (1.0, 2.0)

    values, rho = converge_in_cutoff(regression_params(1), HilbertConfig(3, 1), observe,
                                     frame="rotating")
    assert rungs == [3, 5, 7]
    assert values == (1.0, 2.0) and rho.hilbert.n_max == 7


def test_flux_cutoff_not_converged_when_capped():
    # 32 unknowns at n_max=3 fit the cap, the 52 of the next rung do not
    p = regression_params(2, omega=5.0)
    with pytest.raises(CutoffNotConverged):
        photon_flux_exact(p, HilbertConfig(3, 2, cap=40), frame="rotating")


def test_a_refused_ladder_names_its_last_two_rungs():
    # 12 and 32 unknowns at n_max=1 and 3 fit the cap, the 52 of n_max=5 do not
    p = regression_params(2, omega=5.0)
    flux = [p.kappa * expectation(steady_state_exact(build_symmetric_liouvillian(
        p, HilbertConfig(n, 2), frame="rotating")), "photon_number").real for n in (1, 3)]
    with pytest.raises(CutoffNotConverged) as refused:
        photon_flux_exact(p, HilbertConfig(1, 2, cap=40), frame="rotating")
    change = abs(flux[1] - flux[0]) / flux[1]
    assert change > FLUX_CUTOFF_RTOL
    assert str(refused.value) == (
        "values not converged within 1e-06 before the cap of 40 unknowns (52 at n_max=5); "
        f"n_max=1: ({flux[0]:.10g}), n_max=3: ({flux[1]:.10g}), relative change ({change:.10g})")
    with pytest.raises(CutoffNotConverged, match=r"; n_max=3: \(2\.59\d+\), the only rung"):
        photon_flux_exact(p, HilbertConfig(3, 2, cap=40), frame="rotating")


@pytest.mark.parametrize("n_em", [1, 3])
def test_a_value_zero_up_to_rounding_settles_on_the_next_rung(n_em):
    # at g = 0 the cavity stays empty: <a'a>, and cross_pm at N=3, are 0 up
    # to rounding, and a change below FLUX_CUTOFF_RTOL * VACUUM_THRESHOLD passes
    p = dataclasses.replace(regression_params(n_em), g=0.0)
    values, rho = converge_in_cutoff(p, HilbertConfig(3, n_em), exact._steady_values)
    assert rho.hilbert.n_max == 5
    assert abs(values[0]) <= 1e-30 and len(values) == min(n_em, 2) + 1


def test_g2_vacuum_guard():
    p = SystemParams(1, 10.0, 10.0, 2.0, 5.0, 0.0, 0.2, 0.0)
    with pytest.raises(VacuumState):
        g2_zero_converged(p, HilbertConfig(2, 1))


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
        liou = build_symmetric_liouvillian(random_params(rng, n), h)
        rho = _random_state(rng, h)
        assert abs(liou.pattern.trace_weights @ (liou.matrix @ rho.mat)) <= 1e-10


def test_hermiticity_preserved():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        h = HilbertConfig(2, n)
        liou = build_symmetric_liouvillian(random_params(rng, n), h)
        out = liou.matrix @ symmetric_state(random_hermitian(rng, h.dim), h).mat
        assert np.abs(out - out[liou.pattern.adjoint].conj()).max() <= 1e-10


def test_permutation_symmetry_preserved():
    # the full-space evolution keeps a permutation-symmetric state so, which is
    # what lets the package evolve only the symmetric unknowns: its sigma_z
    # matches theirs, since only charge-0 elements carry it
    rng = np.random.default_rng(8)
    p = random_params(rng, 2, delta_scale=5.0)
    h = HilbertConfig(2, 2)
    ref = kron_liouvillian(p, h)
    liou = build_symmetric_liouvillian(p, h)
    # symmetrize a random state over the two emitters
    rho_raw = random_density_matrix(rng, h.dim)
    swap = np.zeros((h.dim, h.dim))
    for f in range(h.n_max + 1):
        for s0 in range(2):
            for s1 in range(2):
                swap[f * 4 + s1 * 2 + s0, f * 4 + s0 * 2 + s1] = 1.0
    rho_sym = (rho_raw + swap @ rho_raw @ swap.T) / 2
    rho_sym = rho_sym / np.trace(rho_sym).real
    for t in (0.5, 2.0):
        rho_t = full_space_evolution(ref, rho_sym, t)
        sz0 = dense_expectation(rho_t, "sigma_z", h, 0)
        sz1 = dense_expectation(rho_t, "sigma_z", h, 1)
        assert abs(sz0 - sz1) <= 1e-9
        evolved = time_evolve(liou, symmetric_state(rho_sym, h), t)
        assert abs(expectation(evolved, "sigma_z") - sz0) <= 1e-9


def test_excitation_conserved_under_dephasing_only():
    # kappa = omega = gamma_minus = 0: H and L[sz] conserve E = a'a + sum s+s-,
    # and <E> = <a'a> + (N/2)(<sz_0> + Tr rho) on a symmetric state
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = SystemParams(2, rng.uniform(1, 10), rng.uniform(1, 10),
                         rng.uniform(0, 5), 0.0, 0.0, 0.0, rng.uniform(0.1, 3))
        h = HilbertConfig(2, 2)
        liou = build_symmetric_liouvillian(p, h)
        du = liou.matrix @ _random_state(rng, h).mat
        drho = SymmetricState(du, h)
        d_excitation = expectation(drho, "photon_number") + h.n_emitters / 2 * (
            expectation(drho, "sigma_z") + liou.pattern.trace_weights @ du)
        assert abs(d_excitation) <= 1e-8
