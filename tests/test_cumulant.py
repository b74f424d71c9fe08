from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (
    cutoff_safe_product_state,
    exact_moment_derivatives,
    moment_vector,
    random_density_matrix,
    random_params,
    regression_params,
)
from reference_liouvillian import symmetric_state
from superrad.cumulant import (
    MomentState,
    _fixed_point,
    _rhs_vector,
    flux_decomposition,
    integrate_to_steady_state,
    moment_rhs,
    photon_flux_cumulant,
)
from superrad import cumulant
from superrad.errors import InvalidValue, NoConvergence, NonFiniteState
from superrad.exact import (
    HilbertConfig,
    build_symmetric_liouvillian,
    expectation,
    photon_flux_exact,
    steady_state_exact,
)
from superrad.params import SystemParams


def test_moment_rhs_dark_fixed_point_without_pump():
    p = SystemParams(3, 12.0, 12.0, 2.0, 8.0, 0.0, 0.5, 0.3)
    d = moment_rhs(p, MomentState.dark())
    assert np.abs(moment_vector(d)).max() == pytest.approx(0.0, abs=1e-14)


def test_moment_rhs_field_decouples_at_zero_coupling():
    p = SystemParams(2, 10.0, 11.0, 0.0, 7.0, 1.0, 0.2, 0.1)
    m = MomentState(n_photon=0.8, s_z=0.1, coh=0.05 + 0.02j, x_pm=0.01 + 0j, z_zz=0.0)
    d = moment_rhs(p, m)
    assert d.n_photon == pytest.approx(-p.kappa * m.n_photon, rel=1e-14)


def test_moment_rhs_matches_exact_derivatives_at_product_states():
    # the certification gate: closure is exact at uncorrelated states, so the
    # reconstructed equations must match the Liouvillian componentwise
    rng = np.random.default_rng(42)
    for _ in range(25):
        n_em = int(rng.integers(2, 4))
        h = HilbertConfig(int(rng.integers(3, 6)), n_em)
        p = random_params(rng, n_em)
        rho, m = cutoff_safe_product_state(rng, h)
        exact = exact_moment_derivatives(p, h, rho)
        scale = max(1.0, np.abs(exact).max())
        cumulant = moment_vector(moment_rhs(p, m))
        assert np.abs(cumulant - exact).max() <= 1e-8 * scale


def test_moment_rhs_photon_and_inversion_rows_match_exact_at_coherent_states():
    # dn/dt and ds/dt need no closure, so at N = 1 they are exact at any state,
    # including ones with Im c != 0 that product states never reach; n, s and c
    # read only charge-0 elements, which the phase average keeps
    rng = np.random.default_rng(7)
    for n_max in (2, 3, 4, 5):
        h = HilbertConfig(n_max, 1)
        for _ in range(8):
            p = random_params(rng, 1)
            rho = symmetric_state(random_density_matrix(rng, h.dim), h)
            m = MomentState(
                n_photon=expectation(rho, "photon_number").real,
                s_z=expectation(rho, "sigma_z").real,
                coh=complex(expectation(rho, "field_coherence")),
                x_pm=0j,
                z_zz=1.0,
            )
            assert abs(m.coh.imag) > 1e-3
            exact = exact_moment_derivatives(p, h, rho)[:2]
            cumulant = moment_vector(moment_rhs(p, m))[:2]
            assert np.abs(cumulant - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("n_em", [1, 2, 5])
def test_rhs_vector_on_columns_equals_per_column_evaluation(n_em):
    rng = np.random.default_rng(n_em)
    p = random_params(rng, n_em)
    ys = rng.normal(size=(7, 9))
    # an infinite photon number: at N = 1 the list path must keep the pair rates 0.0, not nan
    ys[0, -1] = np.inf
    per_column = np.column_stack([_rhs_vector(p, ys[:, k]) for k in range(ys.shape[1])])
    assert np.array_equal(_rhs_vector(p, ys), per_column)
    # a list of floats, as the fixed point passes, gives the same floats bit for bit
    for k in range(ys.shape[1]):
        rates = _rhs_vector(p, ys[:, k].tolist())
        assert type(rates) is list and all(type(r) is float for r in rates)
        assert list(map(float.hex, rates)) == list(map(float.hex, per_column[:, k].tolist()))


def test_integration_returns_dark_state_immediately_when_converged():
    # the second set has omega = gamma_minus = 0, where s0 is 0/0
    for p in (SystemParams(2, 9.0, 9.0, 1.5, 6.0, 0.0, 0.4, 0.2),
              SystemParams(4, 100.0, 100.0, 1.0, 10.0, 0.0, 0.0, 0.0)):
        m = integrate_to_steady_state(p)
        assert moment_vector(m) == pytest.approx(moment_vector(MomentState.dark()), abs=1e-12)


def test_flux_agrees_with_exact_solver_on_reference_set():
    p = regression_params(2)
    flux_c = photon_flux_cumulant(p)
    flux_e = photon_flux_exact(p, HilbertConfig(3, 2), frame="rotating")
    assert flux_c == pytest.approx(flux_e, rel=0.10)


def _evolving_block(p):
    # for N = 1 the pair moments x and z do not evolve; only (n, s, c) do
    return 7 if p.n_emitters >= 2 else 4


def _numeric_jacobian(p, y, eps=1e-7):
    """Central-difference Jacobian of the 7-dim moment vector field, in one evaluation."""
    h = eps * np.maximum(1.0, np.abs(y))
    steps = np.diag(h)
    rhs = _rhs_vector(p, np.hstack([y[:, None] + steps, y[:, None] - steps]))
    return (rhs[:, : len(y)] - rhs[:, len(y) :]) / (2 * h)


def _complex_step_jacobian(p, y, step=1e-30):
    """Jacobian of the 7-dim moment vector field, Im rhs(y + i step e_k) / step per column.

    The rhs is at most bilinear and real on real y, so no difference is taken
    and the columns are its closed form up to rounding.
    """
    return _rhs_vector(p, y[:, None] + 1j * step * np.eye(len(y))).imag / step


@pytest.mark.parametrize("n_em", [1, 2, 50, 30_000])
def test_closed_form_jacobian_matches_central_differences(n_em):
    # the rhs is at most bilinear, so central differences are exact up to rounding,
    # which is of the order eps * |rhs| / h and so follows the largest entry of a row;
    # the closed form is the complex-step Jacobian that the polynomial test expands
    rng = np.random.default_rng(n_em)
    for detuned in (False, True):
        for _ in range(6):
            p = random_params(rng, n_em)
            if not detuned:
                p = replace(p, delta_c=p.delta)
            y = np.array([rng.uniform(0.0, 10.0), rng.uniform(-1.0, 1.0),
                          *rng.normal(0.0, 0.5, 2), *rng.normal(0.0, 0.3, 2), rng.uniform(-1.0, 1.0)])
            numeric = _numeric_jacobian(p, y)
            tol = 1e-6 * np.abs(numeric).max(axis=1)
            closed = _complex_step_jacobian(p, y)
            assert np.all(np.abs(closed - numeric) <= tol[:, None])
            if n_em >= 2:
                # the Im x row and the z column hold only their diagonal entries, so
                # J5 carries every eigenvalue but -W2 and -2 (omega + gamma_minus)
                w2 = p.omega + p.gamma_minus + 4.0 * p.gamma_z
                assert np.all(np.abs(numeric[5] + w2 * np.eye(7)[5]) <= tol[5])
                assert np.all(np.abs(numeric[:, 6] + 2.0 * (p.omega + p.gamma_minus) * np.eye(7)[6]) <= tol)
            else:
                # x and z neither evolve nor feed (n, s, c)
                assert not numeric[4:].any()
                assert np.all(np.abs(numeric[:4, 4:]) <= tol[:4, None])


def _stability_draw(rng):
    """A wide log-uniform draw; about 2% of these fixed points are unstable."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    delta = 2000.0
    delta_c = delta + rng.normal(0.0, 20.0) if rng.random() < 0.5 else delta
    return SystemParams(int(log_uniform(1, 1e5)), delta, delta_c, log_uniform(1e-3, 10.0),
                        log_uniform(0.1, 300.0), log_uniform(1e-5, 30.0),
                        log_uniform(1e-3, 10.0), log_uniform(1e-3, 10.0))


def _stability_draws(count=2400, seed=11):
    rng = np.random.default_rng(seed)
    return [_stability_draw(rng) for _ in range(count)]


def test_stability_decision_matches_eigenvalues_of_the_numeric_jacobian():
    unstable = 0
    for p in _stability_draws():
        y = np.array(_fixed_point(p)[0])
        block = _evolving_block(p)
        expected = np.linalg.eigvals(_numeric_jacobian(p, y)[:block, :block]).real.max() > 0
        try:
            integrate_to_steady_state(p)
            raised = False
        except NoConvergence as err:
            # the residual check runs after the stability decision
            raised = "unstable: growth rate" in str(err)
        assert raised == expected, p
        unstable += expected
    assert unstable >= 20  # the draws reach the unstable side


def test_stable_points_deep_above_threshold_return():
    # S = n s + p_e + (N-1) Re x cancels here (terms -0.264, +0.500, -0.233);
    # Im c read off S left the n row 3.9e-7 from zero against a bound of 1.4e-7
    p = SystemParams(7836, 2000.0, 2000.0, 5.435, 0.8048, 0.3488, 0.003213, 0.1397)
    m = integrate_to_steady_state(p)
    assert np.abs(moment_vector(moment_rhs(p, m))).max() <= 1e-10 * p.kappa * m.n_photon
    for p in _stability_draws(count=2000, seed=13):
        y = np.array(_fixed_point(p)[0])
        block = _evolving_block(p)
        if np.linalg.eigvals(_numeric_jacobian(p, y)[:block, :block]).real.max() <= 0:
            integrate_to_steady_state(p)


def test_certified_points_compute_no_eigenvalues(monkeypatch):
    def eigvals(_matrix):
        raise AssertionError("eigenvalues computed at a point the Routh-Hurwitz test certifies")
    # np.roots, the fallback, calls the eigvals numpy imported, not np.linalg's
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np, "roots", eigvals)
    for p in CROSS_CHECK_POINTS.values():
        integrate_to_steady_state(p)


def test_characteristic_coefficients_match_the_block_polynomial():
    for p in _stability_draws(count=500, seed=12):
        y, coefficients = _fixed_point(p)
        block = _complex_step_jacobian(p, np.array(y))[:5, :5]
        if p.n_emitters == 1:
            # Re x does not evolve at N = 1; the polynomial adds its decoupled root -W2
            block[4, 4] = -(p.omega + p.gamma_minus + 4.0 * p.gamma_z)
        expected = np.poly(block)[1:].real
        got = np.array(coefficients)
        assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)), p


def _integrate_long(p, m0, m_ref):
    """LSODA from m0 to 60 / |slowest decay rate| at the reference fixed point."""
    block = _evolving_block(p)
    rates = np.linalg.eigvals(_numeric_jacobian(p, m_ref.to_vector())[:block, :block]).real
    sol = solve_ivp(lambda _t, y: _rhs_vector(p, y), (0.0, 60.0 / np.abs(rates).min()),
                    m0.to_vector(), method="LSODA", rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:block, -1]


CROSS_CHECK_POINTS = {
    "regression_1": regression_params(1),
    "regression_2": regression_params(2),
    "regression_3": regression_params(3),
    "n50_detuned": SystemParams(50, 500.0, 510.0, 0.5, 40.0, 0.3, 0.2, 0.4),
    "cumulant_collective": SystemParams(10_000, 2350.0, 2350.0, 0.11, 134.0, 2.0, 1.0, 10.0),
    "scaled_n3e4": SystemParams(30_000, 2350.0, 2350.0, 0.11, 134.0, 9.0, 0.3, 0.5),
    # kappa n ~ 5e4: the rounding of the photon balance alone exceeds an absolute 1e-10
    "large_flux_n10900": SystemParams(10_900, 2350.0, 2350.0, 0.453, 3.7, 13.6, 4.14, 0.0116),
}


@pytest.mark.parametrize("name", CROSS_CHECK_POINTS)
def test_steady_state_matches_long_integration_from_both_starts(name):
    p = CROSS_CHECK_POINTS[name]
    tol = 1e-10
    m = integrate_to_steady_state(p, tol=tol)
    scale = max(1.0, p.kappa * m.n_photon)  # kappa n sizes the photon-balance terms
    assert np.abs(moment_vector(moment_rhs(p, m))).max() <= tol * scale
    block = _evolving_block(p)
    for m0 in (MomentState.dark(), MomentState.product(0.0, 0.0)):
        y_end = _integrate_long(p, m0, m)
        assert np.abs(y_end - m.to_vector()[:block]).max() <= 10 * tol * scale


def test_unstable_fixed_point_raises_with_growth_rate():
    p = SystemParams(3310, 2000.0, 2000.0, 3.18, 20.9, 0.3035, 0.0159, 0.0142)
    with pytest.raises(NoConvergence, match="unstable: growth rate"):
        integrate_to_steady_state(p)


def test_lossless_cavity_above_inversion_raises():
    p = SystemParams(10, 100.0, 100.0, 1.0, 0.0, 2.0, 0.5, 0.5)
    with pytest.raises(NoConvergence, match="kappa = 0"):
        integrate_to_steady_state(p)


def test_lossless_cavity_below_inversion_balances_the_coherence_source():
    # kappa = 0 forces Im c = 0, so the stationary c equation needs n s0 + p_e = 0
    p = SystemParams(10, 100.0, 100.0, 1.0, 0.0, 0.2, 0.5, 0.5)
    s0 = (p.omega - p.gamma_minus) / (p.omega + p.gamma_minus)
    m = integrate_to_steady_state(p)
    assert m.s_z == pytest.approx(s0, rel=1e-14)
    assert m.n_photon == pytest.approx(-0.5 * (1.0 + s0) / s0, rel=1e-14)


def test_uncoupled_lossless_cavity_stays_empty():
    # g = kappa = 0: the photon number is marginal (zero growth rate), not unstable
    p = SystemParams(10, 100.0, 100.0, 0.0, 0.0, 2.0, 0.5, 0.5)
    m = integrate_to_steady_state(p)
    assert m.n_photon == 0.0
    assert m.s_z == pytest.approx((p.omega - p.gamma_minus) / (p.omega + p.gamma_minus), rel=1e-15)


_FIELD_PARTS = [("n_photon", 1), ("s_z", 1), ("coh", 1), ("coh", 1j), ("x_pm", 1), ("x_pm", 1j),
                ("z_zz", 1)]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name, part", _FIELD_PARTS, ids=[f"{n}-{p}" for n, p in _FIELD_PARTS])
def test_validate_rejects_a_non_finite_field(name, part, bad):
    m = MomentState(n_photon=0.8, s_z=0.1, coh=0.05 + 0.02j, x_pm=0.01 + 0.003j, z_zz=0.0)
    m.validate()
    setattr(m, name, getattr(m, name) + part * bad)
    with pytest.raises(NonFiniteState):
        m.validate()


@pytest.mark.parametrize("position", range(7))
def test_a_nan_derivative_fails_the_residual_check(monkeypatch, position):
    # Python's max would pass over a NaN that is not first; the check must not
    rhs = cumulant._rhs_vector

    def nan_at(p, y):
        rates = rhs(p, y)
        rates[position] = np.nan
        return rates

    monkeypatch.setattr(cumulant, "_rhs_vector", nan_at)
    with pytest.raises(NoConvergence, match="derivative norm nan"):
        integrate_to_steady_state(regression_params(2))


def test_tol_must_be_positive():
    with pytest.raises(ValueError):
        integrate_to_steady_state(regression_params(2), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_tol_must_be_finite_and_positive(tol):
    # unchecked, tol = nan was a NoConvergence and tol = inf switched the
    # derivative gate off
    with pytest.raises(InvalidValue, match=f"tol must be finite and > 0, got {tol!r}"):
        integrate_to_steady_state(regression_params(2), tol=tol)


@pytest.mark.parametrize("fields, message", [
    ({"n_photon": -1e-6}, "n_photon = -1e-06 below numerical floor"),
    ({"s_z": 1.1}, "inversion moments outside"),
    ({"z_zz": -1.1}, "inversion moments outside"),
    ({"x_pm": 0.9 + 0.9j}, "exceeds loose bound 1"),
])
def test_validate_rejects_a_moment_out_of_range(fields, message):
    m = replace(MomentState(n_photon=0.8, s_z=0.1, coh=0.05j, x_pm=0.01, z_zz=0.0), **fields)
    with pytest.raises(InvalidValue, match=message):
        m.validate()
    m.validate(slack=1.0)  # each lies within a slack of 1


def test_weak_drive_linear_response_matches_exact():
    # closure corrections are higher order in the drive, so every moment must
    # track the exact steady state at O(omega) accuracy; this pins the damping
    # coefficients of the coherence and correlator equations
    for n_em in (2, 3):
        p = SystemParams(n_em, 1000.0, 1000.0, 1.0, 30.0, 1e-5, 0.3, 0.5)
        m = integrate_to_steady_state(p, tol=1e-14)
        h = HilbertConfig(3, n_em)
        rho = steady_state_exact(build_symmetric_liouvillian(p, h, frame="rotating"))
        n_e = expectation(rho, "photon_number").real
        x_e = expectation(rho, "cross_pm").real
        c_e = expectation(rho, "field_coherence")
        s_e = expectation(rho, "sigma_z").real
        assert m.n_photon == pytest.approx(n_e, rel=1e-3)
        assert m.x_pm.real == pytest.approx(x_e, rel=1e-3)
        assert m.coh.imag == pytest.approx(c_e.imag, rel=1e-3)
        assert m.s_z + 1.0 == pytest.approx(s_e + 1.0, rel=1e-3)


def test_flux_zero_limits():
    p_nog = SystemParams(10, 100.0, 100.0, 0.0, 10.0, 2.0, 0.5, 0.5)
    assert photon_flux_cumulant(p_nog) == pytest.approx(0.0, abs=1e-9)
    p_nopump = SystemParams(10, 100.0, 100.0, 1.0, 10.0, 0.0, 0.5, 0.5)
    assert photon_flux_cumulant(p_nopump) == pytest.approx(0.0, abs=1e-9)


def test_flux_monotone_in_pump_at_large_n():
    # collective point: N = 1e4 with per-emitter g = 0.11, leaky cavity
    fluxes = []
    for omega in (0.05, 0.2, 0.8):
        p = SystemParams(10_000, 2350.0, 2350.0, 0.11, 134.0, omega, 1.0, 10.0)
        fluxes.append(photon_flux_cumulant(p))
    assert all(f > 0 for f in fluxes)
    assert fluxes == sorted(fluxes)


def test_flux_decomposition_identity():
    # kappa*n = N*(single term) + N(N-1)*(pair term) at stationarity
    for p in (regression_params(2), regression_params(3),
              SystemParams(50, 500.0, 510.0, 0.5, 40.0, 0.3, 0.2, 0.4)):
        m = integrate_to_steady_state(p)
        single, pair = flux_decomposition(p, m)
        flux = p.kappa * m.n_photon
        assert single + pair == pytest.approx(flux, rel=1e-6)


def test_flux_decomposition_rejects_lossless_cavity():
    # kappa = 0 below inversion has a stationary state, but no flux to split;
    # the second point also zeroes D_c^2 + d^2 (all rates 0, resonant)
    p = SystemParams(2, 10.0, 10.0, 1.0, 0.0, 0.05, 0.1, 0.0)
    m = integrate_to_steady_state(p)
    with pytest.raises(InvalidValue, match="kappa"):
        flux_decomposition(p, m)
    with pytest.raises(InvalidValue, match="kappa"):
        flux_decomposition(SystemParams(2, 10.0, 10.0, 1.0, 0.0, 0.0, 0.0, 0.0), MomentState.dark())


def test_x_pm_imaginary_part_vanishes_at_resonant_steady_state():
    p = regression_params(3)
    m = integrate_to_steady_state(p)
    assert abs(m.x_pm.imag) <= 1e-8


def test_s_z_bounded_along_integration():
    for n_em in (1, 2, 3):
        for omega in (0.1, 1.0):
            p = regression_params(n_em, omega=omega)
            sol = solve_ivp(lambda _t, y: _rhs_vector(p, y), (0.0, 50.0),
                            MomentState.dark().to_vector(), method="DOP853",
                            rtol=1e-10, atol=1e-12, dense_output=True)
            samples = sol.sol(np.linspace(0.0, 50.0, 500))
            assert np.all(np.abs(samples[1]) <= 1.0 + 1e-6)
