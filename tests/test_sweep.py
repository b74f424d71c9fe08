import numpy as np
import pytest

from superrad import cumulant, sweep
from superrad.errors import (
    DegenerateRates,
    InsufficientPoints,
    InvalidValue,
    NoConvergence,
    NonPositiveValue,
    ZeroEmitters,
)
from superrad.params import SystemParams
from superrad.sweep import (
    SweepSpec,
    control_luminance,
    fit_power_law,
    run_concentration_sweep,
    synth_power_law,
)


def sweep_base(omega=3e-4):
    # leaky-cavity collective point: per-emitter g fixed, collective grows as sqrt(N)
    return SystemParams(n_emitters=1, delta=2350.0, delta_c=2350.0, g=0.11,
                        kappa=134.0, omega=omega, gamma_minus=0.3, gamma_z=0.5)


def test_control_luminance_zero_pump():
    assert control_luminance(10, 0.0, 1.0, 1.0) == 0.0


def test_control_luminance_saturates():
    val = control_luminance(7, 1e6 * 2.0, 1.5, 0.5)
    assert val == pytest.approx(7 * 1.5, rel=1e-5)


def test_control_luminance_arithmetic():
    assert control_luminance(100, 1.0, 1.0, 1.0) == pytest.approx(100.0 / 3.0)
    assert control_luminance(np.int64(3), 1.0, 1.0, 1.0) == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_control_luminance_refuses_a_non_finite_rate(value, at):
    # unchecked, a nan pump read nan
    rates = [1e-3, 1e-3, 0.3]
    rates[at] = value
    with pytest.raises(InvalidValue, match="rates must be finite and >= 0"):
        control_luminance(3, *rates)


@pytest.mark.parametrize("n, error", [
    (float("nan"), InvalidValue), (2.5, InvalidValue), (True, InvalidValue), (3.0, InvalidValue),
    (0, ZeroEmitters), (-3, ZeroEmitters),
])
def test_control_luminance_refuses_a_count_that_is_not_a_positive_integer(n, error):
    # unchecked, n = nan read nan and n = -3 read -0.0023
    with pytest.raises(error):
        control_luminance(n, 1e-3, 1e-3, 0.3)


def test_control_luminance_degenerate_rates():
    with pytest.raises(DegenerateRates):
        control_luminance(5, 0.0, 0.0, 0.0)


def test_sweep_single_point_smoke():
    spec = SweepSpec(n_values=(1,), drive_rule="fixed",
                     base_params=sweep_base(omega=0.5), gamma_r=1e-3)
    rows = run_concentration_sweep(spec)
    assert len(rows) == 1
    assert rows[0].ratio > 0
    assert rows[0].l_cavity >= 0 and rows[0].l_control > 0


def test_scaled_drive_ratio_non_decreasing():
    spec = SweepSpec(n_values=(100, 1000, 10000), drive_rule="scaled",
                     base_params=sweep_base(), gamma_r=1e-3)
    rows = run_concentration_sweep(spec)
    ratios = [r.ratio for r in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def test_fixed_drive_gives_smaller_exponent_than_scaled():
    fits = {}
    for rule in ("scaled", "fixed"):
        spec = SweepSpec(n_values=(100, 1000, 10000), drive_rule=rule,
                         base_params=sweep_base(), gamma_r=1e-3)
        rows = run_concentration_sweep(spec)
        fits[rule] = fit_power_law([(r.n, r.ratio) for r in rows])
    assert fits["fixed"].alpha < fits["scaled"].alpha


def test_scaled_sweep_reaches_n_1e5():
    # omega = 3e-4 * 1e5 = 30 meV: a stable fixed point the closed form finds directly
    spec = SweepSpec(n_values=(100_000,), drive_rule="scaled",
                     base_params=sweep_base(), gamma_r=1e-3)
    (row,) = run_concentration_sweep(spec)
    assert row.omega == pytest.approx(30.0)
    for value in (row.l_cavity, row.l_control, row.ratio):
        assert np.isfinite(value) and value > 0


def test_sweep_is_deterministic():
    spec = SweepSpec(n_values=(10, 100), drive_rule="scaled",
                     base_params=sweep_base(omega=0.01), gamma_r=1e-3)
    rows_a = run_concentration_sweep(spec)
    rows_b = run_concentration_sweep(spec)
    assert rows_a == rows_b


def test_a_point_without_a_stationary_state_names_its_n():
    # kappa = 0 with g > 0 and omega >= gamma_minus: the photon number is unbounded
    base = SystemParams(1, 2350.0, 2350.0, 0.11, 0.0, 0.3, 0.3, 0.5)
    spec = SweepSpec(n_values=(1, 10), drive_rule="fixed", base_params=base, gamma_r=1e-3)
    with pytest.raises(NoConvergence, match="^sweep point n=1 did not converge: kappa = 0 with "
                                            "g > 0 and omega >= gamma_minus"):
        run_concentration_sweep(spec)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_values=(10, 10), drive_rule="scaled",
                  base_params=sweep_base(), gamma_r=1e-3)
    with pytest.raises(ValueError):
        SweepSpec(n_values=(10,), drive_rule="sideways",
                  base_params=sweep_base(), gamma_r=1e-3)
    with pytest.raises(ValueError):
        SweepSpec(n_values=(10,), drive_rule="scaled",
                  base_params=sweep_base(), gamma_r=0.0)
    # an infinite radiative rate would make every control flux, ratio and the fit nan
    for gamma_r in (np.inf, np.nan):
        with pytest.raises(InvalidValue, match="gamma_r must be finite"):
            SweepSpec(n_values=(10,), drive_rule="scaled",
                      base_params=sweep_base(), gamma_r=gamma_r)


@pytest.mark.parametrize("n_values", [(2.5,), (True,), (10, 100.0), ("10",)],
                         ids=["float", "bool", "integral_float", "str"])
def test_sweep_spec_refuses_a_non_integer_count(n_values):
    # the rule validate_params applies to n_emitters: an int or numpy integer, not a bool
    with pytest.raises(InvalidValue, match="n_values must be integers"):
        SweepSpec(n_values=n_values, drive_rule="scaled", base_params=sweep_base(), gamma_r=1e-3)


def test_sweep_spec_takes_numpy_integers():
    spec = SweepSpec(n_values=tuple(np.array([10, 100])), drive_rule="scaled",
                     base_params=sweep_base(), gamma_r=1e-3)
    assert [r.n for r in run_concentration_sweep(spec)] == [10, 100]


class _NoNumpy:
    """Stands in for a module's numpy; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


# the benchmark's closure_sweep grid: 12 log-spaced N from 1 to 3e4
CLOSURE_SWEEP_N = tuple(int(n) for n in np.round(3.0e4 ** (np.arange(12) / 11)))


@pytest.mark.parametrize("rule", ["scaled", "fixed"])
def test_a_sweep_and_its_fit_call_no_numpy(monkeypatch, rule):
    spec = SweepSpec(n_values=CLOSURE_SWEEP_N, drive_rule=rule,
                     base_params=sweep_base(), gamma_r=1e-3)
    rows = run_concentration_sweep(spec)
    points = [(r.n, r.ratio) for r in rows]
    fit = fit_power_law(points)
    monkeypatch.setattr(cumulant, "np", _NoNumpy())
    monkeypatch.setattr(sweep, "np", _NoNumpy())
    assert run_concentration_sweep(spec) == rows
    assert fit_power_law(points) == fit


def _lstsq_fit(n, ratios):
    """The fit through numpy's least-squares solver on the design matrix [1, ln n]."""
    design = np.column_stack([np.ones(len(n)), np.log(n)])
    log_r = np.log(ratios)
    (intercept, slope), *_ = np.linalg.lstsq(design, log_r, rcond=None)
    rmsd = np.sqrt(np.mean((log_r - design @ [intercept, slope]) ** 2))
    return slope, np.exp(intercept), rmsd


@pytest.mark.parametrize("seed", range(12))
def test_fit_matches_a_least_squares_reference(seed):
    rng = np.random.default_rng(seed)
    n = np.exp(rng.uniform(0.0, 12.0, size=rng.integers(5, 25)))
    alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    ratios = synth_power_law(n, alpha, np.exp(rng.uniform(-5.0, 5.0)), rng.uniform(0.0, 0.2), rng)
    fit = fit_power_law(zip(n, ratios))
    slope, prefactor, rmsd = _lstsq_fit(n, ratios)
    assert fit.alpha == pytest.approx(slope, rel=1e-12, abs=0.0)
    assert fit.prefactor == pytest.approx(prefactor, rel=1e-12, abs=0.0)
    assert fit.rmsd == pytest.approx(rmsd, rel=0.0, abs=1e-12)


def test_fit_planted_exponent():
    n = np.array([10.0, 100.0, 1000.0, 10000.0])
    fit = fit_power_law(list(zip(n, 3.0 * n**0.25)))
    assert fit.alpha == pytest.approx(0.25, abs=1e-9)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
    assert fit.rmsd <= 1e-9


def test_fit_constant_ratios():
    fit = fit_power_law([(10, 2.5), (100, 2.5), (1000, 2.5)])
    assert fit.alpha == pytest.approx(0.0, abs=1e-12)
    assert fit.rmsd == pytest.approx(0.0, abs=1e-12)


def test_fit_scale_invariance():
    rng = np.random.default_rng(3)
    n = np.array([5.0, 50.0, 500.0, 5000.0])
    ratios = synth_power_law(n, 0.4, 2.0, 0.2, rng)
    base = fit_power_law(list(zip(n, ratios)))
    scaled = fit_power_law(list(zip(n, 7.3 * ratios)))
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)
    assert scaled.rmsd == pytest.approx(base.rmsd, abs=1e-12)
    assert scaled.prefactor == pytest.approx(7.3 * base.prefactor, rel=1e-12)


def test_fit_reparameterization_consistency():
    rng = np.random.default_rng(4)
    n = np.array([3.0, 30.0, 300.0])
    ratios = synth_power_law(n, 0.7, 1.0, 0.1, rng)
    base = fit_power_law(list(zip(n, ratios)))
    relabeled = fit_power_law(list(zip(11.0 * n, ratios)))
    assert relabeled.alpha == pytest.approx(base.alpha, abs=1e-12)


def test_fit_guards():
    with pytest.raises(InsufficientPoints):
        fit_power_law([(10, 1.0)])
    with pytest.raises(NonPositiveValue):
        fit_power_law([(10, 1.0), (100, -2.0)])
    with pytest.raises(NonPositiveValue):
        fit_power_law([(0, 1.0), (100, 2.0)])


@pytest.mark.parametrize("points, error", [
    ([(10, 1.0), (10, 2.0)], InsufficientPoints),
    # the mean of five ln 7 rounds off ln 7, so a centered sum(dx^2) is not 0 here
    ([(7, r) for r in (1.0, 2.0, 3.0, 4.0, 5.0)], InsufficientPoints),
    ([(10, np.inf), (100, 2.0)], InvalidValue),
    ([(np.inf, 1.0), (100, 2.0)], InvalidValue),
    ([(10, 1.0), (100, np.nan)], InvalidValue),
    ([(10, 1.0), (100, -np.inf)], InvalidValue),
    # finite, but ln n differs by a few ulp: the intercept's exp overflows
    ([(np.exp(10.0), 1e300), (np.exp(10.0) * (1 + 1e-14), 1e-300)], InvalidValue),
], ids=["two_at_one_n", "five_at_one_n", "inf_ratio", "inf_n", "nan_ratio",
        "minus_inf_ratio", "prefactor_overflow"])
def test_fit_refuses_a_degenerate_or_non_finite_set(points, error):
    with pytest.raises(error):
        fit_power_law(points)


def test_fit_noise_recovery_monte_carlo():
    # 12 log-spaced points, ln-noise sigma 0.12: every seeded trial recovers
    # the planted exponent within 0.1 and the mean rmsd sits near 0.12
    rng = np.random.default_rng(20260808)
    n = np.logspace(2, 4, 12)
    alphas, rmsds = [], []
    for _ in range(100):
        ratios = synth_power_law(n, 0.25, 1.0, 0.12, rng)
        fit = fit_power_law(list(zip(n, ratios)))
        alphas.append(fit.alpha)
        rmsds.append(fit.rmsd)
    assert np.abs(np.array(alphas) - 0.25).max() <= 0.1
    assert np.mean(rmsds) == pytest.approx(0.12, abs=0.03)
