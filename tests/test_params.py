import math

import numpy as np
import pytest

from superrad.errors import InvalidParams, NegativeRate, NonPositiveEnergy, ZeroEmitters
from superrad.params import (
    DriveMap,
    SystemParams,
    collective_coupling,
    omega_of_voltage,
    per_emitter_coupling,
    validate_params,
)
from superrad.units import MEV_NM, TIME_UNIT_PS, energy_mev_from_nm, fwhm_mev_from_nm


def test_all_zero_rate_boundary_is_valid():
    p = SystemParams(1, 2350.0, 2350.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert validate_params(p) is p


def test_negative_kappa_names_the_field():
    p = SystemParams(2, 2350.0, 2350.0, 1.0, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(NegativeRate) as err:
        validate_params(p)
    assert "kappa" in str(err.value)


def test_large_ensemble_with_per_emitter_coupling_is_valid():
    # collective coupling 11 meV at N=1e4 corresponds to g = 0.11 per emitter
    g = per_emitter_coupling(11.0, 10_000)
    assert g == pytest.approx(0.11)
    p = SystemParams(10_000, 2350.0, 2350.0, g, 134.0, 1.0, 1.0, 10.0)
    assert validate_params(p) is p


def test_zero_emitters_rejected():
    with pytest.raises(ZeroEmitters):
        validate_params(SystemParams(0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("n_em", [True, 2.0, 2.5])
def test_non_integer_emitter_count_is_invalid_params_naming_it(n_em):
    with pytest.raises(InvalidParams) as err:
        validate_params(SystemParams(n_em, 2350.0, 2350.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert type(err.value) is InvalidParams
    assert err.value.violations == [f"'n_emitters' must be an integer, got {n_em!r}"]


def test_numpy_integer_emitter_count_is_valid_and_zero_is_zero_emitters():
    p = SystemParams(np.int64(3), 2350.0, 2350.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert validate_params(p) is p
    with pytest.raises(ZeroEmitters):
        validate_params(SystemParams(np.int64(0), 2350.0, 2350.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_non_positive_energy_rejected():
    with pytest.raises(NonPositiveEnergy):
        validate_params(SystemParams(1, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_multiple_violations_all_named():
    p = SystemParams(0, -5.0, 1.0, -1.0, -2.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidParams) as err:
        validate_params(p)
    msg = str(err.value)
    assert "n_emitters" in msg and "delta" in msg and "g" in msg and "kappa" in msg


def test_validate_is_idempotent():
    p = SystemParams(3, 10.0, 12.0, 1.0, 5.0, 0.5, 0.1, 0.2)
    assert validate_params(validate_params(p)) == p


def test_omega_of_voltage_examples():
    d = DriveMap(v_on=2.0, slope_mu=0.5)
    assert omega_of_voltage(d, 2.0) == 0.0
    assert omega_of_voltage(d, 4.0) == pytest.approx(1.0)
    assert omega_of_voltage(d, 1.0) == 0.0  # clamped below onset


def test_omega_of_voltage_nonnegative_and_monotone():
    rng = np.random.default_rng(11)
    d = DriveMap(v_on=rng.uniform(-3, 3), slope_mu=rng.uniform(0, 4))
    vs = np.sort(rng.uniform(-10, 10, size=200))
    om = [omega_of_voltage(d, v) for v in vs]
    assert all(o >= 0 for o in om)
    assert all(b >= a for a, b in zip(om, om[1:]))


def test_omega_of_voltage_rejects_nan():
    with pytest.raises(ValueError):
        omega_of_voltage(DriveMap(0.0, 1.0), float("nan"))


def test_negative_slope_rejected():
    with pytest.raises(NegativeRate):
        DriveMap(v_on=0.0, slope_mu=-1.0)


def test_collective_coupling_examples():
    assert collective_coupling(0.11, 10_000) == pytest.approx(11.0)
    assert collective_coupling(5.0, 1) == 5.0
    assert collective_coupling(3.0, 4) == pytest.approx(6.0)


def test_collective_coupling_scaling_homomorphism():
    # g * sqrt(a * b^2) = b * g * sqrt(a)
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.uniform(0, 10)
        a = int(rng.integers(1, 50))
        b = int(rng.integers(1, 20))
        lhs = collective_coupling(g, a * b * b)
        rhs = b * collective_coupling(g, a)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_time_unit_constant():
    assert abs(TIME_UNIT_PS - 0.6582) < 1e-4


def test_wavelength_energy_conversion():
    assert energy_mev_from_nm(527.0) == pytest.approx(MEV_NM / 527.0)
    # 30 nm FWHM at 527 nm is ~134 meV
    assert fwhm_mev_from_nm(527.0, 30.0) == pytest.approx(134.0, abs=0.5)
    # the emitter transition at 527 nm sits near 2.35 eV
    assert energy_mev_from_nm(527.0) == pytest.approx(2352.6, abs=0.5)


def test_per_emitter_collective_roundtrip():
    for n in (1, 7, 144, 10_000):
        g = 0.37
        assert per_emitter_coupling(collective_coupling(g, n), n) == pytest.approx(g)
