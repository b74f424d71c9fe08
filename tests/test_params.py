import dataclasses
import math
import sys

import numpy as np
import pytest

from superrad.errors import (
    InvalidParams,
    InvalidValue,
    NegativeRate,
    NonPositiveEnergy,
    ZeroEmitters,
)
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
    with pytest.raises(NegativeRate) as err:
        SystemParams(2, 2350.0, 2350.0, 1.0, -1.0, 0.0, 0.0, 0.0)
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
    with pytest.raises(InvalidParams) as err:
        SystemParams(0, -5.0, 1.0, -1.0, -2.0, 0.0, 0.0, 0.0)
    msg = str(err.value)
    assert "n_emitters" in msg and "delta" in msg and "g" in msg and "kappa" in msg


VALID = SystemParams(3, 2350.0, 2350.0, 0.1, 5.0, 0.5, 0.1, 0.2)

# (fields to change, error class, message): the record validate_params refused
# before SystemParams checked itself, with the error it raised
INVALID = [
    ({"n_emitters": 0}, ZeroEmitters, "n_emitters must be >= 1"),
    ({"kappa": -1.0}, NegativeRate, "rate 'kappa' must be >= 0"),
    ({"gamma_z": -math.inf}, InvalidParams,
     "rate 'gamma_z' must be >= 0; 'gamma_z' must be finite"),
    ({"delta_c": 0.0}, NonPositiveEnergy, "energy 'delta_c' must be > 0"),
    ({"omega": math.nan}, InvalidParams, "'omega' must be finite"),
    ({"n_emitters": 2.0}, InvalidParams, "'n_emitters' must be an integer, got 2.0"),
    ({"n_emitters": 0, "delta": -5.0, "g": -1.0}, InvalidParams,
     "n_emitters must be >= 1; energy 'delta' must be > 0; rate 'g' must be >= 0"),
]

ENERGIES = ("delta", "delta_c")
RATES = ("g", "kappa", "omega", "gamma_minus", "gamma_z")
PAST_FLOAT_RANGE = "must be at most 1.7976931348623157e+308, got an integer of"


def _field_cases():
    """Each field at nan, +inf, -inf and -1.0, and each energy at 0.0 and -0.0, with its error."""
    for field in ENERGIES + RATES:
        finite = f"'{field}' must be finite"
        if field in ENERGIES:
            sign_cls, sign = NonPositiveEnergy, f"energy '{field}' must be > 0"
            # nan > 0 is false, so a nan energy also fails its sign
            nan_cls, nan = InvalidParams, f"{sign}; {finite}"
        else:
            sign_cls, sign = NegativeRate, f"rate '{field}' must be >= 0"
            nan_cls, nan = InvalidParams, finite
        yield {field: math.nan}, nan_cls, nan
        yield {field: math.inf}, InvalidParams, finite
        yield {field: -math.inf}, InvalidParams, f"{sign}; {finite}"
        yield {field: -1.0}, sign_cls, sign
        if field in ENERGIES:
            yield {field: 0.0}, sign_cls, sign
            yield {field: -0.0}, sign_cls, sign


# compared by repr, where -0.0 and 0.0 differ, to skip the cases listed above
INVALID += [case for case in _field_cases() if repr(case) not in map(repr, INVALID)] + [
    ({"n_emitters": True}, InvalidParams, "'n_emitters' must be an integer, got True"),
    ({"n_emitters": np.int64(0)}, ZeroEmitters, "n_emitters must be >= 1"),
    ({"n_emitters": -3}, ZeroEmitters, "n_emitters must be >= 1"),
    # past the float range: 2.0 * g * N would raise OverflowError in the solvers
    ({"n_emitters": 10**400}, InvalidParams, f"'n_emitters' {PAST_FLOAT_RANGE} 1329 bits"),
    ({"n_emitters": int(sys.float_info.max) + 1}, InvalidParams,
     f"'n_emitters' {PAST_FLOAT_RANGE} 1024 bits"),
    # an int energy or rate past the float range is not finite as a float
    ({"delta": 10**400}, InvalidParams, "'delta' must be finite"),
    ({"kappa": -(10**400)}, InvalidParams, "rate 'kappa' must be >= 0; 'kappa' must be finite"),
]


@pytest.mark.parametrize("changes, cls, message", INVALID)
def test_an_invalid_record_cannot_be_made_or_replaced_into(changes, cls, message):
    fields = {**dataclasses.asdict(VALID), **changes}
    for make in (lambda: SystemParams(**fields), lambda: dataclasses.replace(VALID, **changes)):
        with pytest.raises(cls) as err:
            make()
        assert type(err.value) is cls and str(err.value) == message
    # validate_params, the rule the record runs, raises the same on a record
    # whose fields were changed past the frozen dataclass
    p = dataclasses.replace(VALID)
    for name, value in changes.items():
        object.__setattr__(p, name, value)
    with pytest.raises(cls) as err:
        validate_params(p)
    assert type(err.value) is cls and str(err.value) == message


# each rate at its boundary, either sign of zero, and the counts the chained
# comparison leaves to the diagnosis (a numpy integer) or accepts at its edge
VALID_EDGES = [{field: zero} for field in RATES for zero in (0.0, -0.0)] + [
    {"n_emitters": np.int64(3)},
    {"n_emitters": np.uint8(1)},
    {"n_emitters": int(sys.float_info.max)},
    {"delta": sys.float_info.max, "kappa": sys.float_info.max},
    {"delta": 5e-324, "g": 5e-324},
]


@pytest.mark.parametrize("changes", VALID_EDGES)
def test_a_valid_edge_record_comes_back_unchanged(changes):
    fields = {**dataclasses.asdict(VALID), **changes}
    for p in (SystemParams(**fields), dataclasses.replace(VALID, **changes)):
        assert validate_params(p) is p
        for name, value in changes.items():
            assert getattr(p, name) is value


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


@pytest.mark.parametrize("name", ["v_on", "slope_mu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_drive_is_refused(name, value):
    # unchecked, max(0.0, v - nan) and max(0.0, v - inf) read 0.0: a dark run
    fields = {"v_on": 2.0, "slope_mu": 0.5, name: value}
    with pytest.raises(InvalidValue, match=f"drive onset and slope must be finite, got .*{name}={value!r}"):
        DriveMap(**fields)


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


@pytest.mark.parametrize("convert", [
    energy_mev_from_nm,
    lambda x: fwhm_mev_from_nm(x, 30.0),
    lambda x: fwhm_mev_from_nm(527.0, x),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_unit_conversions_refuse_a_non_finite_argument(convert, value):
    with pytest.raises(InvalidValue, match="must be finite"):
        convert(value)


def test_per_emitter_collective_roundtrip():
    for n in (1, 7, 144, 10_000):
        g = 0.37
        assert per_emitter_coupling(collective_coupling(g, n), n) == pytest.approx(g)


@pytest.mark.parametrize("helper", [collective_coupling, per_emitter_coupling])
@pytest.mark.parametrize("g, n, message", [
    (math.nan, 4, "must be finite, got nan"),
    (math.inf, 4, "must be finite, got inf"),
    (1.0, 2.5, "emitter count must be an integer, got 2.5"),
    (1.0, True, "emitter count must be an integer, got True"),
])
def test_coupling_helpers_refuse_a_non_finite_coupling_or_count(helper, g, n, message):
    # unchecked, collective_coupling(nan, 4) read nan and (1.0, 2.5) read 1.58
    with pytest.raises(InvalidValue, match=message):
        helper(g, n)


def test_coupling_helpers_keep_their_negative_and_zero_refusals():
    for helper, name in ((collective_coupling, "g_single"), (per_emitter_coupling, "g_collective")):
        with pytest.raises(NegativeRate) as err:
            helper(-1.0, 4)
        assert err.value.field == name
        with pytest.raises(ZeroEmitters):
            helper(1.0, 0)
    assert collective_coupling(2.0, np.int64(4)) == 4.0


def test_a_negative_spectral_width_is_refused():
    # unchecked, fwhm_mev_from_nm(527.0, -30.0) read -133.9 meV
    with pytest.raises(InvalidValue, match="spectral width must be finite and >= 0, got -30.0"):
        fwhm_mev_from_nm(527.0, -30.0)
    assert fwhm_mev_from_nm(527.0, 0.0) == 0.0


@pytest.mark.parametrize("error, field, message", [
    (NegativeRate("kappa"), "kappa", "rate 'kappa' must be >= 0"),
    (NonPositiveEnergy("delta"), "delta", "energy 'delta' must be > 0"),
    (ZeroEmitters(), None, "n_emitters must be >= 1"),
])
def test_each_invalid_params_error_holds_its_one_message(error, field, message):
    assert isinstance(error, InvalidParams)
    assert str(error) == message and error.args == (message,)
    assert error.violations == [message]
    assert getattr(error, "field", None) == field
