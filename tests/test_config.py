import dataclasses
from pathlib import Path

import pytest
import yaml

import superrad.config as config_module
from superrad.config import (
    _YAML_LOADER,
    DriveSection,
    FitSection,
    HilbertSection,
    OpticsSection,
    RunConfig,
    SweepSection,
    parse_config,
    serialize_config,
)
from superrad.errors import (
    ConfigSyntaxError,
    InvalidParams,
    InvalidValue,
    MissingSection,
    NegativeRate,
    TypeMismatch,
    UnknownKey,
)
from superrad.params import SystemParams

PARAMS_BLOCK = """
params:
  n_emitters: 10000
  delta: 2350.0
  delta_c: 2350.0
  g: 0.11
  kappa: 134.0
  omega: 1.0
  gamma_minus: 1.0
  gamma_z: 10.0
"""


def test_minimal_validate_document():
    config = parse_config("command: validate\n" + PARAMS_BLOCK)
    assert config.command == "validate"
    assert config.params.n_emitters == 10000
    assert config.params.g == pytest.approx(0.11)
    assert config.format == "csv" and config.seed == 0


def test_comments_and_nested_structure_accepted():
    text = """
# collective point, leaky cavity
command: cumulant
seed: 7
format: json
""" + PARAMS_BLOCK
    config = parse_config(text)
    assert config.seed == 7 and config.format == "json"


def test_misspelled_key_is_hard_error():
    text = "command: validate\nparams:\n  n_emitters: 1\n  kapa: 1.0\n"
    with pytest.raises(UnknownKey) as err:
        parse_config(text)
    assert "kapa" in str(err.value)


def test_unknown_top_level_key():
    with pytest.raises(UnknownKey):
        parse_config("command: validate\nverbose: true\n" + PARAMS_BLOCK)


def test_sweep_requires_sweep_section():
    with pytest.raises(MissingSection) as err:
        parse_config("command: sweep\n" + PARAMS_BLOCK)
    assert "sweep" in str(err.value)


def test_missing_params_section():
    with pytest.raises(MissingSection):
        parse_config("command: exact\n")


def test_syntax_error_carries_position(monkeypatch):
    # libyaml and the pure-Python loader word the problem differently but mark
    # the same place; the position is what the error promises
    cases = (
        ("command: [unclosed\n", 2, 1),
        ("command: validate\nparams:\n  n_emitters: 1\n   delta: 2\n", 4, 9),
    )
    for loader in (_YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        for text, line, column in cases:
            with pytest.raises(ConfigSyntaxError) as err:
                parse_config(text)
            assert (err.value.line, err.value.column) == (line, column)
            assert f"(line {line}, column {column})" in str(err.value)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_configs_load_as_with_the_pure_python_loader(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=_YAML_LOADER) == yaml.safe_load(text)


def test_type_mismatch_on_string_rate():
    text = "command: validate\nparams:\n  n_emitters: 1\n  delta: fast\n"
    with pytest.raises(TypeMismatch):
        parse_config(text)


def test_bool_is_not_an_integer():
    with pytest.raises(TypeMismatch):
        parse_config("command: validate\nseed: true\n" + PARAMS_BLOCK)


def test_unrecognized_command():
    with pytest.raises(TypeMismatch):
        parse_config("command: simulate\n" + PARAMS_BLOCK)


def test_negative_seed_rejected():
    with pytest.raises(TypeMismatch):
        parse_config("command: validate\nseed: -3\n" + PARAMS_BLOCK)


def test_drive_section_overrides_omega():
    text = "command: validate\n" + PARAMS_BLOCK + """
drive:
  v_on: 2.0
  slope_mu: 0.5
  voltage: 4.0
"""
    config = parse_config(text)
    assert config.params.omega == pytest.approx(1.0)


def test_a_record_with_a_drive_holds_the_omega_of_its_voltage():
    params = SystemParams(4, 2350.0, 2350.0, 0.11, 134.0, 0.0, 1.0, 10.0)
    config = RunConfig(command="cumulant", params=params,
                       drive=DriveSection(v_on=2.0, slope_mu=0.5, voltage=6.0))
    assert config.params == dataclasses.replace(params, omega=2.0)
    assert parse_config(serialize_config(config)) == config
    below_onset = RunConfig(command="cumulant", params=config.params,
                            drive=DriveSection(v_on=2.0, slope_mu=0.5, voltage=1.0))
    assert below_onset.params.omega == 0.0


@pytest.mark.parametrize("text", [
    "command: sweep\n" + PARAMS_BLOCK,                 # no sweep section
    "command: fit\nfit: {points: [[1, 1.0], [2, 2.0]]}\n",  # no params for the drive to set
])
def test_a_bad_drive_is_refused_when_parsed(text):
    # before a missing section, and whether or not there are params to set
    with pytest.raises(InvalidValue, match="drive onset and slope must be finite"):
        parse_config(text + "drive: {v_on: .nan, slope_mu: 0.5, voltage: 4.0}\n")


def test_an_optics_section_fills_in_the_values_the_document_leaves_out():
    config = parse_config("command: reflectance\n" + OPTICS_BLOCK)
    assert (config.optics.kappa_ext, config.optics.e_min, config.optics.e_max) == (
        67.0, 1850.0, 2850.0)
    given = parse_config("command: reflectance\n" + OPTICS_BLOCK
                         + "  kappa_ext: 20.0\n  e_min: 2000.0\n  e_max: 2100.0\n")
    assert (given.optics.kappa_ext, given.optics.e_min, given.optics.e_max) == (
        20.0, 2000.0, 2100.0)
    assert parse_config(serialize_config(config)) == config


def test_optics_and_sweep_sections_are_checked_whichever_command_reads_them():
    optics = OpticsSection(e_c0=2300.0, n_eff=0.9, delta=2350.0, g_coll=11.0, kappa=134.0,
                           gamma_perp=331.0)
    with pytest.raises(InvalidValue, match="n_eff must be > 1"):
        RunConfig(command="fit", fit=FitSection(points=((10.0, 1.0), (100.0, 2.0))),
                  optics=optics)
    params = SystemParams(1, 2350.0, 2350.0, 0.11, 134.0, 3e-4, 0.3, 0.5)
    # a sweep section checks its own fields when made, with or without params
    with pytest.raises(InvalidValue, match="n_values must be strictly increasing"):
        RunConfig(command="validate", params=params,
                  sweep=SweepSection(n_values=(100, 10), drive_rule="fixed", gamma_r=1e-3))
    # a sweep is checked against the params it runs at, after a drive sets omega
    drive = DriveSection(v_on=2.0, slope_mu=0.5, voltage=1.0)  # below onset: omega 0
    ok = SweepSection(n_values=(10, 100), drive_rule="fixed", gamma_r=1e-3)
    assert RunConfig(command="validate", params=params, sweep=ok).sweep_spec().n_values == (10, 100)
    with pytest.raises(InvalidValue, match="base omega must be > 0"):
        RunConfig(command="validate", params=params, sweep=ok, drive=drive)
    with pytest.raises(InvalidValue, match="n_eff must be > 1"):
        parse_config("command: reflectance\n" + OPTICS_BLOCK.replace("n_eff: 1.8", "n_eff: 0.9"))


@pytest.mark.parametrize("text", ["", "# a comment only\n"])
def test_an_empty_document_misses_its_command(text):
    with pytest.raises(MissingSection) as err:
        parse_config(text)
    assert err.value.section == "command"


@pytest.mark.parametrize("omega, error, message", [
    ("-1.0", NegativeRate, "rate 'omega' must be >= 0"),
    (".nan", InvalidParams, "'omega' must be finite"),
])
def test_an_invalid_params_section_is_refused_when_parsed(omega, error, message):
    # the params record checks itself, so the parse refuses it even where a
    # drive section would replace omega, or the command reads no params
    drive = "drive: {v_on: 2.0, slope_mu: 0.5, voltage: 4.0}\n"
    block = PARAMS_BLOCK.replace("omega: 1.0", f"omega: {omega}")
    for text in ("command: validate\n" + block + drive,
                 "command: fit\nfit: {points: [[1, 1.0], [2, 2.0]]}\n" + block):
        with pytest.raises(error) as err:
            parse_config(text)
        assert type(err.value) is error and str(err.value) == message


def _full_config():
    return RunConfig(
        command="sweep",
        output_dir="out",
        format="json",
        seed=42,
        params=SystemParams(1, 2350.0, 2350.0, 0.11, 134.0, 3e-4, 0.3, 0.5),
        hilbert=HilbertSection(n_max=5, cap=2048),
        sweep=SweepSection(n_values=(100, 1000, 10000), drive_rule="scaled", gamma_r=1e-3),
    )


def test_round_trip_identity():
    config = _full_config()
    assert parse_config(serialize_config(config)) == config


def test_round_trip_optics_and_fit():
    config = RunConfig(
        command="fit",
        fit=FitSection(points=((100.0, 1.2), (1000.0, 2.1)), noise_sigma=0.12),
        optics=OpticsSection(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                             kappa=134.0, gamma_perp=331.0),
    )
    assert parse_config(serialize_config(config)) == config


def test_round_trip_is_stable_under_reserialization():
    text_once = serialize_config(_full_config())
    text_twice = serialize_config(parse_config(text_once))
    assert text_once == text_twice


BEYOND_FLOAT = "1" + "0" * 400  # a 401-digit int literal

SWEEP_BLOCK = """
sweep:
  n_values: [100, 1000]
  drive_rule: scaled
  gamma_r: 0.001
"""

OPTICS_BLOCK = """
optics:
  e_c0: 2300.0
  n_eff: 1.8
  delta: 2350.0
  g_coll: 11.0
  kappa: 134.0
  gamma_perp: 331.0
"""


@pytest.mark.parametrize("text, error, key", [
    ("command: sweep\n" + PARAMS_BLOCK + SWEEP_BLOCK.replace("scaled", "linear"),
     TypeMismatch, "sweep.drive_rule"),
    ("command: sweep\n" + PARAMS_BLOCK + SWEEP_BLOCK.replace("[100, 1000]", "[]"),
     TypeMismatch, "sweep.n_values"),
    ("command: sweep\n" + PARAMS_BLOCK + SWEEP_BLOCK.replace("[100, 1000]", "[100, 1.5]"),
     TypeMismatch, "sweep.n_values[]"),
    ("command: fit\nfit:\n  points: [[100, 1.0], [1000, 2.0, 3.0]]\n",
     TypeMismatch, "fit.points[]"),
    ("command: fit\nfit:\n  points: [[100, 1.0], [1000, two]]\n",
     TypeMismatch, "fit.points[].ratio"),
    ("command: exact\n" + PARAMS_BLOCK + "hilbert:\n  n_max: true\n",
     TypeMismatch, "hilbert.n_max"),
    ("command: exact\n" + PARAMS_BLOCK + "hilbert:\n  n_max: 3\n  cutoff: 5\n",
     UnknownKey, "hilbert.cutoff"),
    ("command: exact\n" + PARAMS_BLOCK + "hilbert: 3\n", TypeMismatch, "hilbert"),
    ("command: validate\nformat: xml\n" + PARAMS_BLOCK, TypeMismatch, "format"),
    ("command: validate\nparams:\n  n_emitters: 1\n", MissingSection, "params.delta"),
    ("- command: validate\n", TypeMismatch, "<document root>"),
    ("command: reflectance\n" + OPTICS_BLOCK + "  n_theta: -3\n", TypeMismatch, "optics.n_theta"),
    ("command: reflectance\n" + OPTICS_BLOCK + "  n_theta: 0\n", TypeMismatch, "optics.n_theta"),
    ("command: reflectance\n" + OPTICS_BLOCK + "  n_energy: 0\n", TypeMismatch, "optics.n_energy"),
    ("command: exact\n" + PARAMS_BLOCK + "hilbert:\n  n_max: 0\n", TypeMismatch, "hilbert.n_max"),
    ("command: exact\n" + PARAMS_BLOCK + "hilbert:\n  cap: -5\n", TypeMismatch, "hilbert.cap"),
    ("command: fit\nfit:\n  points: [[100, 1.0], [1000, 2.0]]\n  noise_sigma: -0.3\n",
     TypeMismatch, "fit.noise_sigma"),
    # int literals past the float range, which float() refuses with OverflowError
    (f"command: fit\nfit:\n  points: [[{BEYOND_FLOAT}, 1.0], [1000, 2.0]]\n",
     TypeMismatch, "fit.points[].n"),
    ("command: exact\n" + PARAMS_BLOCK.replace("134.0", BEYOND_FLOAT), TypeMismatch, "params.kappa"),
])
def test_schema_error_paths(text, error, key):
    with pytest.raises(error) as err:
        parse_config(text)
    assert getattr(err.value, "key", getattr(err.value, "section", None)) == key


def test_an_int_literal_past_the_digit_limit_is_a_syntax_error(monkeypatch):
    # PyYAML's int constructor calls int(), which refuses more than 4300 digits
    text = "command: exact\n" + PARAMS_BLOCK.replace("134.0", "1" + "0" * 4400)
    for loader in (_YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        with pytest.raises(ConfigSyntaxError, match="limit .4300 digits. for integer string"):
            parse_config(text)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_configs_round_trip(path):
    config = parse_config(path.read_text(encoding="utf-8"))
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("literal", ["1e-3", "5E+2", "-2e-1"])
def test_a_number_in_exponent_form_is_a_float(monkeypatch, literal):
    # YAML 1.1 reads these as strings, YAML 1.2 and the config loader as floats
    text = f"command: fit\nfit:\n  points: [[10, 1.0], [100, {literal}]]\n"
    for loader in (_YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        assert parse_config(text).fit.points[1] == (100.0, float(literal))
    # PyYAML's own loaders are left as they are
    assert yaml.safe_load(literal) == literal
    assert yaml.load(literal, Loader=yaml.SafeLoader) == literal
    assert yaml.load(literal, Loader=_YAML_LOADER) == literal


def test_an_exponent_float_round_trips():
    config = parse_config("command: exact\n" + PARAMS_BLOCK.replace("omega: 1.0", "omega: 1e-3"))
    assert config.params.omega == 1e-3
    assert parse_config(serialize_config(config)) == config
