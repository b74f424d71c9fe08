import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from superrad import optics
from superrad.errors import (
    AngleOutOfRange,
    DimensionCap,
    InsufficientPoints,
    InvalidValue,
    PeakNotFound,
    ZeroLinewidth,
)
from superrad.optics import (
    OpticalParams,
    cavity_dispersion,
    coherence_length,
    compute_reflectance_map,
    emission_fwhm,
    fit_coupling_scaling,
    minimum_branch_splitting,
    polariton_eigenmodes,
    reflectance_spectrum,
)
from superrad.units import fwhm_mev_from_nm

# leaky-cavity parameters: kappa from the 30 nm emission FWHM at 527 nm,
# emitter linewidth from the ~75 nm control emission at 530 nm
KAPPA_BROAD = fwhm_mev_from_nm(527.0, 30.0)      # ~134 meV
GAMMA_BROAD = fwhm_mev_from_nm(530.0, 75.0)      # ~331 meV


def d4_like(kappa, gamma_perp, g_coll=11.0, kappa_ext=None):
    return OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=g_coll,
                         kappa=kappa, kappa_ext=kappa / 2 if kappa_ext is None else kappa_ext,
                         gamma_perp=gamma_perp)


def resonant_angle(p, theta_max=64.0):
    thetas = np.linspace(0.0, theta_max, 6401)
    e_c = np.array([cavity_dispersion(p, t) for t in thetas])
    return float(thetas[np.argmin(np.abs(e_c - p.delta))])


def test_dispersion_normal_incidence():
    p = d4_like(20.0, 20.0)
    assert cavity_dispersion(p, 0.0) == p.e_c0


def test_dispersion_flat_at_huge_index():
    p = OpticalParams(e_c0=2300.0, n_eff=1e6, delta=2350.0, g_coll=0.0,
                      kappa=10.0, kappa_ext=5.0, gamma_perp=10.0)
    for theta in (10.0, 45.0, 80.0):
        assert cavity_dispersion(p, theta) == pytest.approx(p.e_c0, rel=1e-9)


def test_dispersion_formula_value():
    # 2300 / sqrt(1 - (sin 20 deg / 1.8)^2), computed independently
    p = d4_like(20.0, 20.0)
    expected = 2300.0 / np.sqrt(1.0 - (np.sin(np.radians(20.0)) / 1.8) ** 2)
    val = cavity_dispersion(p, 20.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(2342.6, abs=0.1)


def test_dispersion_strictly_increasing():
    p = d4_like(20.0, 20.0)
    thetas = np.linspace(0.0, 89.0, 2000)
    vals = [cavity_dispersion(p, t) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    np.testing.assert_array_equal(cavity_dispersion(p, thetas), vals)


def test_dispersion_angle_guard():
    p = d4_like(20.0, 20.0)
    with pytest.raises(AngleOutOfRange):
        cavity_dispersion(p, 90.0)
    with pytest.raises(AngleOutOfRange):
        cavity_dispersion(p, -1.0)
    with pytest.raises(AngleOutOfRange):
        cavity_dispersion(p, np.array([0.0, 30.0, 90.0]))
    for theta_max in (90.0, -1.0, float("nan")):
        with pytest.raises(AngleOutOfRange):
            minimum_branch_splitting(p, theta_max_deg=theta_max)


def test_angle_message_names_the_first_offending_angle():
    # one line whatever the grid: the first angle out of range and how many are
    p = d4_like(20.0, 20.0)
    thetas = np.linspace(0.0, 95.0, 129)
    with pytest.raises(AngleOutOfRange) as err:
        cavity_dispersion(p, thetas)
    message = str(err.value)
    first = thetas[thetas >= 90][0]
    assert f"theta = {first} deg" in message and "7 of 129 angles" in message
    assert len(message) <= 100 and "\n" not in message
    with pytest.raises(AngleOutOfRange, match="theta = 95.0 deg"):
        compute_reflectance_map(p, [0.0, 95.0], np.linspace(2300.0, 2400.0, 5))


def test_polariton_decoupled_limit():
    p = d4_like(30.0, 8.0, g_coll=0.0)
    lp, up = polariton_eigenmodes(p, 25.0)
    bare_c = cavity_dispersion(p, 25.0) - 0.5j * p.kappa
    bare_x = p.delta - 0.5j * p.gamma_perp
    got = sorted([lp, up], key=lambda z: z.real)
    want = sorted([bare_c, bare_x], key=lambda z: z.real)
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_polariton_matched_linewidths_split_2g():
    # at resonance with kappa = gamma_perp the splitting is exactly 2 g_coll
    p = d4_like(20.0, 20.0)
    # choose the exact resonance angle by solving e_c(theta) = delta
    theta_res = resonant_angle(p)
    lp, up = polariton_eigenmodes(p, theta_res)
    assert up.real - lp.real == pytest.approx(2 * p.g_coll, rel=1e-4)


def test_polariton_resonant_splitting_closed_form():
    # Re splitting at resonance: 2*sqrt(g^2 - (kappa-gamma)^2/16), else 0
    for kappa, gamma in ((30.0, 10.0), (10.0, 30.0), (200.0, 10.0)):
        p = OpticalParams(e_c0=2350.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                          kappa=kappa, kappa_ext=kappa / 2, gamma_perp=gamma)
        lp, up = polariton_eigenmodes(p, 0.0)
        radicand = p.g_coll**2 - (kappa - gamma) ** 2 / 16.0
        expected = 2.0 * np.sqrt(radicand) if radicand > 0 else 0.0
        assert up.real - lp.real == pytest.approx(expected, abs=1e-9)


def test_polariton_minimum_splitting_near_rabi_value():
    # |kappa - gamma_perp| <= 10 meV: minimum splitting within 15% of 20 meV
    for kappa, gamma in ((20.0, 20.0), (25.0, 15.0), (15.0, 25.0)):
        p = d4_like(kappa, gamma)
        split = minimum_branch_splitting(p)
        assert abs(split - 20.0) / 20.0 <= 0.15


def test_polariton_trace_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = OpticalParams(
            e_c0=rng.uniform(1800, 2500), n_eff=rng.uniform(1.2, 3.0),
            delta=rng.uniform(1800, 2500), g_coll=rng.uniform(0, 50),
            kappa=rng.uniform(0.1, 300), kappa_ext=0.0, gamma_perp=rng.uniform(0.1, 300),
        )
        theta = rng.uniform(0, 85)
        lp, up = polariton_eigenmodes(p, theta)
        trace = (cavity_dispersion(p, theta) - 0.5j * p.kappa) + (p.delta - 0.5j * p.gamma_perp)
        assert lp + up == pytest.approx(trace, rel=1e-10)


def test_reflectance_critical_coupling_dip():
    p = d4_like(40.0, 10.0, g_coll=0.0, kappa_ext=20.0)
    e_c = cavity_dispersion(p, 30.0)
    assert reflectance_spectrum(p, 30.0, [e_c])[0] == pytest.approx(0.0, abs=1e-12)


def test_reflectance_far_detuned_mirror():
    p = d4_like(40.0, 10.0)
    e_far = p.e_c0 + 1e6 * p.kappa
    assert reflectance_spectrum(p, 0.0, [e_far])[0] >= 1.0 - 1e-6


def test_reflectance_unresolved_single_dip_with_broad_lines():
    # homogeneous broadening hides the 2x11 meV splitting: exactly one minimum
    p = d4_like(KAPPA_BROAD, GAMMA_BROAD)
    theta_res = resonant_angle(p)
    energies = np.linspace(1900.0, 2800.0, 4001)
    refl = reflectance_spectrum(p, theta_res, energies)
    interior = (refl[1:-1] < refl[:-2]) & (refl[1:-1] < refl[2:])
    assert int(interior.sum()) == 1


def test_reflectance_resolved_dips_match_branches():
    # narrow lines (kappa = gamma_perp = 2 meV): two dips at Re(LP), Re(UP)
    p = d4_like(2.0, 2.0)
    theta_res = resonant_angle(p)
    energies = np.linspace(2300.0, 2400.0, 40001)
    refl = reflectance_spectrum(p, theta_res, energies)
    idx = np.where((refl[1:-1] < refl[:-2]) & (refl[1:-1] < refl[2:]))[0] + 1
    assert len(idx) == 2
    lp, up = polariton_eigenmodes(p, theta_res)
    dips = sorted(energies[idx])
    assert abs(dips[0] - lp.real) <= p.gamma_perp / 2
    assert abs(dips[1] - up.real) <= p.gamma_perp / 2


def wide_draws():
    """100 seeded (params, angle, energies) draws over wide parameter ranges."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        kappa = rng.uniform(0.5, 300)
        p = OpticalParams(
            e_c0=rng.uniform(1800, 2500), n_eff=rng.uniform(1.2, 3.0),
            delta=rng.uniform(1800, 2500), g_coll=rng.uniform(0, 40),
            kappa=kappa, kappa_ext=rng.uniform(0, kappa),
            gamma_perp=rng.uniform(0.5, 300),
        )
        theta = rng.uniform(0, 85)
        energies = rng.uniform(1000, 3500, size=50)
        yield p, theta, energies


def scan_draws(seed, count):
    """Seeded draws over the optics benchmark's ranges, each with its 1201 energies."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kappa = rng.uniform(20.0, 150.0)
        p = OpticalParams(
            e_c0=rng.uniform(2200.0, 2400.0), n_eff=rng.uniform(1.5, 2.2),
            delta=rng.uniform(2250.0, 2450.0), g_coll=rng.uniform(5.0, 40.0),
            kappa=kappa, kappa_ext=kappa * rng.uniform(0.2, 1.0),
            gamma_perp=rng.uniform(20.0, 350.0),
        )
        yield p, np.linspace(p.delta - 600.0, p.delta + 600.0, 1201)


def complex_reflectance(p, theta, energies):
    """|1 - kappa_ext / D|^2 with D written out in complex arithmetic."""
    denom = 0.5 * p.kappa - 1j * (energies - cavity_dispersion(p, theta))
    if p.g_coll != 0:
        denom = denom + p.g_coll**2 / (0.5 * p.gamma_perp - 1j * (energies - p.delta))
    return np.abs(1.0 - p.kappa_ext / denom) ** 2


def exact_reflectance(p, e_c, energy):
    """R from the same float inputs (E_c included) in exact rational arithmetic."""
    half_gamma, detuning = Fraction(p.gamma_perp) / 2, Fraction(energy) - Fraction(p.delta)
    # g^2 / (gamma/2 - i d) = g^2 (gamma/2 + i d) / (gamma^2/4 + d^2)
    scale = Fraction(p.g_coll) ** 2 / (half_gamma**2 + detuning**2) if p.g_coll else Fraction(0)
    x = Fraction(p.kappa) / 2 + scale * half_gamma
    t = Fraction(e_c) - Fraction(energy) + scale * detuning
    shifted = x - Fraction(p.kappa_ext)
    return (shifted**2 + t**2) / (x**2 + t**2)


def test_reflectance_bounded_on_random_grids():
    for p, theta, energies in wide_draws():
        refl = reflectance_spectrum(p, theta, energies)
        assert np.all(refl >= 0.0) and np.all(refl <= 1.0)


def test_reflectance_map_shape_and_branch_order():
    p = d4_like(50.0, 30.0)
    rmap = compute_reflectance_map(p, np.linspace(0, 64, 9), np.linspace(2000, 2700, 21))
    assert rmap.r_values.shape == (9, 21)
    assert np.all(rmap.lp_branch.real <= rmap.up_branch.real + 1e-12)


def test_branches_match_per_angle_eigenvalues():
    # reference: the 2x2 non-Hermitian matrix diagonalised one angle at a time
    rng = np.random.default_rng(4)
    for _ in range(20):
        kappa = rng.uniform(1.0, 300.0)
        p = OpticalParams(
            e_c0=rng.uniform(1800, 2500), n_eff=rng.uniform(1.2, 3.0),
            delta=rng.uniform(1800, 2500), g_coll=rng.uniform(0, 50),
            kappa=kappa, kappa_ext=kappa / 2, gamma_perp=rng.uniform(0.1, 300),
        )
        thetas = np.linspace(0.0, 64.0, 33)
        rmap = compute_reflectance_map(p, thetas, np.linspace(1800, 2500, 5))
        split = []
        for k, theta in enumerate(thetas):
            e_c = cavity_dispersion(p, theta) - 0.5j * p.kappa
            matrix = np.array([[e_c, p.g_coll], [p.g_coll, p.delta - 0.5j * p.gamma_perp]])
            lo, hi = sorted(np.linalg.eigvals(matrix), key=lambda z: z.real)
            assert rmap.lp_branch[k] == pytest.approx(lo, rel=1e-12, abs=1e-9)
            assert rmap.up_branch[k] == pytest.approx(hi, rel=1e-12, abs=1e-9)
            split.append(hi.real - lo.real)
        got = minimum_branch_splitting(p, theta_max_deg=64.0)
        assert got <= min(split) + 1e-9
        # the minimum sits at E_c(theta) = delta, clipped to [0, 64] degrees
        sin_res = p.n_eff * np.sqrt(max(0.0, 1.0 - (p.e_c0 / p.delta) ** 2))
        theta_res = min(np.degrees(np.arcsin(min(sin_res, 1.0))), 64.0)
        e_c = cavity_dispersion(p, theta_res) - 0.5j * p.kappa
        matrix = np.array([[e_c, p.g_coll], [p.g_coll, p.delta - 0.5j * p.gamma_perp]])
        lo, hi = sorted(np.linalg.eigvals(matrix), key=lambda z: z.real)
        assert got == pytest.approx(hi.real - lo.real, abs=1e-9)


def test_reflectance_bound_is_checked_not_asserted():
    # a lossless bare cavity probed exactly at its mode gives 0/0 in R(E)
    p = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=0.0, kappa_ext=0.0, gamma_perp=30.0)
    with pytest.raises(InvalidValue, match="0/0"):
        reflectance_spectrum(p, 0.0, [2300.0])
    with pytest.raises(InvalidValue, match="0/0"):
        compute_reflectance_map(p, [10.0, 0.0], [2250.0, 2300.0])
    with pytest.raises(InvalidValue, match="energies must be finite"):
        compute_reflectance_map(p, [0.0], [2300.0, float("nan")])


def test_emitter_pole_on_the_grid_is_a_zero_linewidth():
    # gamma_perp = 0 and g != 0: the emitter term g^2 / (-i(E - delta)) has a
    # pole at E = delta, refused before any grid is built
    p = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                      kappa=134.0, kappa_ext=67.0, gamma_perp=0.0)
    tiny = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                         kappa=134.0, kappa_ext=67.0, gamma_perp=1e-307)  # g^2 / (gamma_perp/2) overflows
    for call in (lambda: reflectance_spectrum(p, 0.0, [2349.0, 2350.0]),
                 lambda: compute_reflectance_map(p, [0.0, 30.0], np.linspace(1900.0, 2800.0, 301)),
                 lambda: reflectance_spectrum(tiny, 0.0, [2350.0])):
        with pytest.raises(ZeroLinewidth, match="gamma_perp = (0.0|1e-307) meV.*2350.0 meV"):
            call()
    # off the pole a lossless emitter is fine, and without coupling there is no pole
    assert np.all(np.isfinite(reflectance_spectrum(p, 0.0, [2349.0, 2351.0])))
    bare = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                         kappa=134.0, kappa_ext=67.0, gamma_perp=0.0)
    assert reflectance_spectrum(bare, 0.0, [2350.0])[0] == pytest.approx(
        complex_reflectance(bare, 0.0, np.array([2350.0]))[0], abs=1e-15)


def test_reflectance_past_the_float_range_is_refused_without_a_warning():
    # R squares the emitter term (about g^2 / (gamma_perp/2) at E = delta) and
    # E_c - E, which can leave the float range while g_coll^2 and the energies
    # are finite; the edge rows decide it before the grid is built
    thetas, energies = np.linspace(0.0, 64.0, 9), np.linspace(1900.0, 2800.0, 31)
    cases = [
        (d4_like(134.0, 331.0, g_coll=1e79), energies, "'g_coll' = 1e\\+79 meV"),
        (d4_like(134.0, 331.0, g_coll=1e154), energies, "'g_coll' = 1e\\+154 meV"),
        (d4_like(134.0, 331.0), np.linspace(1900.0, 1e155, 31), "the energy 1e\\+155 meV"),
        (d4_like(134.0, 331.0), np.linspace(-1e200, 2800.0, 31), "the energy -1e\\+200 meV"),
        (d4_like(1e300, 331.0, g_coll=0.0), energies, "'kappa' = 1e\\+300 meV"),
        # kappa_ext = 0 times the overflowed kappa + 2 Re em is NaN
        (d4_like(1.7e308, 10.0, g_coll=1e154, kappa_ext=0.0), energies,
         "'kappa' = 1.7e\\+308 meV"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, grid, named in cases:
            with pytest.raises(InvalidValue, match=f"reflectance leaves the float range: {named}"):
                compute_reflectance_map(p, thetas, grid)
            with pytest.raises(InvalidValue, match=named):
                reflectance_spectrum(p, 30.0, grid)
        for g_coll in (1e70, 1e78):
            r_values = compute_reflectance_map(d4_like(134.0, 331.0, g_coll=g_coll), thetas, energies).r_values
            assert np.all((r_values >= 0.0) & (r_values <= 1.0))
        # critical coupling with a vanishing emitter term: (x - kappa_ext)^2 + t^2
        # is subnormal at E = E_c and k over it overflows to R = 0
        p = d4_like(134.0, 331.0, g_coll=1e-78)
        assert reflectance_spectrum(p, 0.0, [2300.0])[0] == 0.0


def test_an_emitter_term_past_the_float_range_names_g_coll_not_the_linewidth():
    # at E = delta the emitter term is g^2 / (gamma_perp/2) = 2e308 meV: g_coll, not
    # the ordinary 1 meV width, is at fault (the pole test keeps gamma_perp = 1e-307)
    p = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=1e154,
                      kappa=134.0, kappa_ext=67.0, gamma_perp=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: reflectance_spectrum(p, 0.0, [2000.0, 2350.0]),
                     lambda: compute_reflectance_map(p, [0.0, 30.0], [2350.0])):
            with pytest.raises(InvalidValue, match="reflectance leaves the float range: "
                                                   "'g_coll' = 1e\\+154 meV"):
                call()


@pytest.mark.parametrize("call, named", [
    # the mode would overflow at 60 deg, and OpticalParams allows any angle
    (lambda: cavity_dispersion(OpticalParams(1e308, 1.01, 2350.0, 11.0, 134.0, 67.0, 331.0),
                               60.0), "'e_c0' = 1e\\+308 meV"),
    (lambda: minimum_branch_splitting(d4_like(1e300, 331.0)), "'kappa' = 1e\\+300 meV"),
    # (e_c0 / delta)^2 for the resonant angle overflowed untyped before the branches
    (lambda: minimum_branch_splitting(OpticalParams(1e300, 1.8, 1.0, 11.0, 134.0, 67.0, 331.0)),
     "'e_c0' = 1e\\+300 meV"),
    (lambda: polariton_eigenmodes(d4_like(1e300, 331.0), 30.0), "'kappa' = 1e\\+300 meV"),
    (lambda: emission_fwhm(d4_like(1e308, 1e308), 30.0),
     "'kappa' \\+ 'gamma_perp' = 1e\\+308 \\+ 1e\\+308 meV"),
], ids=["dispersion", "branch_splitting", "resonant_angle", "eigenmodes", "emission_fwhm"])
def test_optics_past_the_float_range_names_the_parameter(call, named):
    # each input is finite but the model overflows: OpticalParams refuses the e_c0
    # case when built, and the model functions refuse the others
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValue, match=named):
            call()


def test_map_rows_are_the_single_angle_spectra_bitwise():
    thetas = np.linspace(0.0, 64.0, 129)
    for p, energies in scan_draws(5, 3):
        rmap = compute_reflectance_map(p, thetas, energies)
        for row, theta in zip(rmap.r_values, thetas):
            np.testing.assert_array_equal(row, reflectance_spectrum(p, theta, energies))


def test_map_matches_the_complex_formula():
    # the 1e-12 bound was fixed before the run (measured worst: 1.2e-14)
    thetas = np.linspace(0.0, 64.0, 33)
    worst = 0.0
    for p, energies in scan_draws(6, 200):
        rmap = compute_reflectance_map(p, thetas, energies)
        ref = np.array([complex_reflectance(p, theta, energies) for theta in thetas])
        worst = max(worst, float(np.abs(rmap.r_values - ref).max()))
    for p, theta, energies in wide_draws():
        rmap = compute_reflectance_map(p, [theta], energies)
        worst = max(worst, float(np.abs(rmap.r_values[0] - complex_reflectance(p, theta, energies)).max()))
    assert worst <= 1e-12


def test_dips_near_critical_coupling_keep_relative_accuracy():
    # kappa_ext = x(E0) at one grid energy E0 (critical coupling there), so R
    # falls towards 0 near E_c(theta) + Im em = E0; the 20 deepest cells of
    # each map are compared with exact rational arithmetic.  The 1e-11
    # relative bound was fixed before the run (measured worst: 1.3e-14; the
    # complex formula |1 - kappa_ext/D|^2 reaches 4.2e-13 on the same cells)
    thetas = np.linspace(0.0, 64.0, 129)
    rng = np.random.default_rng(7)
    worst = 0.0
    for p, energies in scan_draws(8, 12):
        re_em = (p.g_coll**2 / (0.5 * p.gamma_perp - 1j * (energies - p.delta))).real
        e0 = rng.choice(np.flatnonzero(re_em < 0.5 * p.kappa))
        for g_coll, kappa_ext in ((p.g_coll, 0.5 * p.kappa + re_em[e0]), (0.0, 0.5 * p.kappa)):
            crit = dataclasses.replace(p, g_coll=g_coll, kappa_ext=kappa_ext)
            r_values = compute_reflectance_map(crit, thetas, energies).r_values
            e_c = cavity_dispersion(crit, thetas)
            for cell in np.argsort(r_values, axis=None)[:20]:
                i, j = divmod(int(cell), len(energies))
                ref = exact_reflectance(crit, e_c[i], energies[j])
                worst = max(worst, float(abs(Fraction(float(r_values[i, j])) - ref) / ref))
    assert worst <= 1e-11


def test_map_holds_one_grid_at_its_peak():
    # the result is the only grid-sized array; the 1.5-grid bound was fixed
    # before the run (measured: 1.13 grids)
    p = OpticalParams(2300.0, 1.8, 2350.0, 11.0, 134.0, 67.0, 331.0)
    thetas, energies = np.linspace(0.0, 64.0, 129), np.linspace(1750.0, 2950.0, 1201)
    compute_reflectance_map(p, thetas, energies)
    tracemalloc.start()
    try:
        rmap = compute_reflectance_map(p, thetas, energies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rmap.r_values.nbytes


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", ["e_c0", "n_eff", "delta", "g_coll", "kappa", "kappa_ext", "gamma_perp"]
)
def test_optical_params_reject_non_finite(name, bad):
    fields = dict(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                  kappa=134.0, kappa_ext=67.0, gamma_perp=331.0)
    fields[name] = bad
    with pytest.raises(InvalidValue, match=name):
        OpticalParams(**fields)


def test_optical_params_reject_a_coupling_without_a_finite_square():
    fields = dict(e_c0=2300.0, n_eff=1.8, delta=2350.0, kappa=134.0, kappa_ext=67.0, gamma_perp=331.0)
    with pytest.raises(InvalidValue, match="'g_coll' = 1e\\+200 meV has no finite square"):
        OpticalParams(g_coll=1e200, **fields)
    assert OpticalParams(g_coll=1e150, **fields).g_coll == 1e150


@pytest.mark.parametrize("name, value, message", [
    ("gamma_perp", -1.0, "linewidths and coupling must be >= 0"),
    ("g_coll", -1.0, "linewidths and coupling must be >= 0"),
    ("e_c0", -2300.0, "energies must be > 0"),
    ("delta", 0.0, "energies must be > 0"),
])
def test_optical_params_reject_a_negative_linewidth_or_energy(name, value, message):
    fields = dict(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                  kappa=134.0, kappa_ext=67.0, gamma_perp=331.0)
    with pytest.raises(InvalidValue, match=f"^{message}$"):
        OpticalParams(**{**fields, name: value})


def test_emission_fwhm_needs_a_cavity_linewidth():
    with pytest.raises(ZeroLinewidth, match="needs gamma_perp > 0 and kappa > 0"):
        emission_fwhm(d4_like(0.0, 331.0), 20.0)


@pytest.mark.parametrize("thetas, energies", [
    (np.zeros((2, 3)), np.linspace(2000.0, 2500.0, 5)),
    (10.0, np.linspace(2000.0, 2500.0, 5)),
    (np.zeros(3), 2100.0),
    (np.zeros(3), np.full((2, 2), 2100.0)),
], ids=["2d_angles", "one_angle", "one_energy", "2d_energies"])
def test_a_reflectance_map_needs_1d_grids(thetas, energies):
    # the grids set the map's shape, (len(thetas), len(energies))
    with pytest.raises(InvalidValue, match="grids must be 1-D"):
        compute_reflectance_map(d4_like(134.0, 331.0), thetas, energies)


def test_a_grid_that_runs_out_of_memory_is_a_dimension_cap(monkeypatch):
    # the allocation is refused as numpy refuses one past the machine's memory,
    # without making it: a 200000 x 200000 grid would need 320 GB
    denominator = optics._denominator

    def refusing(e_c, energies, *args):
        if e_c.size * energies.size > 10**9:
            raise MemoryError(f"Unable to allocate {8 * e_c.size * energies.size} bytes")
        return denominator(e_c, energies, *args)

    monkeypatch.setattr(optics, "_denominator", refusing)
    with pytest.raises(DimensionCap) as err:
        compute_reflectance_map(d4_like(KAPPA_BROAD, GAMMA_BROAD), np.linspace(0.0, 64.0, 200000),
                                np.linspace(1900.0, 2800.0, 200000))
    assert "200000 x 200000" in str(err.value)
    assert "320000000000 bytes" in str(err.value)
    assert isinstance(err.value.__cause__, MemoryError)


def test_emission_fwhm_transparent_cavity():
    p = d4_like(1e6 * 20.0, 20.0, g_coll=0.0, kappa_ext=0.0)
    # put the cavity exactly on the emitter to stay inside the guard
    p = OpticalParams(e_c0=p.delta, n_eff=1.8, delta=p.delta, g_coll=0.0,
                      kappa=1e6 * 20.0, kappa_ext=0.0, gamma_perp=20.0)
    _, width = emission_fwhm(p, 0.0)
    assert width == pytest.approx(20.0, rel=0.01)


def test_emission_fwhm_matched_lorentzians_closed_form():
    # product of two identical Lorentzians halves at gamma * sqrt(sqrt(2) - 1)
    gamma = 17.0
    p = OpticalParams(e_c0=2350.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=gamma, kappa_ext=gamma / 2, gamma_perp=gamma)
    center, width = emission_fwhm(p, 0.0)
    assert center == pytest.approx(2350.0, abs=1e-6)
    assert width == pytest.approx(gamma * np.sqrt(np.sqrt(2.0) - 1.0), rel=1e-3)


@pytest.mark.parametrize("ratio", np.logspace(-6.0, 6.0, 25))
def test_emission_fwhm_concentric_lines_closed_form(ratio):
    # E_c = delta: half maximum where (x^2 + a^2)(x^2 + b^2) = 2 a^2 b^2, i.e.
    # x^2 = y = (-(a^2 + b^2) + sqrt((a^2 + b^2)^2 + 4 a^2 b^2)) / 2, written
    # here without the cancellation that form suffers at extreme ratios
    gamma = 20.0
    kappa = gamma * ratio
    p = OpticalParams(e_c0=2350.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=kappa, kappa_ext=kappa / 2, gamma_perp=gamma)
    a2, b2 = (gamma / 2) ** 2, (kappa / 2) ** 2
    y = 2 * a2 * b2 / (a2 + b2 + np.sqrt((a2 + b2) ** 2 + 4 * a2 * b2))
    center, width = emission_fwhm(p, 0.0)
    assert center == pytest.approx(2350.0, abs=1e-9 * (kappa + gamma))
    assert width == pytest.approx(2 * np.sqrt(y), rel=1e-9)


def test_emission_fwhm_double_peak_takes_nearest_crossings():
    # kappa = gamma_perp = 10 with the cavity 50 meV above the emitter: two tied
    # peaks at delta + 25 +- sqrt(600), each with half maximum at
    # u^2 = 600 -+ 250 about delta + 25, below the dip between them
    p = OpticalParams(e_c0=2400.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=10.0, kappa_ext=5.0, gamma_perp=10.0)
    center, width = emission_fwhm(p, 0.0)
    assert abs(center - 2375.0) == pytest.approx(np.sqrt(600.0), abs=1e-9)
    assert width == pytest.approx(np.sqrt(850.0) - np.sqrt(350.0), rel=1e-9)


def test_emission_fwhm_narrows_broad_emitter():
    # a ~331 meV emitter line filtered by a ~134 meV cavity comes out narrower
    # than the cavity linewidth itself
    p = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=KAPPA_BROAD, kappa_ext=KAPPA_BROAD / 2, gamma_perp=GAMMA_BROAD)
    _, width = emission_fwhm(p, resonant_angle(p))
    assert width < KAPPA_BROAD < GAMMA_BROAD


def test_emission_peak_not_found_when_far_separated():
    p = OpticalParams(e_c0=1000.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=5.0, kappa_ext=2.5, gamma_perp=5.0)
    with pytest.raises(PeakNotFound):
        emission_fwhm(p, 0.0)


def polyroots_emission_fwhm(p, theta_deg):
    """Peak and FWHM of emission_fwhm's quartic by numpy's polynomial helpers:
    np.roots of P' for the peak, np.roots of P(x_peak + y) - 2 P(x_peak) for the
    crossings.  The separation check is left to emission_fwhm."""
    widths = p.kappa + p.gamma_perp
    a, b = 0.5 * p.gamma_perp / widths, 0.5 * p.kappa / widths
    c = (cavity_dispersion(p, theta_deg) - p.delta) / widths

    def quartic(x0):
        return np.convolve([1.0, 2.0 * x0, x0**2 + a**2], [1.0, 2.0 * (x0 - c), (x0 - c) ** 2 + b**2])

    poly = quartic(0.0)
    stationary = np.roots(np.polyder(poly)).real
    x_peak = stationary[np.argmin(np.polyval(poly, stationary))]
    half = quartic(x_peak)
    half[-1] = -half[-1]
    roots = np.roots(half)
    offsets = roots[roots.imag == 0].real
    width = offsets[offsets > 0].min() - offsets[offsets < 0].max()
    return float(p.delta + x_peak * widths), float(width * widths)


def fwhm_cases():
    """(params, angle) over the benchmark's ranges, over kappa, gamma_perp in
    [1, 350] meV, at exact resonance (c = 0) for kappa/gamma_perp = 1e-6 ... 1e6
    and just off it, and on double-peaked lines."""
    for p, _ in scan_draws(9, 150):
        for theta in np.linspace(0.0, 30.0, 7):
            yield p, float(theta)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        kappa = rng.uniform(1.0, 350.0)
        p = OpticalParams(e_c0=rng.uniform(2200.0, 2400.0), n_eff=rng.uniform(1.5, 2.2),
                          delta=rng.uniform(2250.0, 2450.0), g_coll=0.0, kappa=kappa,
                          kappa_ext=kappa / 2, gamma_perp=rng.uniform(1.0, 350.0))
        yield p, float(rng.uniform(0.0, 30.0))
    for ratio in np.logspace(-6.0, 6.0, 25):
        for e_c0 in (2350.0, 2349.5):
            yield OpticalParams(e_c0=e_c0, n_eff=1.8, delta=2350.0, g_coll=0.0, kappa=20.0 * ratio,
                                kappa_ext=10.0 * ratio, gamma_perp=20.0), 0.0
    for detuning in (30.0, 50.0, 75.0, 90.0):
        for kappa in (8.0, 10.0, 12.0):
            yield OpticalParams(e_c0=2350.0 + detuning, n_eff=1.8, delta=2350.0, g_coll=0.0,
                                kappa=kappa, kappa_ext=kappa / 2, gamma_perp=10.0), 0.0


def test_emission_fwhm_matches_the_polynomial_root_form():
    # the 1e-12 relative bound was fixed before the run
    worst, compared = 0.0, 0
    for p, theta in fwhm_cases():
        try:
            got = emission_fwhm(p, theta)
        except PeakNotFound:
            separation = abs(cavity_dispersion(p, theta) - p.delta)
            assert separation > 10.0 * (p.kappa + p.gamma_perp)
            continue
        want = polyroots_emission_fwhm(p, theta)
        worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(got, want)))
        compared += 1
    assert compared >= 2000
    assert worst <= 1e-12


def test_emission_fwhm_refuses_anything_but_one_angle():
    p = OpticalParams(e_c0=2350.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=10.0, kappa_ext=5.0, gamma_perp=20.0)
    for bad in ([0.0], np.array([5.0]), [0.0, 5.0], [[1.0], [1.0, 2.0]], "abc"):
        with pytest.raises(InvalidValue, match="theta_deg must be one angle"):
            emission_fwhm(p, bad)
    assert emission_fwhm(p, np.array(5.0)) == emission_fwhm(p, 5) == emission_fwhm(p, np.float32(5.0))
    with pytest.raises(AngleOutOfRange):
        emission_fwhm(p, float("nan"))


@pytest.mark.parametrize("gamma_perp, kappa", [(1e-300, 1.0), (1.0, 1e-300)])
def test_emission_line_narrower_than_the_float_grid_has_no_crossings(gamma_perp, kappa):
    # a^2 or b^2 underflows, so P(peak) = 0 and every crossing of P - 2 P(peak)
    # sits at the peak itself: no side has a crossing
    p = OpticalParams(e_c0=2350.0, n_eff=1.8, delta=2350.0, g_coll=0.0,
                      kappa=kappa, kappa_ext=kappa / 2, gamma_perp=gamma_perp)
    with pytest.raises(PeakNotFound, match="no half-maximum crossing"):
        emission_fwhm(p, 0.0)


def test_coherence_length_values():
    assert coherence_length(527.0, 30.0) == pytest.approx(9.2576, abs=1e-3)
    assert coherence_length(500.0, 50.0) == pytest.approx(5.0)


def test_coherence_length_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = rng.uniform(300, 900)
        dlam = rng.uniform(1, 100)
        l_um = coherence_length(lam, dlam)
        assert l_um * 1000.0 * dlam / lam**2 == pytest.approx(1.0, rel=1e-12)


def test_coherence_length_guards():
    with pytest.raises(ZeroLinewidth):
        coherence_length(527.0, 0.0)
    with pytest.raises(ValueError):
        coherence_length(0.0, 10.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 1])
def test_coherence_length_refuses_a_non_finite_argument(value, at):
    # unchecked, a nan wavelength read nan and an infinite width read 0.0
    args = [527.0, 30.0]
    args[at] = value
    with pytest.raises(InvalidValue, match="must be finite"):
        coherence_length(*args)


def test_coupling_scaling_fit():
    ns = np.array([100, 300, 1000, 3000, 10000])
    assert fit_coupling_scaling(list(zip(ns, 0.11 * np.sqrt(ns)))) == pytest.approx(0.5, abs=1e-9)
    assert fit_coupling_scaling([(10, 4.0), (100, 4.0), (1000, 4.0)]) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(3)
    noisy = 0.11 * np.sqrt(ns) * np.exp(rng.normal(0, 0.05, len(ns)))
    assert abs(fit_coupling_scaling(list(zip(ns, noisy))) - 0.5) <= 0.05
    with pytest.raises(InsufficientPoints):
        fit_coupling_scaling([(10, 1.0)])
