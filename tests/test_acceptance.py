"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report inline; tolerances and runtime budgets are asserted, not just printed.
"""

import time

import numpy as np
import pytest

from conftest import (
    cutoff_safe_product_state,
    exact_moment_derivatives,
    moment_vector,
    random_density_matrix,
    random_hermitian,
    random_params,
    regression_params,
)
from superrad.cumulant import (
    MomentState,
    integrate_to_steady_state,
    moment_rhs,
    photon_flux_cumulant,
)
from reference_liouvillian import (
    dense_expectation,
    expand,
    full_space_evolution,
    kron_liouvillian,
    symmetric_state,
)
from superrad.exact import (
    HilbertConfig,
    SymmetricState,
    build_symmetric_liouvillian,
    expectation,
    g2_zero_converged,
    photon_flux_exact,
    steady_state_exact,
    time_evolve,
    trace_distance,
)
from superrad.optics import (
    OpticalParams,
    cavity_dispersion,
    coherence_length,
    minimum_branch_splitting,
    polariton_eigenmodes,
    reflectance_spectrum,
)
from superrad.params import SystemParams, per_emitter_coupling
from superrad.sweep import SweepSpec, fit_power_law, run_concentration_sweep, synth_power_law
from superrad.units import fwhm_mev_from_nm


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {name}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_oracle_steady_state():
    started = time.monotonic()
    worst_residual, worst_distance = 0.0, 0.0
    evolved = []
    for n_em in (1, 2, 3):
        for omega in (0.1, 1.0):
            p = regression_params(n_em, omega=omega)
            h = HilbertConfig(3, n_em)
            liou = build_symmetric_liouvillian(p, h, frame="rotating")
            rho_ss = steady_state_exact(liou)
            residual = float(np.abs(liou.matrix @ rho_ss.mat).max())
            rho_t = time_evolve(liou, SymmetricState.vacuum(h), 120.0)
            distance = trace_distance(rho_ss, rho_t)
            worst_residual = max(worst_residual, residual)
            worst_distance = max(worst_distance, distance)
            evolved.append((p, h, rho_t))
    elapsed = time.monotonic() - started
    # the evolved state is the kron reference's full-space evolution, expanded;
    # at N=2, since one dense exponential of the N=3 full space takes 2.5 s
    expansion_error = 0.0
    for p, h, rho_t in evolved[2:4]:
        vacuum = np.zeros((h.dim, h.dim))
        vacuum[0, 0] = 1.0
        full = full_space_evolution(kron_liouvillian(p, h, "rotating"), vacuum, 120.0)
        expansion_error = max(expansion_error, float(np.abs(expand(rho_t) - full).max()))
    ok = (worst_residual <= 1e-10 and worst_distance <= 1e-7 and elapsed < 10.0
          and expansion_error <= 1e-12)
    _criterion(1, "oracle steady state", ok,
               f"residual {worst_residual:.2e}, trace distance {worst_distance:.2e}, "
               f"{elapsed:.1f}s, full-space evolution {expansion_error:.2e}")


def test_criterion_02_analytic_fixed_point():
    p = SystemParams(1, 2350.0, 2350.0, 0.0, 1.0, 1.0, 3.0, 0.0)
    h = HilbertConfig(2, 1)
    rho = steady_state_exact(build_symmetric_liouvillian(p, h))
    population = (1.0 + expectation(rho, "sigma_z").real) / 2.0
    ok = abs(population - 0.25) <= 1e-9
    _criterion(2, "analytic rate-equation fixed point", ok, f"<s+s-> = {population!r}")


def test_criterion_03_product_state_derivative_equality():
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    for n_em in (2, 3):
        for _ in range(12):
            h = HilbertConfig(int(rng.integers(3, 6)), n_em)
            p = random_params(rng, n_em)
            rho, m = cutoff_safe_product_state(rng, h)
            exact = exact_moment_derivatives(p, h, rho)
            approx = moment_vector(moment_rhs(p, m))
            scale = max(1.0, np.abs(exact).max())
            worst = max(worst, float(np.abs(approx - exact).max() / scale))
            count += 1
    ok = worst <= 1e-8 and count >= 20
    _criterion(3, "product-state derivative equality", ok,
               f"{count} states, worst componentwise rel err {worst:.2e}")


def test_criterion_04_cumulant_oracle_flux_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    draws = 0
    for n_em in (2, 3):
        for _ in range(3):
            g = rng.uniform(0.8, 2.0)
            kappa = g * np.sqrt(n_em) * rng.uniform(10.0, 16.0)  # kappa >= 10 g sqrt(N)
            delta = rng.uniform(500.0, 2500.0)
            p = SystemParams(n_em, delta, delta, g, kappa,
                             rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3),
                             rng.uniform(0.0, 1.0))
            flux_e = photon_flux_exact(p, HilbertConfig(3, n_em), frame="rotating")
            flux_c = photon_flux_cumulant(p)
            worst = max(worst, abs(flux_c - flux_e) / flux_e)
            draws += 1
    elapsed = time.monotonic() - started
    ok = worst <= 0.10 and draws >= 5 and elapsed < 60.0
    _criterion(4, "cumulant vs oracle flux in the leaky-cavity regime", ok,
               f"{draws} draws, worst rel dev {worst:.3f}, {elapsed:.1f}s")


def _sweep_base():
    return SystemParams(n_emitters=1, delta=2350.0, delta_c=2350.0, g=0.11,
                        kappa=134.0, omega=3e-4, gamma_minus=0.3, gamma_z=0.5)


def test_criterion_05_scaling_bounds():
    started = time.monotonic()
    fits = {}
    for rule in ("scaled", "fixed"):
        spec = SweepSpec(n_values=(100, 1000, 10000), drive_rule=rule,
                         base_params=_sweep_base(), gamma_r=1e-3)
        rows = run_concentration_sweep(spec)
        fits[rule] = fit_power_law([(r.n, r.ratio) for r in rows])
    elapsed = time.monotonic() - started
    alpha_s, alpha_f = fits["scaled"].alpha, fits["fixed"].alpha
    ok = -0.05 <= alpha_s <= 1.05 and alpha_f < alpha_s and elapsed < 60.0
    _criterion(5, "enhancement exponent window and drive-scaling contrast", ok,
               f"alpha scaled {alpha_s:+.3f}, fixed {alpha_f:+.3f}, {elapsed:.1f}s")


def test_criterion_06_correlator_scaling():
    omega, g_coll = 2.0, 11.0
    scaled = []
    for n_em in (100, 1000, 10000):
        p = SystemParams(n_em, 2350.0, 2350.0, per_emitter_coupling(g_coll, n_em),
                         134.0, omega, 1.0, 10.0)
        m = integrate_to_steady_state(p)
        scaled.append(m.x_pm.real * n_em / omega)
    spread = max(scaled) / min(scaled)
    ok = all(v > 0 for v in scaled) and spread <= 2.0
    _criterion(6, "two-body correlator tracks pump/N", ok,
               f"x*N/omega = {[f'{v:.4g}' for v in scaled]}, spread x{spread:.2f}")


def test_criterion_07_polariton_splitting_and_unresolved_dip():
    # resolved regime: linewidth difference below 10 meV
    worst_dev = 0.0
    for kappa, gamma in ((20.0, 20.0), (25.0, 15.0), (15.0, 25.0)):
        p = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                          kappa=kappa, kappa_ext=kappa / 2, gamma_perp=gamma)
        split = minimum_branch_splitting(p)
        worst_dev = max(worst_dev, abs(split - 20.0) / 20.0)
    # leaky regime: broad lines leave a single reflectance minimum
    kappa_broad = fwhm_mev_from_nm(527.0, 30.0)
    p_broad = OpticalParams(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0,
                            kappa=kappa_broad, kappa_ext=kappa_broad / 2,
                            gamma_perp=fwhm_mev_from_nm(530.0, 75.0))
    thetas = np.linspace(0.0, 64.0, 6401)
    disp = np.array([cavity_dispersion(p_broad, t) for t in thetas])
    theta_res = float(thetas[np.argmin(np.abs(disp - p_broad.delta))])
    energies = np.linspace(1900.0, 2800.0, 4001)
    refl = reflectance_spectrum(p_broad, theta_res, energies)
    interior = (refl[1:-1] < refl[:-2]) & (refl[1:-1] < refl[2:])
    n_minima = int(interior.sum())
    ok = worst_dev <= 0.15 and n_minima == 1
    _criterion(7, "polariton splitting and unresolved leaky-cavity dip", ok,
               f"worst splitting dev {worst_dev:.1%}, minima at resonance: {n_minima}")


def test_criterion_08_coherence_length():
    value = coherence_length(527.0, 30.0)
    ok = abs(value - 9.26) <= 0.01 and value < 10.0
    _criterion(8, "coherence length", ok, f"{value:.4f} um")


def test_criterion_09_photon_statistics_trend():
    started = time.monotonic()
    p1 = SystemParams(1, 2350.0, 2350.0, 5.0, 50.0, 0.01, 0.1, 1.0)
    g2_single, _ = g2_zero_converged(p1, HilbertConfig(3, 1), frame="rotating")
    p3 = SystemParams(3, 2350.0, 2350.0, 5.0, 100.0, 4.5, 0.1, 1.0)
    g2_collective, _ = g2_zero_converged(p3, HilbertConfig(3, 3), frame="rotating")
    elapsed = time.monotonic() - started
    ok = g2_single < 0.5 and 0.8 < g2_collective < 1.5 and elapsed < 120.0
    _criterion(9, "photon statistics: antibunched single, near-coherent ensemble", ok,
               f"g2(N=1) = {g2_single:.3f}, g2(N=3) = {g2_collective:.3f}, {elapsed:.1f}s")


def test_criterion_10_fit_recovery():
    n_grid = np.logspace(2.0, 4.0, 12)
    worst_clean = 0.0
    for alpha in (0.0, 0.25, 0.5, 1.0):
        fit = fit_power_law(list(zip(n_grid, 2.0 * n_grid**alpha)))
        worst_clean = max(worst_clean, abs(fit.alpha - alpha))
    rng = np.random.default_rng(20260808)
    alphas, rmsds = [], []
    for _ in range(100):
        ratios = synth_power_law(n_grid, 0.25, 1.0, 0.12, rng)
        fit = fit_power_law(list(zip(n_grid, ratios)))
        alphas.append(fit.alpha)
        rmsds.append(fit.rmsd)
    alpha_dev = float(np.abs(np.array(alphas) - 0.25).max())
    rmsd_mean = float(np.mean(rmsds))
    ok = worst_clean <= 1e-9 and alpha_dev <= 0.1 and abs(rmsd_mean - 0.12) <= 0.03
    _criterion(10, "power-law fit recovery", ok,
               f"clean dev {worst_clean:.1e}, noisy max dev {alpha_dev:.3f}, "
               f"mean rmsd {rmsd_mean:.3f}")


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(1234)

    # trace preservation on random states, averaged onto the symmetric unknowns
    worst_trace = 0.0
    for _ in range(100):
        n_em = int(rng.integers(1, 4))
        h = HilbertConfig(int(rng.integers(1, 3)), n_em)
        liou = build_symmetric_liouvillian(random_params(rng, n_em), h)
        u = symmetric_state(random_density_matrix(rng, h.dim), h).mat
        worst_trace = max(worst_trace, abs(liou.pattern.trace_weights @ (liou.matrix @ u)))

    # Hermiticity preservation
    worst_herm = 0.0
    for _ in range(100):
        n_em = int(rng.integers(1, 3))
        h = HilbertConfig(2, n_em)
        liou = build_symmetric_liouvillian(random_params(rng, n_em), h)
        out = liou.matrix @ symmetric_state(random_hermitian(rng, h.dim), h).mat
        worst_herm = max(worst_herm, float(np.abs(out - out[liou.pattern.adjoint].conj()).max()))

    # permutation symmetry: the full-space generator keeps <sz_i> identical on
    # symmetric states, which lets the exact route keep only symmetric unknowns
    worst_perm = 0.0
    h2 = HilbertConfig(2, 2)
    swap = np.zeros((h2.dim, h2.dim))
    for f in range(h2.n_max + 1):
        for s0 in range(2):
            for s1 in range(2):
                swap[f * 4 + s1 * 2 + s0, f * 4 + s0 * 2 + s1] = 1.0
    for _ in range(100):
        ref = kron_liouvillian(random_params(rng, 2), h2)
        raw = random_density_matrix(rng, h2.dim)
        sym = (raw + swap @ raw @ swap.T) / 2
        sym /= np.trace(sym).real
        drho = (ref @ sym.reshape(-1, order="F")).reshape(sym.shape, order="F")
        worst_perm = max(worst_perm, abs(dense_expectation(drho, "sigma_z", h2, 0)
                                         - dense_expectation(drho, "sigma_z", h2, 1)))
    # and along a full evolution for a few draws
    for _ in range(5):
        ref = kron_liouvillian(random_params(rng, 2, delta_scale=5.0), h2)
        raw = random_density_matrix(rng, h2.dim)
        sym = (raw + swap @ raw @ swap.T) / 2
        rho_t = full_space_evolution(ref, sym / np.trace(sym).real, 1.0)
        worst_perm = max(worst_perm, abs(dense_expectation(rho_t, "sigma_z", h2, 0)
                                         - dense_expectation(rho_t, "sigma_z", h2, 1)))

    # excitation conservation under dephasing-only dynamics:
    # <a'a + sum s+s-> = <a'a> + (N/2)(<sz_0> + Tr rho) on a symmetric state
    worst_exc = 0.0
    for _ in range(100):
        p = SystemParams(2, rng.uniform(1, 10), rng.uniform(1, 10),
                         rng.uniform(0, 5), 0.0, 0.0, 0.0, rng.uniform(0.1, 3))
        liou = build_symmetric_liouvillian(p, h2)
        du = liou.matrix @ symmetric_state(random_density_matrix(rng, h2.dim), h2).mat
        drho = SymmetricState(du, h2)
        d_excitation = expectation(drho, "photon_number") + h2.n_emitters / 2 * (
            expectation(drho, "sigma_z") + liou.pattern.trace_weights @ du)
        worst_exc = max(worst_exc, abs(d_excitation))

    # reflectance bounds and eigenvalue trace identity
    bounds_ok, worst_eig = True, 0.0
    for _ in range(100):
        kappa = rng.uniform(0.5, 300)
        p = OpticalParams(
            e_c0=rng.uniform(1800, 2500), n_eff=rng.uniform(1.2, 3.0),
            delta=rng.uniform(1800, 2500), g_coll=rng.uniform(0, 40),
            kappa=kappa, kappa_ext=rng.uniform(0, kappa),
            gamma_perp=rng.uniform(0.5, 300),
        )
        theta = rng.uniform(0, 85)
        refl = reflectance_spectrum(p, theta, rng.uniform(1000, 3500, size=40))
        bounds_ok = bounds_ok and bool(np.all(refl >= 0) and np.all(refl <= 1.0))
        lp, up = polariton_eigenmodes(p, theta)
        trace = (cavity_dispersion(p, theta) - 0.5j * p.kappa) + (p.delta - 0.5j * p.gamma_perp)
        worst_eig = max(worst_eig, abs(lp + up - trace) / abs(trace))

    ok = (worst_trace <= 1e-10 and worst_herm <= 1e-10 and worst_perm <= 1e-9
          and worst_exc <= 1e-8 and bounds_ok and worst_eig <= 1e-10)
    _criterion(11, "randomized invariant suite", ok,
               f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, perm {worst_perm:.1e}, "
               f"excitation {worst_exc:.1e}, reflectance in [0,1]: {bounds_ok}, "
               f"eigen trace {worst_eig:.1e}")
