"""Shared fixtures and oracle helpers for the test suite."""

import numpy as np
import pytest

from reference_liouvillian import symmetric_state
from superrad.cumulant import MomentState
from superrad.exact import SymmetricState, build_symmetric_liouvillian, expectation
from superrad.params import SystemParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def regression_params(n_emitters, omega=1.0):
    """The small-N reference parameter set used throughout: resonant, leaky cavity."""
    return SystemParams(
        n_emitters=n_emitters, delta=2350.0, delta_c=2350.0,
        g=5.0, kappa=50.0, omega=omega, gamma_minus=0.1, gamma_z=1.0,
    )


def random_params(rng, n_emitters, delta_scale=20.0):
    """Random valid parameters with energies small enough for tight absolute tolerances."""
    return SystemParams(
        n_emitters=n_emitters,
        delta=rng.uniform(0.5, delta_scale),
        delta_c=rng.uniform(0.5, delta_scale),
        g=rng.uniform(0.0, 8.0),
        kappa=rng.uniform(0.0, 30.0),
        omega=rng.uniform(0.0, 5.0),
        gamma_minus=rng.uniform(0.0, 5.0),
        gamma_z=rng.uniform(0.0, 5.0),
    )


def synth_power_law(n_values, alpha, prefactor, sigma, rng):
    """Planted power law with multiplicative log-normal noise of ln-std sigma."""
    n_arr = np.asarray(n_values, dtype=float)
    ratios = prefactor * n_arr**alpha
    if sigma > 0:
        ratios = ratios * np.exp(rng.normal(0.0, sigma, size=n_arr.shape))
    return ratios


def random_density_matrix(rng, dim):
    """Random full-rank valid d x d state: normalized A A^+ with complex Gaussian A."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def cutoff_safe_product_state(rng, h):
    """Uncorrelated product state whose top two Fock levels are empty.

    A diagonal field state tensor identical diagonal emitter states carries
    no coherences, so all first moments <a>, <s-> vanish and every pair
    moment factorizes.  Keeping the top of the photon ladder unpopulated
    makes the truncated a, a' act exactly, so moment derivatives computed on
    the truncated space equal their infinite-ladder values.
    """
    probs = np.zeros(h.n_max + 1)
    probs[: h.n_max - 1] = rng.dirichlet(np.ones(h.n_max - 1))
    p_excited = rng.uniform(0.0, 1.0)
    rho = np.diag(probs)
    for _ in range(h.n_emitters):
        rho = np.kron(rho, np.diag([1.0 - p_excited, p_excited]))
    n_mean = float(np.arange(h.n_max + 1) @ probs)
    moments = MomentState.product(n_mean, 2.0 * p_excited - 1.0)
    return symmetric_state(rho, h), moments


def exact_moment_derivatives(p, h, rho):
    """d/dt of (n, s, Re c, Im c, Re x, Im x, z) at the symmetric state rho, from the exact L."""
    drho = SymmetricState(build_symmetric_liouvillian(p, h).matrix @ rho.mat, h)
    dn = expectation(drho, "photon_number")
    ds = expectation(drho, "sigma_z")
    dc = expectation(drho, "field_coherence")
    if h.n_emitters >= 2:
        dx = expectation(drho, "cross_pm")
        dz = expectation(drho, "cross_zz")
    else:
        dx, dz = 0j, 0j
    return np.array([dn.real, ds.real, dc.real, dc.imag, dx.real, dx.imag, dz.real])


def moment_vector(d: MomentState):
    return np.array([d.n_photon, d.s_z, d.coh.real, d.coh.imag,
                     d.x_pm.real, d.x_pm.imag, d.z_zz])
