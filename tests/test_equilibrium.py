import math

import numpy as np
import pytest

from fermibolt.velocity import build_velocity_grid, integrate
from fermibolt.equilibrium import (
    SaturationError,
    fermi_profile,
    global_equilibrium,
    project,
    solve_kappa_many,
)

import _bruteforce as bf

# rho(kappa) = integral of kappa M / (1 + kappa M) over the line,
# evaluated with adaptive quadrature and frozen here; the L = 8,
# N = 256 lattice reproduces these to near machine precision.
RHO_CONTINUUM = {
    0.5: 0.43927771992204,
    1.0: 0.7863594429605121,
    2.0: 1.3091042743975398,
    3.7: 1.9074482627644596,
}


def density_of_kappa(kappa, grid):
    return integrate(fermi_profile(kappa, grid), grid)


def solve_kappa(target, grid):
    """The kappa of one target density, a one-element batch."""
    return float(solve_kappa_many(np.array([target]), grid)[0][0])


@pytest.fixture(scope="module")
def fine_grid():
    return build_velocity_grid(1, 8.0, 256)


@pytest.fixture(scope="module")
def grid():
    return build_velocity_grid(1, 8.0, 64)


def test_density_matches_continuum_values(fine_grid):
    for kappa, rho in RHO_CONTINUUM.items():
        assert math.isclose(density_of_kappa(kappa, fine_grid), rho, rel_tol=1e-9)


def test_density_strictly_increasing(grid):
    kappas = np.logspace(-3.0, 3.0, 61)
    rhos = density_of_kappa(kappas, grid)
    assert np.all(np.diff(rhos) > 0.0)


def test_density_limits(grid):
    saturation = float(np.sum(grid.weights))
    assert density_of_kappa(1e-12, grid) < 1e-10
    assert density_of_kappa(1e6, grid) < saturation
    assert density_of_kappa(1e6, grid) > density_of_kappa(1e2, grid)


def test_fermi_profile_shapes(grid):
    single = fermi_profile(2.0, grid)
    assert single.shape == (64,)
    assert np.all((single > 0.0) & (single < 1.0))
    many = fermi_profile(np.array([0.5, 1.0, 2.0]), grid)
    assert many.shape == (3, 64)
    assert np.allclose(many[2], single, rtol=0.0, atol=0.0)


def test_solve_kappa_round_trip(grid):
    target = density_of_kappa(3.7, grid)
    kappa = solve_kappa(target, grid)
    assert math.isclose(kappa, 3.7, rel_tol=1e-11)


def test_solve_kappa_against_continuum_oracle(fine_grid):
    kappa = solve_kappa(RHO_CONTINUUM[1.0], fine_grid)
    assert math.isclose(kappa, 1.0, rel_tol=1e-7)


def test_solve_kappa_against_bisection_oracle(grid):
    rng = np.random.default_rng(11)
    targets = rng.uniform(0.1, 2.0, size=8)
    for target in targets:
        fast = solve_kappa(target, grid)
        slow = bf.bf_kappa_from_density(target, grid)
        assert math.isclose(fast, slow, rel_tol=1e-10)


def test_solve_kappa_many_batch_equals_one_element_batches(grid):
    rng = np.random.default_rng(12)
    targets = rng.uniform(0.05, 3.0, size=32)
    many, _ = solve_kappa_many(targets, grid)
    for target, kappa in zip(targets, many):
        assert math.isclose(kappa, solve_kappa(target, grid), rel_tol=1e-12)


def test_solve_kappa_many_warm_start(grid):
    rng = np.random.default_rng(13)
    targets = rng.uniform(0.2, 2.5, size=16)
    cold, _ = solve_kappa_many(targets, grid)
    warm, _ = solve_kappa_many(targets, grid, initial=cold)
    assert np.allclose(warm, cold, rtol=1e-12, atol=0.0)


def test_solve_kappa_rejects_bad_targets(grid):
    saturation = float(np.sum(grid.weights))
    with pytest.raises(SaturationError):
        solve_kappa(saturation, grid)
    with pytest.raises(SaturationError):
        solve_kappa(saturation * (1.0 - 1e-13), grid)
    with pytest.raises(ValueError):
        solve_kappa(0.0, grid)
    with pytest.raises(ValueError):
        solve_kappa(-0.3, grid)


def test_global_equilibrium_recovers_kappa_one(grid):
    mass = density_of_kappa(1.0, grid) * 1.0  # unit spatial volume
    eq = global_equilibrium(mass, grid)
    assert math.isclose(eq.kappa, 1.0, rel_tol=1e-12)
    assert np.allclose(eq.profile, fermi_profile(1.0, grid), rtol=1e-12, atol=0.0)
    assert math.isclose(eq.density, mass, rel_tol=1e-12)


def _random_admissible(rng, grid, n_cells, kappa_lo=0.5, kappa_hi=2.0):
    lower = fermi_profile(kappa_lo, grid)
    upper = fermi_profile(kappa_hi, grid)
    u = rng.uniform(0.0, 1.0, size=(n_cells, grid.n_nodes))
    return lower[None, :] + u * (upper - lower)[None, :]


def test_project_idempotent_and_density_matching(grid):
    rng = np.random.default_rng(21)
    f = _random_admissible(rng, grid, 50)
    proj, kappas = project(f, grid)
    proj2, kappas2 = project(proj, grid)
    assert np.allclose(proj2, proj, rtol=1e-10, atol=1e-14)
    assert np.allclose(kappas2, kappas, rtol=1e-10, atol=0.0)
    rho_f = integrate(f, grid)
    rho_p = integrate(proj, grid)
    assert np.allclose(rho_p, rho_f, rtol=1e-12, atol=0.0)


def test_project_current_vanishes_exactly(grid):
    rng = np.random.default_rng(22)
    f = _random_admissible(rng, grid, 20)
    proj, _ = project(f, grid)
    current = integrate(proj * grid.first_axis, grid)
    assert np.all(current == 0.0)


def test_project_respects_sandwich(grid):
    rng = np.random.default_rng(23)
    f = _random_admissible(rng, grid, 40, kappa_lo=0.5, kappa_hi=2.0)
    _, kappas = project(f, grid)
    assert np.all(kappas >= 0.5 * (1.0 - 1e-9))
    assert np.all(kappas <= 2.0 * (1.0 + 1e-9))


def test_project_fixes_local_equilibria(grid):
    kappa_x = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 16, endpoint=False))
    f = fermi_profile(kappa_x, grid)
    proj, kappas = project(f, grid)
    assert np.allclose(proj, f, rtol=1e-11, atol=1e-15)
    assert np.allclose(kappas, kappa_x, rtol=1e-11, atol=0.0)


def test_project_warm_cache_agrees(grid):
    rng = np.random.default_rng(24)
    f = _random_admissible(rng, grid, 30)
    proj_cold, kappas_cold = project(f, grid)
    proj_warm, kappas_warm = project(f, grid, kappa_cache=kappas_cold)
    assert np.allclose(proj_warm, proj_cold, rtol=1e-12, atol=0.0)
    assert np.allclose(kappas_warm, kappas_cold, rtol=1e-12, atol=0.0)


def test_project_matches_bruteforce():
    tiny = build_velocity_grid(1, 8.0, 8)
    rng = np.random.default_rng(25)
    f = _random_admissible(rng, tiny, 8)
    proj, kappas = project(f, tiny)
    proj_bf, kappas_bf = bf.bf_project(f, tiny)
    assert np.allclose(proj, proj_bf, rtol=1e-10, atol=1e-13)
    assert np.allclose(kappas, kappas_bf, rtol=1e-10, atol=0.0)
