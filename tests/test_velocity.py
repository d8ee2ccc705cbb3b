import math

import numpy as np
import pytest

from fermibolt.velocity import build_velocity_grid, integrate

import _bruteforce as bf

# continuum moments of the Gaussian weight, for grid-accuracy checks
MASS_CONTINUUM = 1.0
SECOND_MOMENT_CONTINUUM = 1.0
# mirror-lattice quadrature of M and v^2 M at L = 8, N = 64
GRID_MASS_64 = 0.9999999999999991
GRID_SECOND_64 = 0.9999999999999297


def test_nodes_are_cell_centers():
    grid = build_velocity_grid(1, 8.0, 16)
    expected = np.arange(-7.5, 8.0, 1.0)
    assert np.allclose(grid.first_axis, expected, rtol=0.0, atol=1e-14)
    assert np.all(grid.weights == 1.0)


def test_weights_sum_to_box_volume():
    grid = build_velocity_grid(1, 8.0, 64)
    assert math.isclose(float(np.sum(grid.weights)), 16.0, rel_tol=1e-12)
    grid2 = build_velocity_grid(2, 8.0, 16)
    assert grid2.n_nodes == 256
    assert math.isclose(float(np.sum(grid2.weights)), 256.0, rel_tol=1e-12)


@pytest.mark.parametrize("dim,half_width,n", [
    (1, 8.0, 64), (2, 8.0, 32), (1, 7.5, 48), (2, 7.5, 48),
])
def test_every_weight_is_the_scalar_weight(dim, half_width, n):
    # the quadratures multiply by the scalar; that they give the bytes the
    # node row gave rests on every entry being that one value
    grid = build_velocity_grid(dim, half_width, n)
    assert isinstance(grid.weight, float)
    assert grid.weight == (2.0 * half_width / n) ** dim
    assert grid.weights.shape == (grid.n_nodes,)
    assert np.all(grid.weights == grid.weight)
    values = np.random.default_rng(11).uniform(size=(3, grid.n_nodes))
    assert np.array_equal(values * grid.weight, values * grid.weights)


def test_maxwellian_mass_close_to_one():
    grid = build_velocity_grid(1, 8.0, 64)
    mass = integrate(grid.maxwellian, grid)
    assert abs(mass - MASS_CONTINUUM) < 1e-6
    assert math.isclose(mass, GRID_MASS_64, rel_tol=1e-14)


def test_second_moment_close_to_one():
    grid = build_velocity_grid(1, 8.0, 64)
    second = integrate(grid.first_axis**2 * grid.maxwellian, grid)
    assert abs(second - SECOND_MOMENT_CONTINUUM) < 1e-4
    assert math.isclose(second, GRID_SECOND_64, rel_tol=1e-13)


def test_integrate_constant_gives_box_volume():
    grid = build_velocity_grid(1, 8.0, 64)
    assert math.isclose(integrate(np.ones(64), grid), 16.0, rel_tol=1e-12)


def test_integrate_matches_bruteforce():
    grid = build_velocity_grid(1, 8.0, 16)
    rng = np.random.default_rng(3)
    values = rng.uniform(0.1, 2.0, size=16)
    assert math.isclose(
        integrate(values, grid), bf.bf_integrate(values, grid), rel_tol=1e-14
    )


def test_integrate_batched_rows():
    grid = build_velocity_grid(1, 8.0, 16)
    rng = np.random.default_rng(4)
    field = rng.uniform(0.0, 1.0, size=(5, 16))
    batched = integrate(field, grid)
    assert batched.shape == (5,)
    for x in range(5):
        assert math.isclose(batched[x], integrate(field[x], grid), rel_tol=1e-14)


def test_mirror_symmetry_is_exact():
    for dim, n in ((1, 64), (2, 16)):
        grid = build_velocity_grid(dim, 8.0, n)
        assert np.array_equal(grid.nodes[::-1], -grid.nodes)
        assert np.array_equal(grid.maxwellian[::-1], grid.maxwellian)
        assert np.array_equal(grid.weights[::-1], grid.weights)


def test_odd_integrands_cancel_exactly():
    grid = build_velocity_grid(1, 8.0, 64)
    assert integrate(grid.first_axis * grid.maxwellian, grid) == 0.0
    assert integrate(grid.first_axis**3 * grid.maxwellian, grid) == 0.0
    rng = np.random.default_rng(7)
    u = rng.standard_normal(64)
    odd = u - u[::-1]  # odd by construction on the mirror lattice
    assert integrate(odd, grid) == 0.0
    assert integrate(odd * grid.maxwellian, grid) == 0.0


def test_odd_integrands_cancel_exactly_2d():
    grid = build_velocity_grid(2, 8.0, 16)
    assert integrate(grid.nodes[:, 0] * grid.maxwellian, grid) == 0.0
    assert integrate(grid.nodes[:, 1] * grid.maxwellian, grid) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_first_half_of_nodes_has_negative_first_component(dim):
    # transport upwinds the two halves of the node axis from fixed sides
    grid = build_velocity_grid(dim, 8.0, 16)
    half = grid.n_nodes // 2
    assert np.all(grid.first_axis[:half] < 0.0)
    assert np.all(grid.first_axis[half:] > 0.0)


def test_two_dimensional_mass():
    grid = build_velocity_grid(2, 8.0, 32)
    assert abs(integrate(grid.maxwellian, grid) - 1.0) < 1e-6


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_velocity_grid(3, 8.0, 64)  # only 1 or 2 velocity dimensions
    with pytest.raises(ValueError):
        build_velocity_grid(1, 8.0, 63)  # odd node count breaks mirroring
    with pytest.raises(ValueError):
        build_velocity_grid(1, 8.0, 4)   # too coarse
    with pytest.raises(ValueError):
        build_velocity_grid(1, 2.0, 64)  # box too small for the Gaussian


def test_integrate_rejects_wrong_length():
    grid = build_velocity_grid(1, 8.0, 64)
    with pytest.raises(ValueError):
        integrate(np.ones(32), grid)
