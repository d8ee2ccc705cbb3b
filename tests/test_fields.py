import math

import numpy as np
import pytest

from fermibolt.velocity import build_velocity_grid, integrate
from fermibolt.fields import (
    build_spatial_grid,
    centered_gradient,
    laplacian,
    moments,
    solve_poisson,
)
from fermibolt.collision import build_kernel
from fermibolt.equilibrium import fermi_profile
from fermibolt.functionals import weighted_norm
from fermibolt.evolution import PhaseState, SchemeConfig, plan_step, transport_step

import _bruteforce as bf


@pytest.fixture(scope="module")
def sgrid():
    return build_spatial_grid(64)


@pytest.fixture(scope="module")
def vgrid():
    return build_velocity_grid(1, 8.0, 64)


def test_grid_basics(sgrid):
    assert sgrid.cells == 64
    assert math.isclose(sgrid.spacing, 1.0 / 64, rel_tol=1e-15)
    assert math.isclose(sgrid.volume, 1.0, rel_tol=1e-15)
    assert np.allclose(sgrid.centers, (np.arange(64) + 0.5) / 64, atol=1e-15)
    with pytest.raises(ValueError):
        build_spatial_grid(3)
    with pytest.raises(ValueError):
        build_spatial_grid(64, dim=2)


def test_moments_of_uniform_equilibrium(sgrid, vgrid):
    profile = fermi_profile(1.0, vgrid)
    f = np.tile(profile, (sgrid.cells, 1))
    rho, j = moments(f, vgrid)
    assert rho.shape == (64,)
    assert j.shape == (64, 1)
    assert np.all(rho == rho[0])
    assert np.all(j == 0.0)  # even in v, exact cancellation on the lattice


def test_moments_match_bruteforce(vgrid):
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(51)
    f = rng.uniform(0.01, 0.99, size=(8, 64))
    rho, j = moments(f, vgrid)
    rho_bf, j_bf = bf.bf_moments(f, vgrid)
    assert np.allclose(rho, rho_bf, rtol=1e-13, atol=0.0)
    assert np.allclose(j, j_bf, rtol=1e-13, atol=1e-15)


def test_current_bounded_by_distance(sgrid, vgrid):
    rng = np.random.default_rng(52)
    profile = fermi_profile(1.0, vgrid)
    lower = fermi_profile(0.5, vgrid)
    upper = fermi_profile(2.0, vgrid)
    u = rng.uniform(0.0, 1.0, size=(64, 64))
    f = lower[None, :] + u * (upper - lower)[None, :]
    _, j = moments(f, vgrid)
    j_norm = math.sqrt(float(np.sum(j[:, 0] ** 2)) * sgrid.spacing)
    dist = weighted_norm(f - profile[None, :], vgrid, sgrid)
    second = integrate(vgrid.first_axis**2 * vgrid.maxwellian, vgrid)
    assert j_norm <= math.sqrt(second) * dist * (1.0 + 1e-12)


def test_poisson_cosine_eigenfunction(sgrid):
    x = sgrid.centers
    source = np.cos(2.0 * np.pi * x)
    phi, grad = solve_poisson(source, 0.0, sgrid)
    exact = source / (4.0 * np.pi**2)
    rel_err = float(np.max(np.abs(phi - exact))) / float(np.max(np.abs(exact)))
    assert rel_err < 2e-3  # second-order accurate at this resolution
    grad_exact = -np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
    assert float(np.max(np.abs(grad - grad_exact))) < 2e-3


def test_poisson_residual_and_gauge(sgrid):
    rng = np.random.default_rng(53)
    source = rng.standard_normal(64)
    source -= source.mean()
    phi, grad = solve_poisson(source, 0.0, sgrid)
    residual = -laplacian(phi, sgrid) - source
    assert float(np.max(np.abs(residual))) <= 1e-10 * float(np.max(np.abs(source)))
    assert abs(float(np.mean(phi))) <= 1e-12 * max(1.0, float(np.max(np.abs(phi))))
    assert np.allclose(grad, centered_gradient(phi, sgrid), rtol=0.0, atol=1e-14)


def test_poisson_fft_and_tridiagonal_agree(sgrid):
    rng = np.random.default_rng(54)
    source = rng.standard_normal(64)
    source -= source.mean()
    phi_f, _ = solve_poisson(source, 0.0, sgrid)
    phi_t = bf.tridiagonal_poisson(source, sgrid)
    assert float(np.max(np.abs(phi_f - phi_t))) <= 1e-12


def test_poisson_matches_bruteforce():
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(55)
    source = rng.standard_normal(8)
    source -= source.mean()
    phi, grad = solve_poisson(source, 0.0, sg)
    phi_bf, grad_bf = bf.bf_poisson(source, sg)
    assert np.allclose(phi, phi_bf, rtol=0.0, atol=1e-10)
    assert np.allclose(grad, grad_bf, rtol=0.0, atol=1e-9)


def test_poisson_rejects_unbalanced_charge(sgrid):
    with pytest.raises(ValueError):
        solve_poisson(np.ones(64), 0.5, sgrid)


def test_poisson_zero_source_gives_zero_field(sgrid):
    rho = np.full(64, 0.7863)
    phi, grad = solve_poisson(rho, 0.7863, sgrid)
    assert np.all(phi == 0.0)
    assert np.all(grad == 0.0)


def test_poisson_poincare_bound(sgrid):
    rng = np.random.default_rng(56)
    for _ in range(10):
        source = rng.standard_normal(64)
        source -= source.mean()
        _, grad = solve_poisson(source, 0.0, sgrid)
        grad_norm = math.sqrt(float(np.sum(grad**2)) * sgrid.spacing)
        src_norm = math.sqrt(float(np.sum(source**2)) * sgrid.spacing)
        assert grad_norm <= src_norm / (2.0 * np.pi) * (1.0 + 1e-12)


def test_field_response_bounded_by_current(sgrid):
    # grad of the potential driven by -div j has Fourier symbol
    # cos^2(pi k h), so its l2 size never exceeds the current's
    rng = np.random.default_rng(57)
    for _ in range(10):
        j1 = rng.standard_normal(64)
        rate = -centered_gradient(j1, sgrid)
        _, grad = solve_poisson(rate, 0.0, sgrid)
        grad_norm = math.sqrt(float(np.sum(grad**2)) * sgrid.spacing)
        j_norm = math.sqrt(float(np.sum(j1**2)) * sgrid.spacing)
        assert grad_norm <= j_norm * (1.0 + 1e-12)


def test_density_update_matches_face_flux(sgrid, vgrid):
    rng = np.random.default_rng(58)
    lower = fermi_profile(0.5, vgrid)
    upper = fermi_profile(2.0, vgrid)
    u = rng.uniform(0.0, 1.0, size=(64, 64))
    f = lower[None, :] + u * (upper - lower)[None, :]
    state = PhaseState(f=f.copy(), time=0.0, vgrid=vgrid, sgrid=sgrid)
    dt = 0.9 * sgrid.spacing / float(np.max(np.abs(vgrid.first_axis)))
    # a Lie plan transports over the whole dt
    plan = plan_step(build_kernel("constant", vgrid), vgrid, sgrid,
                     SchemeConfig(dt=dt, splitting="lie"))
    after = transport_step(state, plan, stages=1)
    rho0, _ = moments(f, vgrid)
    rho1, _ = moments(after.f, vgrid)
    flux = bf.bf_upwind_face_flux(f, vgrid, sgrid)
    expected = rho0 - (dt / sgrid.spacing) * (flux - np.roll(flux, 1))
    assert np.allclose(rho1, expected, rtol=0.0, atol=1e-13)
