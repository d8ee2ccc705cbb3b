import math

import numpy as np
import pytest

from fermibolt.velocity import build_velocity_grid, integrate
from fermibolt.fields import FieldSet, build_spatial_grid, moments, solve_poisson
from fermibolt.collision import build_kernel
from fermibolt.equilibrium import fermi_profile, global_equilibrium, project
from fermibolt.functionals import (
    RECORD_FIELDS,
    DiagnosticsRecord,
    dissipation,
    field_current_pairing,
    generalized_entropy,
    identity_chi,
    log_ratio_chi,
    lyapunov_functional,
    relative_entropy,
    tabulated_chi,
    weighted_norm,
)
from fermibolt.evolution import SchemeConfig, cfl_max_dt, initial_state, plan_step, step

import _bruteforce as bf


@pytest.fixture(scope="module")
def vgrid():
    return build_velocity_grid(1, 8.0, 64)


@pytest.fixture(scope="module")
def sgrid():
    return build_spatial_grid(64)


@pytest.fixture(scope="module")
def eq(vgrid):
    mass = float(integrate(fermi_profile(1.0, vgrid), vgrid))
    return global_equilibrium(mass, 1.0, vgrid)


def _random_admissible(rng, vgrid, n_cells, kappa_lo=0.5, kappa_hi=2.0):
    lower = fermi_profile(kappa_lo, vgrid)
    upper = fermi_profile(kappa_hi, vgrid)
    u = rng.uniform(0.0, 1.0, size=(n_cells, vgrid.n_nodes))
    return lower[None, :] + u * (upper - lower)[None, :]


def test_weighted_norm_basics(vgrid, sgrid):
    zeros = np.zeros((64, 64))
    assert weighted_norm(zeros, vgrid, sgrid) == 0.0
    rng = np.random.default_rng(61)
    g = rng.standard_normal((64, 64))
    n1 = weighted_norm(g, vgrid, sgrid)
    assert math.isclose(weighted_norm(3.0 * g, vgrid, sgrid), 3.0 * n1, rel_tol=1e-12)
    m_field = np.tile(vgrid.maxwellian, (64, 1))
    # ||M||^2 = integral of M, close to one
    assert math.isclose(weighted_norm(m_field, vgrid, sgrid), 1.0, rel_tol=1e-6)
    with pytest.raises(ValueError):
        weighted_norm(np.zeros(64), vgrid, sgrid)


def test_weighted_norm_matches_bruteforce():
    vg = build_velocity_grid(1, 8.0, 8)
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(62)
    g = rng.standard_normal((8, 8))
    assert math.isclose(
        weighted_norm(g, vg, sg), bf.bf_weighted_norm(g, vg, sg), rel_tol=1e-13
    )


def test_entropy_zero_at_equilibrium(vgrid, sgrid, eq):
    f = np.tile(eq.profile, (64, 1))
    assert relative_entropy(f, eq.profile, vgrid, sgrid) == 0.0


def test_entropy_positive_away_from_equilibrium(vgrid, sgrid, eq):
    rng = np.random.default_rng(63)
    f = _random_admissible(rng, vgrid, 64)
    dist = weighted_norm(f - eq.profile[None, :], vgrid, sgrid)
    assert dist > 1e-8
    assert relative_entropy(f, eq.profile, vgrid, sgrid) > 0.0


def test_entropy_quadratic_expansion(vgrid, sgrid, eq):
    rng = np.random.default_rng(64)
    shape = rng.standard_normal((64, 64))
    eps = 1e-3
    p = eq.profile[None, :]
    f = p + eps * shape * p * (1.0 - p)
    h = relative_entropy(f, eq.profile, vgrid, sgrid)
    dev = f - p
    quad = 0.5 * float(
        np.sum(np.sum(dev**2 / (p * (1.0 - p)) * vgrid.weights, axis=-1))
        * sgrid.spacing
    )
    assert math.isclose(h, quad, rel_tol=1e-2)


def test_entropy_rejects_boundary_values(vgrid, sgrid, eq):
    f = np.tile(eq.profile, (64, 1))
    f[0, 0] = 0.0
    with pytest.raises(ValueError):
        relative_entropy(f, eq.profile, vgrid, sgrid)
    f[0, 0] = 1.0
    with pytest.raises(ValueError):
        relative_entropy(f, eq.profile, vgrid, sgrid)


def test_entropy_matches_bruteforce(eq):
    vg = build_velocity_grid(1, 8.0, 8)
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(65)
    f = _random_admissible(rng, vg, 8)
    profile = fermi_profile(1.3, vg)
    assert math.isclose(
        relative_entropy(f, profile, vg, sg),
        bf.bf_entropy(f, profile, vg, sg),
        rel_tol=1e-12,
    )


def test_generalized_entropy_log_choice_matches_closed_form(vgrid, sgrid, eq):
    rng = np.random.default_rng(66)
    f = _random_admissible(rng, vgrid, 16)
    h_closed = relative_entropy(f, eq.profile, vgrid, sgrid)
    h_quad = generalized_entropy(f, eq.profile, vgrid, sgrid, log_ratio_chi(eq.kappa))
    assert math.isclose(h_quad, h_closed, rel_tol=1e-8)
    assert generalized_entropy(
        np.tile(eq.profile, (4, 1)), eq.profile, vgrid, sgrid, log_ratio_chi(eq.kappa)
    ) == 0.0


def test_generalized_entropy_identity_choice_decays(vgrid):
    sg = build_spatial_grid(16)
    kernel = build_kernel("constant", vgrid)
    init = initial_state(sg, vgrid, 1.0, 0.5)
    rho0, _ = moments(init.state.f, vgrid)
    eq = global_equilibrium(float(np.sum(rho0)) * sg.spacing, 1.0, vgrid)
    dt = cfl_max_dt(init.state, kernel, SchemeConfig(dt=1.0))
    plan = plan_step(kernel, vgrid, sg, SchemeConfig(dt=dt))
    state = init.state.copy()
    values = [generalized_entropy(state.f, eq.profile, vgrid, sg, identity_chi)]
    for _ in range(20):
        state = step(state, plan)
        values.append(generalized_entropy(state.f, eq.profile, vgrid, sg, identity_chi))
    slack = 1e-10 * abs(values[0])
    assert all(b <= a + slack for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_tabulated_chi(vgrid, sgrid, eq):
    z = np.linspace(1e-3, 60.0, 20000)
    table = tabulated_chi(z, np.log(z / eq.kappa))
    rng = np.random.default_rng(67)
    f = _random_admissible(rng, vgrid, 8)
    h_exact = generalized_entropy(f, eq.profile, vgrid, sgrid, log_ratio_chi(eq.kappa))
    h_table = generalized_entropy(f, eq.profile, vgrid, sgrid, table)
    assert math.isclose(h_table, h_exact, rel_tol=1e-4)
    with pytest.raises(ValueError):
        tabulated_chi(np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        tabulated_chi(np.array([1.0, 2.0, 3.0]), np.array([0.0, -0.1, 0.2]))
    with pytest.raises(ValueError):
        tabulated_chi(np.array([1.0, 2.0]), np.array([0.0, 0.1, 0.2]))


def test_dissipation_nonnegative_and_zero_on_projections(vgrid, sgrid):
    kernel = build_kernel("constant", vgrid)
    rng = np.random.default_rng(68)
    f = _random_admissible(rng, vgrid, 64)
    assert dissipation(f, kernel, vgrid, sgrid) > 0.0
    proj, _ = project(f, vgrid)
    assert dissipation(proj, kernel, vgrid, sgrid) <= 1e-25
    for _ in range(100):
        sample = _random_admissible(rng, vgrid, 4)
        assert dissipation(sample, kernel, vgrid, sgrid) >= 0.0


def test_dissipation_matches_bruteforce():
    vg = build_velocity_grid(1, 8.0, 8)
    sg = build_spatial_grid(8)
    kernel = build_kernel("gaussian_bump", vg)
    rng = np.random.default_rng(69)
    f = _random_admissible(rng, vg, 8)
    assert math.isclose(
        dissipation(f, kernel, vg, sg),
        bf.bf_dissipation(f, kernel.matrix, vg, sg),
        rel_tol=1e-12,
    )


def test_dissipation_matches_pairwise_near_equilibrium(oracle_case):
    # D falls from ~1e-5 to ~1e-17 over the scan; the shifted two-contraction
    # form must track the pairwise double sum in relative terms throughout
    vg, kernel, table = oracle_case
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(71)
    base = fermi_profile(1.0 + 0.3 * np.cos(2.0 * np.pi * sg.centers), vg)
    shape = rng.uniform(-1.0, 1.0, size=base.shape) * base * (1.0 - base)
    values = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        f = base + eps * shape
        d = dissipation(f, kernel, vg, sg)
        d_pair = bf.pairwise_dissipation(f, table, vg, sg)
        assert abs(d - d_pair) <= 1e-13 * d_pair
        values.append(d_pair)
    assert values[0] > 1e-6 and values[-1] < 1e-16


def test_dissipation_identity_chi_still_nonnegative(vgrid, sgrid):
    kernel = build_kernel("constant", vgrid)
    rng = np.random.default_rng(70)
    f = _random_admissible(rng, vgrid, 8)
    assert dissipation(f, kernel, vgrid, sgrid, chi=identity_chi) > 0.0


def test_pairing_zero_for_zero_current(sgrid):
    rho = np.full(64, 0.5)
    fields = FieldSet(
        rho=rho, j=np.zeros((64, 1)), phi=np.zeros(64), grad_phi=np.zeros(64)
    )
    assert field_current_pairing(fields, sgrid) == 0.0


def test_pairing_analytic_examples():
    sg = build_spatial_grid(256)
    x = sg.centers
    rho_dev = np.cos(2.0 * np.pi * x)
    phi, grad = solve_poisson(rho_dev, 0.0, sg)
    # field energy of the cosine mode
    energy = float(np.sum(grad**2)) * sg.spacing
    assert math.isclose(energy, 1.0 / (8.0 * np.pi**2), rel_tol=1e-3)
    # a current proportional to the density wave pairs to zero: grad phi
    # is a sine, and the product integrates out
    fields = FieldSet(rho=rho_dev, j=rho_dev[:, None], phi=phi, grad_phi=grad)
    assert abs(field_current_pairing(fields, sg)) <= 1e-12
    # a current aligned with the field reproduces the field energy
    fields2 = FieldSet(rho=rho_dev, j=grad[:, None], phi=phi, grad_phi=grad)
    assert math.isclose(
        field_current_pairing(fields2, sg), 1.0 / (8.0 * np.pi**2), rel_tol=1e-3
    )


def test_pairing_matches_bruteforce(sgrid):
    rng = np.random.default_rng(71)
    grad = rng.standard_normal(64)
    j1 = rng.standard_normal(64)
    fields = FieldSet(rho=np.zeros(64), j=j1[:, None], phi=np.zeros(64), grad_phi=grad)
    assert math.isclose(
        field_current_pairing(fields, sgrid),
        bf.bf_pairing(grad, j1, sgrid),
        rel_tol=1e-13,
    )


def test_lyapunov_reduces_to_entropy(vgrid, sgrid):
    rng = np.random.default_rng(72)
    f = _random_admissible(rng, vgrid, 64)
    rho, j = moments(f, vgrid)
    # the reference equilibrium must carry the same total mass, else the
    # Poisson source is not neutral
    eq = global_equilibrium(float(np.sum(rho)) * sgrid.spacing, 1.0, vgrid)
    phi, grad = solve_poisson(rho, eq.density, sgrid)
    fields = FieldSet(rho=rho, j=j, phi=phi, grad_phi=grad)
    h = relative_entropy(f, eq.profile, vgrid, sgrid)
    assert lyapunov_functional(f, eq.profile, fields, 0.0, vgrid, sgrid) == h
    e = lyapunov_functional(f, eq.profile, fields, 0.01, vgrid, sgrid)
    assert math.isclose(
        e, h + 0.01 * field_current_pairing(fields, sgrid), rel_tol=1e-12
    )


def test_record_schema():
    assert RECORD_FIELDS == (
        "t",
        "mass",
        "H",
        "E",
        "D",
        "dist_total",
        "dist_local",
        "dist_hydro",
        "pairing",
        "ratio_c1",
        "ratio_c6",
        "kappa_min",
        "kappa_max",
    )
    record = DiagnosticsRecord(*(float(i) for i in range(13)))
    assert record.as_row() == tuple(float(i) for i in range(13))
    assert record.t == 0.0
    assert record.kappa_max == 12.0


def test_distance_triangle_and_pairing_bound(default_run):
    for r in default_run.records:
        assert r.dist_total <= r.dist_local + r.dist_hydro + 1e-12
        # Cauchy-Schwarz + Poincare control of the pairing term
        assert abs(r.pairing) <= r.dist_total**2 / (2.0 * np.pi) * (1.0 + 1e-9) + 1e-30
