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
    relative_entropy,
    weighted_norm,
)
from fermibolt.experiment import RecordPlan, _diagnose, modified_entropy, observe

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
    return global_equilibrium(mass, vgrid)


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
    assert relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid) == 0.0


def test_entropy_positive_away_from_equilibrium(vgrid, sgrid, eq):
    rng = np.random.default_rng(63)
    f = _random_admissible(rng, vgrid, 64)
    dist = weighted_norm(f - eq.profile[None, :], vgrid, sgrid)
    assert dist > 1e-8
    assert relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid) > 0.0


def test_entropy_quadratic_expansion(vgrid, sgrid, eq):
    rng = np.random.default_rng(64)
    shape = rng.standard_normal((64, 64))
    eps = 1e-3
    p = eq.profile[None, :]
    f = p + eps * shape * p * (1.0 - p)
    h = relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid)
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
        relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid)
    f[0, 0] = 1.0
    with pytest.raises(ValueError):
        relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid)
    f[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"found range \[nan, nan\]"):
        relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid)


def test_entropy_matches_bruteforce(eq):
    vg = build_velocity_grid(1, 8.0, 8)
    sg = build_spatial_grid(8)
    rng = np.random.default_rng(65)
    f = _random_admissible(rng, vg, 8)
    profile = fermi_profile(1.3, vg)
    assert math.isclose(
        relative_entropy(f, profile, 1.0 - profile, vg, sg),
        bf.bf_entropy(f, profile, vg, sg),
        rel_tol=1e-12,
    )


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
        bf.bf_dissipation(f, bf.bf_kernel_table("gaussian_bump", vg), vg, sg),
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


# (d_v, kernel) of the stacked-record checks, on the oracle lattices: 64
# nodes in 1-d, 32^2 in 2-d; custom_table is the saved 1-d Gaussian table.
# The Gaussian scatter is a BLAS matmul over the whole stack in 1-d and two
# per cell in 2-d.
STACKED_KERNELS = [(1, "constant"), (1, "gaussian_bump"), (2, "gaussian_bump"),
                   (1, "custom_table")]


@pytest.mark.parametrize("size", [2, 5, 10])
@pytest.mark.parametrize("dim,kind", STACKED_KERNELS,
                         ids=[f"{dim}d-{kind}" for dim, kind in STACKED_KERNELS])
def test_stacked_records_equal_single_calls(dim, kind, size, oracle_kernels):
    # what a record pass computes for a stack of states, each bit for bit as
    # for that state alone; the stack takes the profile as a (cells, nodes)
    # tile, as a run with K > 1 does, the single state as its row
    vg, kernel, _ = oracle_kernels[dim, kind]
    sg = build_spatial_grid(16 // dim)
    rng = np.random.default_rng(73 + size)
    base = _random_admissible(rng, vg, sg.cells)
    # the cells of one state in K orders: one mass, so one Poisson balance
    f = np.stack([base[rng.permutation(sg.cells)] for _ in range(size)])
    eq = global_equilibrium(float(np.sum(integrate(base, vg))) * sg.spacing, vg)
    p, hole = eq.profile, 1.0 - eq.profile
    p_tile, hole_tile = np.tile(p, (sg.cells, 1)), np.tile(hole, (sg.cells, 1))
    rho, j = moments(f, vg)
    _, grad = solve_poisson(rho, eq.density, sg)
    fields = FieldSet(rho=rho, j=j, grad_phi=grad)
    seen, proj, kappa = observe(f, eq, None, vg, sg)
    stacked = {
        "H": relative_entropy(f, p_tile, hole_tile, vg, sg),
        "D": dissipation(f, kernel, vg, sg),
        "dist_total": weighted_norm(f, vg, sg, p_tile),
        "dist_local": weighted_norm(f, vg, sg, proj),
        "dist_hydro": weighted_norm(proj, vg, sg, p_tile),
        "pairing": field_current_pairing(fields, sg),
    }
    warm = None  # each projection starts from the one before it
    for i, state in enumerate(f):
        one_rho, one_j = moments(state, vg)
        _, one_grad = solve_poisson(one_rho, eq.density, sg)
        one_fields = FieldSet(rho=one_rho, j=one_j, grad_phi=one_grad)
        one_proj, warm = project(state, vg, kappa_cache=warm, rho=one_rho)
        single = {
            "H": relative_entropy(state, p, hole, vg, sg),
            "D": dissipation(state, kernel, vg, sg),
            "dist_total": weighted_norm(state, vg, sg, p),
            "dist_local": weighted_norm(state, vg, sg, one_proj),
            "dist_hydro": weighted_norm(one_proj, vg, sg, p),
            "pairing": field_current_pairing(one_fields, sg),
        }
        for got, want in ((rho, one_rho), (j, one_j), (grad, one_grad), (seen.rho, one_rho),
                          (seen.grad_phi, one_grad), (proj, one_proj), (kappa, warm)):
            assert got[i].tobytes() == want.tobytes()
        assert {name: float(values[i]).hex() for name, values in stacked.items()} == \
            {name: value.hex() for name, value in single.items()}


def test_pairing_zero_for_zero_current(sgrid):
    rho = np.full(64, 0.5)
    fields = FieldSet(rho=rho, j=np.zeros(64), grad_phi=np.zeros(64))
    assert field_current_pairing(fields, sgrid) == 0.0


def test_pairing_analytic_examples():
    sg = build_spatial_grid(256)
    x = sg.centers
    rho_dev = np.cos(2.0 * np.pi * x)
    _, grad = solve_poisson(rho_dev, 0.0, sg)
    # field energy of the cosine mode
    energy = float(np.sum(grad**2)) * sg.spacing
    assert math.isclose(energy, 1.0 / (8.0 * np.pi**2), rel_tol=1e-3)
    # a current proportional to the density wave pairs to zero: grad phi
    # is a sine, and the product integrates out
    fields = FieldSet(rho=rho_dev, j=rho_dev, grad_phi=grad)
    assert abs(field_current_pairing(fields, sg)) <= 1e-12
    # a current aligned with the field reproduces the field energy
    fields2 = FieldSet(rho=rho_dev, j=grad, grad_phi=grad)
    assert math.isclose(
        field_current_pairing(fields2, sg), 1.0 / (8.0 * np.pi**2), rel_tol=1e-3
    )


def test_pairing_matches_bruteforce(sgrid):
    rng = np.random.default_rng(71)
    grad = rng.standard_normal(64)
    j1 = rng.standard_normal(64)
    fields = FieldSet(rho=np.zeros(64), j=j1, grad_phi=grad)
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
    eq = global_equilibrium(float(np.sum(rho)) * sgrid.spacing, vgrid)
    _, grad = solve_poisson(rho, eq.density, sgrid)
    fields = FieldSet(rho=rho, j=j, grad_phi=grad)
    h = relative_entropy(f, eq.profile, 1.0 - eq.profile, vgrid, sgrid)
    assert bf.lyapunov_functional(f, eq.profile, fields, 0.0, vgrid, sgrid) == h
    e = bf.lyapunov_functional(f, eq.profile, fields, 0.01, vgrid, sgrid)
    assert math.isclose(
        e, h + 0.01 * field_current_pairing(fields, sgrid), rel_tol=1e-12
    )
    # E is formed where it is read, from the record's own H and pairing; the
    # state is a batch of one, diagnosed with fresh scratch
    rplan = RecordPlan(1, vgrid, sgrid, build_kernel("constant", vgrid), eq, eq.profile,
                       1.0 - eq.profile, None, None)
    (record,), (seen, _, _) = _diagnose(f[None], [0.0], None, rplan)
    # the observation `_diagnose` hands on is the one the record was made from
    assert np.array_equal(seen.grad_phi[0], grad) and np.array_equal(seen.j[0], j)
    for delta in (0.0, 0.01):
        lyap = bf.lyapunov_functional(f, eq.profile, fields, delta, vgrid, sgrid)
        assert modified_entropy([record], delta)[0] == lyap


def test_record_schema():
    assert RECORD_FIELDS == (
        "t",
        "mass",
        "H",
        "D",
        "dist_total",
        "dist_local",
        "dist_hydro",
        "pairing",
        "kappa_min",
        "kappa_max",
    )
    record = DiagnosticsRecord(*(float(i) for i in range(10)))
    assert record.as_row() == tuple(float(i) for i in range(10))
    assert record.t == 0.0
    assert record.kappa_max == 9.0


def test_distance_triangle_and_pairing_bound(default_run):
    for r in default_run.records:
        assert r.dist_total <= r.dist_local + r.dist_hydro + 1e-12
        # Cauchy-Schwarz + Poincare control of the pairing term
        assert abs(r.pairing) <= r.dist_total**2 / (2.0 * np.pi) * (1.0 + 1e-9) + 1e-30
