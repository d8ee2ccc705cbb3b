import numpy as np
import pytest

from fermibolt import collision
from fermibolt.velocity import build_velocity_grid, integrate
from fermibolt.collision import (
    apply_collision,
    build_kernel,
    load_kernel_table,
)
from fermibolt.equilibrium import fermi_profile, project

import _bruteforce as bf


@pytest.fixture(scope="module")
def grid():
    return build_velocity_grid(1, 8.0, 64)


@pytest.fixture(scope="module")
def tiny():
    return build_velocity_grid(1, 8.0, 8)


def _random_admissible(rng, grid, n_cells, kappa_lo=0.5, kappa_hi=2.0):
    lower = fermi_profile(kappa_lo, grid)
    upper = fermi_profile(kappa_hi, grid)
    u = rng.uniform(0.0, 1.0, size=(n_cells, grid.n_nodes))
    return lower[None, :] + u * (upper - lower)[None, :]


def test_constant_kernel(grid):
    kernel = build_kernel("constant", grid, sigma0=1.0)
    assert kernel.level == 1.0
    assert kernel.bump is None and kernel.table is None
    assert kernel.sigma_plus == 1.0
    scaled = build_kernel("constant", grid, sigma0=0.25)
    assert scaled.level == 0.25


def test_gaussian_bump_kernel(grid):
    kernel = build_kernel("gaussian_bump", grid)
    table = kernel.level + 0.5 * kernel.bump  # the 1-d table
    assert np.allclose(np.diag(table), 1.5, rtol=0.0, atol=1e-15)
    far = table[0, -1]  # nodes at opposite ends of the box
    assert abs(far - 1.0) < 1e-12
    assert kernel.sigma_plus == 1.5
    assert np.array_equal(table, table.T)
    assert np.all(table > 0.0)


def test_custom_table_round_trip(tmp_path, tiny):
    rng = np.random.default_rng(31)
    raw = rng.uniform(0.5, 2.0, size=(8, 8))
    matrix = 0.5 * (raw + raw.T)
    path = tmp_path / "table.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("8  # node count\n")
        for row in matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    kernel = load_kernel_table(str(path), tiny)
    assert np.array_equal(kernel.table, matrix)


def test_table_validation(tmp_path, tiny):
    asym = np.ones((8, 8))
    asym[0, 1] = 2.0
    path = tmp_path / "bad.txt"

    def dump(matrix, header="8"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in matrix:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    dump(asym)
    with pytest.raises(ValueError):
        load_kernel_table(str(path), tiny)
    neg = np.ones((8, 8))
    neg[2, 3] = neg[3, 2] = -1.0
    dump(neg)
    with pytest.raises(ValueError):
        load_kernel_table(str(path), tiny)
    dump(np.ones((8, 8)), header="9")  # header contradicts the payload
    with pytest.raises(ValueError):
        load_kernel_table(str(path), tiny)
    dump(np.ones((4, 4)), header="4")  # wrong size for this grid
    with pytest.raises(ValueError):
        load_kernel_table(str(path), tiny)


def test_table_for_another_lattice_fails_before_parsing(tmp_path, tiny):
    # the header alone decides: the unparsable payload is never read
    path = tmp_path / "wrong.txt"
    path.write_text("9\nnot-a-number\n", encoding="utf-8")
    with pytest.raises(ValueError, match="declares N=9, grid has 8 nodes"):
        load_kernel_table(str(path), tiny)


def test_table_over_the_memory_budget_fails_before_parsing(tmp_path, tiny, monkeypatch):
    # an 8-node table is 512 bytes of float64; the payload is never read
    monkeypatch.setattr(collision, "TABLE_BUDGET_BYTES", 256)
    path = tmp_path / "big.txt"
    path.write_text("8\nnot-a-number\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"declares N=8: its table takes 512 bytes"):
        load_kernel_table(str(path), tiny)


def test_unknown_kernel_kind(grid):
    with pytest.raises(ValueError):
        build_kernel("quadratic", grid)
    with pytest.raises(ValueError):
        build_kernel("constant", grid, sigma0=0.0)
    with pytest.raises(ValueError):
        build_kernel("custom_table", grid)


def test_equilibria_are_fixed_points(grid):
    for kind in ("constant", "gaussian_bump"):
        kernel = build_kernel(kind, grid)
        for kappa in (0.5, 1.0, 3.7):
            q = apply_collision(fermi_profile(kappa, grid), kernel, grid)
            assert float(np.max(np.abs(q))) <= 1e-12


def test_collision_conserves_mass(grid):
    rng = np.random.default_rng(41)
    kernel = build_kernel("gaussian_bump", grid)
    f = _random_admissible(rng, grid, 30)
    q = apply_collision(f, kernel, grid)
    rho_rate = integrate(q, grid)
    scale = float(np.max(np.abs(q))) * 16.0
    assert np.all(np.abs(rho_rate) <= 1e-14 * max(scale, 1.0))


def test_collision_sign_structure(grid):
    rng = np.random.default_rng(42)
    kernel = build_kernel("constant", grid)
    f = _random_admissible(rng, grid, 1)[0]
    f_zero = f.copy()
    f_zero[10] = 0.0  # empty node can only gain
    assert apply_collision(f_zero, kernel, grid)[10] >= 0.0
    f_one = f.copy()
    f_one[20] = 1.0  # saturated node can only lose
    assert apply_collision(f_one, kernel, grid)[20] <= 0.0


def test_collision_commutes_with_reflection(grid):
    rng = np.random.default_rng(43)
    kernel = build_kernel("gaussian_bump", grid)
    f = _random_admissible(rng, grid, 1)[0]
    q = apply_collision(f, kernel, grid)
    q_reflected = apply_collision(f[::-1].copy(), kernel, grid)
    assert float(np.max(np.abs(q_reflected - q[::-1]))) <= 1e-14


def test_collision_rejects_out_of_range(grid):
    kernel = build_kernel("constant", grid)
    bad = np.full(64, 0.5)
    bad[0] = 1.5
    with pytest.raises(ValueError):
        apply_collision(bad, kernel, grid)
    bad[0] = -0.1
    with pytest.raises(ValueError):
        apply_collision(bad, kernel, grid)
    bad[0] = np.nan
    with pytest.raises(ValueError, match=r"found range \[nan, nan\]"):
        apply_collision(bad, kernel, grid)
    with pytest.raises(ValueError):
        apply_collision(np.full(32, 0.5), kernel, grid)


def test_collision_matches_bruteforce(tiny):
    rng = np.random.default_rng(44)
    kernel = build_kernel("gaussian_bump", tiny)
    f = _random_admissible(rng, tiny, 6)
    q = apply_collision(f, kernel, tiny)
    table = bf.bf_kernel_table("gaussian_bump", tiny)
    for x in range(6):
        q_bf = bf.bf_apply_collision(f[x], table, tiny)
        assert np.allclose(q[x], q_bf, rtol=1e-13, atol=1e-16)


def test_norm_probe_skips_equilibria(grid):
    kernel = build_kernel("constant", grid)
    samples = [fermi_profile(kappa, grid) for kappa in (0.5, 1.0, 2.0)]
    value, skipped, degenerate = bf.collision_norm_probe(samples, kernel, grid)
    assert degenerate
    assert skipped == 3
    assert value == 0.0


def test_norm_probe_against_dense_oracle(tiny):
    kernel = build_kernel("gaussian_bump", tiny)
    margin, direction = bf.bf_collision_operator_norm(
        fermi_profile(1.0, tiny), bf.bf_kernel_table("gaussian_bump", tiny), tiny
    )
    eps = 1e-6
    sample = fermi_profile(1.0, tiny) + eps * direction
    value, _, degenerate = bf.collision_norm_probe([sample], kernel, tiny)
    assert not degenerate
    # the probe ratio at an infinitesimal extremal perturbation is the
    # operator norm of the linearization (up to the projection shift)
    assert value == pytest.approx(margin, rel=1e-3)


def test_norm_probe_below_crude_ceiling(grid):
    rng = np.random.default_rng(45)
    kernel = build_kernel("gaussian_bump", grid)
    samples = _random_admissible(rng, grid, 40)
    value, _, _ = bf.collision_norm_probe(list(samples), kernel, grid)
    m0 = float(integrate(grid.maxwellian, grid))
    rho_max = float(np.sum(grid.weights))
    ceiling = 2.0 * kernel.sigma_plus * (m0 + rho_max)
    assert 0.0 < value <= ceiling


def test_norm_probe_counts_mixed_batches(grid):
    rng = np.random.default_rng(46)
    kernel = build_kernel("constant", grid)
    live = _random_admissible(rng, grid, 3)
    proj, _ = project(live, grid)
    samples = [live[0], proj[1], live[2]]
    value, skipped, degenerate = bf.collision_norm_probe(samples, kernel, grid)
    assert skipped == 1
    assert not degenerate
    assert value > 0.0


def test_structured_collision_matches_dense_oracle(oracle_case):
    grid, kernel, table = oracle_case
    rng = np.random.default_rng(47)
    f = _random_admissible(rng, grid, 8)
    q = apply_collision(f, kernel, grid)
    q_dense = bf.dense_apply_collision(f, table, grid)
    gain = grid.maxwellian * (1.0 - f) * bf.dense_scatter(f, table, grid)
    assert float(np.max(np.abs(q - q_dense))) <= 1e-14 * float(np.max(np.abs(gain)))


def test_gaussian_bump_at_64sq_holds_no_dense_table():
    grid = build_velocity_grid(2, 8.0, 64)
    kernel = build_kernel("gaussian_bump", grid)
    held = sum(v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray))
    assert held <= 2 * 64**2 * 8
    rng = np.random.default_rng(48)
    f = _random_admissible(rng, grid, 8)
    q = apply_collision(f, kernel, grid)
    assert q.shape == f.shape
    assert np.all(np.abs(integrate(q, grid)) <= 1e-14 * integrate(np.abs(q), grid))
    # a few rows of Q against the dense formula, one table row at a time
    a = grid.maxwellian * (1.0 - f)
    for i in (0, 2080, 4095):
        diff = grid.nodes - grid.nodes[i]
        row = (1.0 + 0.5 * np.exp(-0.5 * np.sum(diff * diff, axis=-1))) * grid.weights
        q_row = a[:, i] * (f @ row) - f[:, i] * (a @ row)
        assert np.allclose(q[:, i], q_row, rtol=0.0, atol=1e-14 * float(np.max(np.abs(q))))
