import math
import tracemalloc

import numpy as np
import pytest

from fermibolt import collision, evolution
from fermibolt.velocity import build_velocity_grid
from fermibolt.fields import build_spatial_grid, moments
from fermibolt.collision import build_kernel, collision_dt_ceiling
from fermibolt.config import ExperimentConfig
from fermibolt.equilibrium import fermi_profile
from fermibolt.evolution import (
    PhaseState,
    collision_step,
    initial_state,
    plan_step,
    step,
    transport_step,
)
from fermibolt.velocity import integrate

import _bruteforce as bf


@pytest.fixture(scope="module")
def vgrid():
    return build_velocity_grid(1, 8.0, 64)


@pytest.fixture(scope="module")
def sgrid():
    return build_spatial_grid(64)


@pytest.fixture(scope="module")
def kernel(vgrid):
    return build_kernel("constant", vgrid)


def _transport_plan(vgrid, sgrid, dt, order="upwind1", stages=1):
    """A plan whose transport sub-step has length dt and `stages` stages.

    One stage is a Lie plan at dt, two (a Heun pair) a Strang plan at 2 dt.
    """
    splitting, step_dt = ("lie", dt) if stages == 1 else ("strang", 2.0 * dt)
    config = ExperimentConfig(dt=step_dt, transport=order, splitting=splitting)
    return plan_step(build_kernel("constant", vgrid), vgrid, sgrid, config)


def _step_plan(kernel, state, dt=None, **scheme):
    """The plan of a run at dt, by default (None) the `dt = auto` one."""
    config = ExperimentConfig(dt=dt, **scheme)
    return plan_step(kernel, state.vgrid, state.sgrid, config)


def _random_state(rng, sgrid, vgrid, kappa_lo=0.5, kappa_hi=2.0):
    lower = fermi_profile(kappa_lo, vgrid)
    upper = fermi_profile(kappa_hi, vgrid)
    u = rng.uniform(0.0, 1.0, size=(sgrid.cells, vgrid.n_nodes))
    f = lower[None, :] + u * (upper - lower)[None, :]
    return PhaseState(f=f, time=0.0, vgrid=vgrid, sgrid=sgrid)


def test_initial_state_profile(sgrid, vgrid):
    init = initial_state(sgrid, vgrid, 1.0, 0.5)
    kappa_x = 1.0 * (1.0 + 0.5 * np.cos(2.0 * np.pi * sgrid.centers))
    assert np.array_equal(init.state.f, fermi_profile(kappa_x, vgrid))
    assert np.array_equal(init.state.kappa_cache, kappa_x)
    assert np.array_equal(init.f_lower, fermi_profile(0.5, vgrid))
    assert np.array_equal(init.f_upper, fermi_profile(1.5, vgrid))
    assert init.state.time == 0.0


def test_initial_state_perturbation_seeded(sgrid, vgrid):
    a = initial_state(sgrid, vgrid, 1.0, 0.5, perturbation=1e-3, seed=7)
    b = initial_state(sgrid, vgrid, 1.0, 0.5, perturbation=1e-3, seed=7)
    c = initial_state(sgrid, vgrid, 1.0, 0.5, perturbation=1e-3, seed=8)
    assert np.array_equal(a.state.f, b.state.f)
    assert not np.array_equal(a.state.f, c.state.f)
    assert np.all(a.state.f >= a.f_lower[None, :])
    assert np.all(a.state.f <= a.f_upper[None, :])


def test_initial_state_validation(sgrid, vgrid):
    with pytest.raises(ValueError):
        initial_state(sgrid, vgrid, 0.0, 0.5)
    with pytest.raises(ValueError):
        initial_state(sgrid, vgrid, 1.0, 1.0)
    with pytest.raises(ValueError):
        initial_state(sgrid, vgrid, 1.0, 0.5, perturbation=-1.0)


def test_step_size_policy(sgrid, vgrid, kernel):
    m0 = float(integrate(vgrid.maxwellian, vgrid))
    rho_sat = float(np.sum(vgrid.weights))
    ceiling = collision_dt_ceiling(kernel, vgrid)
    assert math.isclose(ceiling, 1.0 / (1.0 * (m0 + rho_sat)), rel_tol=1e-14)
    vmax = float(np.max(np.abs(vgrid.first_axis)))
    limits = {"upwind1": 1.0, "muscl2": 0.5}
    fractions = {"strang": 0.5, "lie": 1.0}
    # four cells: the Strang upwind1 sub-step bound lies above the ceiling
    for sg in (sgrid, build_spatial_grid(4)):
        for splitting, fraction in fractions.items():
            for order, limit in limits.items():
                config = ExperimentConfig(transport=order, splitting=splitting)
                plan = plan_step(kernel, vgrid, sg, config)
                transport_bound = limit * sg.spacing / vmax / fraction
                expected = 0.9 * min(transport_bound, ceiling)
                assert math.isclose(plan.dt, expected, rel_tol=1e-14)
                # each transport sub-step runs for fraction * dt
                mu = np.abs(vgrid.first_axis * (fraction * plan.dt / sg.spacing))
                assert (plan.mu == mu).all()
                if transport_bound < ceiling:
                    assert math.isclose(float(np.max(plan.mu)), 0.9 * limit, rel_tol=1e-14)
                # an auto dt passes the pinned-dt checks and plans the same step
                pinned = plan_step(kernel, vgrid, sg,
                                   ExperimentConfig(dt=plan.dt, transport=order,
                                                    splitting=splitting))
                assert pinned.dt == plan.dt
                assert np.array_equal(pinned.mu, plan.mu)
                if order == "muscl2":
                    assert np.array_equal(pinned.muscl, plan.muscl)
    coarse = plan_step(kernel, vgrid, build_spatial_grid(4), ExperimentConfig())
    assert coarse.dt == 0.9 * ceiling


def test_transport_advects_step_profile(vgrid):
    # single velocity node, indicator initial profile; after unit time
    # the centre of mass must sit within one cell of the exact shift
    sg = build_spatial_grid(64)
    node = int(np.argmin(np.abs(vgrid.first_axis - 0.375)))
    v = float(vgrid.first_axis[node])
    f = np.zeros((64, vgrid.n_nodes))
    x = sg.centers
    f[(x >= 0.3) & (x < 0.45), node] = 0.5
    state = PhaseState(f=f.copy(), time=0.0, vgrid=vgrid, sgrid=sg)
    n = round(1.0 / (0.9 * sg.spacing / float(np.max(np.abs(vgrid.first_axis)))))
    plan = _transport_plan(vgrid, sg, 1.0 / n)
    for _ in range(n):
        state = transport_step(state, plan)
    w = state.f[:, node]
    com0 = float(np.sum(x * f[:, node]) / np.sum(f[:, node]))
    com1 = float(np.sum(x * w) / np.sum(w))
    assert abs(com1 - com0 - v * 1.0) <= sg.spacing
    assert math.isclose(float(np.sum(w)), float(np.sum(f[:, node])), rel_tol=1e-12)


def test_transport_preserves_uniform_states(sgrid, vgrid):
    rng = np.random.default_rng(81)
    g = rng.uniform(0.01, 0.99, size=vgrid.n_nodes)
    f = np.tile(g, (sgrid.cells, 1))
    for order in ("upwind1", "muscl2"):
        for stages in (1, 2):
            state = PhaseState(f=f.copy(), time=0.0, vgrid=vgrid, sgrid=sgrid)
            dt = 0.4 * sgrid.spacing / float(np.max(np.abs(vgrid.first_axis)))
            out = transport_step(state, _transport_plan(vgrid, sgrid, dt, order, stages))
            assert np.array_equal(out.f, f)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stages", [1, 2])
@pytest.mark.parametrize("order", ["upwind1", "muscl2"])
def test_transport_matches_roll_oracle_bitwise(dim, stages, order):
    vg = build_velocity_grid(dim, 8.0, 64 if dim == 1 else 16)
    sg = build_spatial_grid(32)
    rng = np.random.default_rng(84)
    state = _random_state(rng, sg, vg)
    dt = 0.45 * sg.spacing / float(np.max(np.abs(vg.first_axis)))
    out = transport_step(state, _transport_plan(vg, sg, dt, order, stages))
    lam = vg.first_axis * (dt / sg.spacing)
    assert np.array_equal(out.f, bf.roll_transport(state.f, lam, order, stages))


def test_minmod_is_exact_where_the_slope_product_underflows():
    # a * b underflows to 0 once both slopes are below about 1e-154; the
    # limiter still returns the smaller slope there
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2e-300, -2e-300,
                      1.0, -1.0, 2.0, -2.0, np.inf, -np.inf])
    a, b = (grid.ravel() for grid in np.meshgrid(edges, edges))
    smaller = np.minimum(np.abs(a), np.abs(b))
    want = np.where(np.sign(a) == np.sign(b), np.sign(a) * smaller, 0.0)
    got = evolution._minmod(a, b.copy(), np.empty_like(a))
    assert np.array_equal(got, want)
    assert evolution._minmod(np.array([2e-300]), np.array([1e-300]), np.empty(1))[0] == 1e-300


def test_transport_conserves_mass(sgrid, vgrid):
    rng = np.random.default_rng(82)
    state = _random_state(rng, sgrid, vgrid)
    rho0, _ = moments(state.f, vgrid)
    mass0 = float(np.sum(rho0))
    for order in ("upwind1", "muscl2"):
        dt = 0.4 * sgrid.spacing / float(np.max(np.abs(vgrid.first_axis)))
        out = transport_step(state, _transport_plan(vgrid, sgrid, dt, order))
        rho1, _ = moments(out.f, vgrid)
        assert math.isclose(float(np.sum(rho1)), mass0, rel_tol=1e-13)


def test_transport_rejects_cfl_violation(sgrid, vgrid, kernel):
    vmax = float(np.max(np.abs(vgrid.first_axis)))
    with pytest.raises(ValueError, match="CFL"):
        plan_step(kernel, vgrid, sgrid,
                  ExperimentConfig(dt=1.5 * sgrid.spacing / vmax, splitting="lie"))
    # muscl2 halves the allowed Courant number
    with pytest.raises(ValueError, match="CFL"):
        plan_step(
            kernel,
            vgrid,
            sgrid,
            ExperimentConfig(dt=0.8 * sgrid.spacing / vmax, transport="muscl2",
                             splitting="lie"),
        )
    # Strang transports over dt / 2, so the same dt is admissible there
    plan = plan_step(kernel, vgrid, sgrid, ExperimentConfig(dt=1.5 * sgrid.spacing / vmax))
    assert (plan.mu == np.abs(vgrid.first_axis * (0.5 * plan.dt / sgrid.spacing))).all()
    assert float(np.max(plan.mu)) == pytest.approx(0.75, rel=1e-14)


def test_collision_step_rejects_oversized_dt(vgrid, kernel):
    # four cells keep the Strang half-step Courant number below one at the ceiling
    sg = build_spatial_grid(4)
    rng = np.random.default_rng(84)
    state = _random_state(rng, sg, vgrid)
    ceiling = collision_dt_ceiling(kernel, vgrid)
    with pytest.raises(ValueError, match="monotonicity ceiling"):
        plan_step(kernel, vgrid, sg, ExperimentConfig(dt=1.01 * ceiling))
    out = collision_step(state, plan_step(kernel, vgrid, sg, ExperimentConfig(dt=0.99 * ceiling)))
    assert float(out.f.min()) >= 0.0
    assert float(out.f.max()) <= 1.0


# (d_v, nodes per axis, kernel kind); custom_table is the saved d_v = 1 Gaussian table
SEED_STEP_KERNELS = [(1, 64, "constant"), (2, 16, "gaussian_bump"), (1, 64, "custom_table")]


@pytest.mark.parametrize("splitting", ["lie", "strang"])
@pytest.mark.parametrize("order", ["upwind1", "muscl2"])
@pytest.mark.parametrize("dim,n,kind", SEED_STEP_KERNELS,
                         ids=[kind for _, _, kind in SEED_STEP_KERNELS])
def test_step_matches_seed_oracle_bitwise(dim, n, kind, order, splitting, oracle_kernels):
    if kind == "custom_table":
        vg, kern, _ = oracle_kernels[dim, kind]
    else:
        vg = build_velocity_grid(dim, 8.0, n)
        kern = build_kernel(kind, vg)
    sg = build_spatial_grid(16)
    state = _random_state(np.random.default_rng(91), sg, vg)
    plan = _step_plan(kern, state, transport=order, splitting=splitting)
    f = state.f.copy()
    for _ in range(50):
        state = step(state, plan)
        f = bf.seed_step(f, kern, vg, sg, plan.dt, order, splitting)
        assert np.array_equal(state.f, f)


def test_collision_substep_orders(vgrid):
    # self-convergence: Euler is first order, the two-stage variant second
    sg = build_spatial_grid(4)
    kern = build_kernel("gaussian_bump", vgrid)
    rng = np.random.default_rng(85)
    lower, upper = fermi_profile(0.5, vgrid), fermi_profile(2.0, vgrid)
    f0 = lower[None, :] + rng.uniform(0.0, 1.0, (4, vgrid.n_nodes)) * (upper - lower)[None, :]

    def evolve(n, splitting):
        s = PhaseState(f=f0.copy(), time=0.0, vgrid=vgrid, sgrid=sg)
        plan = plan_step(kern, vgrid, sg, ExperimentConfig(dt=0.04 / n, splitting=splitting))
        for _ in range(n):
            s = collision_step(s, plan)
        return s.f

    # Lie takes Euler collision sub-steps, Strang the two-stage ones
    for splitting, window in (("lie", (0.8, 1.2)), ("strang", (1.8, 2.2))):
        sols = [evolve(8 * 2**k, splitting) for k in range(3)]
        errs = [float(np.max(np.abs(sols[k] - sols[k + 1]))) for k in range(2)]
        order = math.log2(errs[0] / errs[1])
        assert window[0] <= order <= window[1]


def test_collision_ceiling_is_computed_in_plan_step_never_in_step(sgrid, vgrid, monkeypatch):
    kern = build_kernel("gaussian_bump", vgrid)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return collision_dt_ceiling(*args)

    monkeypatch.setattr(evolution, "collision_dt_ceiling", counted)
    init = initial_state(sgrid, vgrid, 1.0, 0.5)
    plans = [_step_plan(kern, init.state, splitting=s) for s in ("lie", "strang")]
    assert calls == [2]  # one per plan

    def recomputed(*args):
        raise AssertionError("collision ceiling recomputed after the step was planned")

    monkeypatch.setattr(evolution, "collision_dt_ceiling", recomputed)
    monkeypatch.setattr(collision, "collision_dt_ceiling", recomputed)
    for plan in plans:
        step(init.state, plan)


def test_full_step_advances_time_exactly(sgrid, vgrid, kernel):
    # a sub-step's result keeps its input's time; `step` adds plan.dt once,
    # before its check sees the new state
    rng = np.random.default_rng(86)
    state = _random_state(rng, sgrid, vgrid)
    state.time = 3.25
    for splitting in ("strang", "lie"):
        plan = _step_plan(kernel, state, splitting=splitting)
        for sub_step in (transport_step, collision_step):
            assert sub_step(state, plan).time == 3.25
        checked = []
        out = step(state, plan, check=checked.append)
        assert checked == [out] and out.time == 3.25 + plan.dt
        assert state.time == 3.25


def test_step_preserves_bounds_on_random_states(sgrid, vgrid, kernel):
    rng = np.random.default_rng(87)
    plan = _step_plan(
        kernel, PhaseState(f=np.zeros((64, 64)), time=0.0, vgrid=vgrid, sgrid=sgrid)
    )
    for _ in range(25):
        state = _random_state(rng, sgrid, vgrid, kappa_lo=0.1, kappa_hi=5.0)
        for _ in range(3):
            state = step(state, plan)
        assert float(state.f.min()) >= 0.0
        assert float(state.f.max()) <= 1.0


def test_long_sandwich_preservation():
    # extreme admissible data on a tiny lattice, ten thousand steps
    vg = build_velocity_grid(1, 8.0, 8)
    sg = build_spatial_grid(8)
    kern = build_kernel("constant", vg)
    rng = np.random.default_rng(88)
    lower, upper = fermi_profile(0.2, vg), fermi_profile(5.0, vg)
    u = rng.uniform(0.0, 1.0, size=(8, 8))
    # push the draw onto the barriers in a quarter of the cells
    u[rng.uniform(size=(8, 8)) < 0.25] = 0.0
    u[rng.uniform(size=(8, 8)) < 0.25] = 1.0
    f = lower[None, :] + u * (upper - lower)[None, :]
    f = np.clip(f, lower[None, :], upper[None, :])  # exactly on the barriers
    state = PhaseState(f=f, time=0.0, vgrid=vg, sgrid=sg)
    plan = _step_plan(kern, state)
    violations = 0
    for _ in range(10_000):
        state = step(state, plan)
        if float(np.min(state.f - lower[None, :])) < 0.0:
            violations += 1
        if float(np.max(state.f - upper[None, :])) > 0.0:
            violations += 1
    assert violations == 0


def test_vanishing_kernel_reduces_to_transport(sgrid, vgrid):
    init = initial_state(sgrid, vgrid, 1.0, 0.5)
    weak = build_kernel("constant", vgrid, sigma0=1e-12)
    plan = _step_plan(weak, init.state)
    full = pure = init.state
    for _ in range(100):
        full = step(full, plan)
        pure = transport_step(pure, plan)
        pure = transport_step(pure, plan)
    assert float(np.max(np.abs(full.f - pure.f))) <= 1e-10


def test_splitting_self_convergence_orders(vgrid):
    sg = build_spatial_grid(32)
    vg = build_velocity_grid(1, 8.0, 32)
    kern = build_kernel("constant", vg)
    init = initial_state(sg, vg, 1.0, 0.5)
    base = plan_step(kern, vg, sg, ExperimentConfig(splitting="lie")).dt
    T = 0.25
    dt0 = T / math.ceil(T / base)

    def run(dt, splitting):
        plan = _step_plan(kern, init.state, dt, splitting=splitting)
        s = init.state
        for _ in range(round(T / dt)):
            s = step(s, plan)
        return s.f

    orders = {}
    finest = {}
    for splitting in ("strang", "lie"):
        sols = [run(dt0 / 2**k, splitting) for k in range(3)]
        errs = [float(np.max(np.abs(sols[k] - sols[k + 1]))) for k in range(2)]
        orders[splitting] = math.log2(errs[0] / errs[1])
        finest[splitting] = sols[0]
    assert 1.6 <= orders["strang"] <= 2.4
    assert 0.7 <= orders["lie"] <= 1.4
    # symmetric splitting lands much closer to the step-size limit
    ref = run(dt0 / 16, "strang")
    err_strang = float(np.max(np.abs(finest["strang"] - ref)))
    err_lie = float(np.max(np.abs(finest["lie"] - ref)))
    assert err_strang < err_lie / 10.0


def test_step_conserves_mass(sgrid, vgrid, kernel):
    rng = np.random.default_rng(89)
    state = _random_state(rng, sgrid, vgrid)
    rho0, _ = moments(state.f, vgrid)
    mass0 = float(np.sum(rho0))
    for splitting in ("strang", "lie"):
        out = step(state, _step_plan(kernel, state, splitting=splitting))
        rho1, _ = moments(out.f, vgrid)
        assert math.isclose(float(np.sum(rho1)), mass0, rel_tol=1e-13)


# (d_v, nodes per axis, kernel kind) of the workspace tests
WORKSPACE_KERNELS = [(1, 64, "constant"), (2, 16, "gaussian_bump")]


@pytest.mark.parametrize("splitting", ["lie", "strang"])
@pytest.mark.parametrize("order", ["upwind1", "muscl2"])
@pytest.mark.parametrize("dim,n,kind", WORKSPACE_KERNELS,
                         ids=[kind for _, _, kind in WORKSPACE_KERNELS])
def test_substeps_return_fresh_arrays(dim, n, kind, order, splitting):
    # the sub-steps build in the plan's workspace but return new arrays:
    # no result aliases its input, the workspace or an earlier result,
    # and a state kept from one call survives the next two unchanged
    vg = build_velocity_grid(dim, 8.0, n)
    sg = build_spatial_grid(8)
    state = _random_state(np.random.default_rng(92), sg, vg)
    plan = _step_plan(build_kernel(kind, vg), state, transport=order, splitting=splitting)
    for sub_step in (transport_step, collision_step, step):
        kept = []
        prev = state
        for _ in range(3):
            out = sub_step(prev, plan)
            for other in [prev.f, *plan.work] + [s.f for s, _ in kept]:
                assert not np.shares_memory(out.f, other)
            kept.append((out, out.f.copy()))
            prev = out
        for out, f in kept:
            assert np.array_equal(out.f, f)


def test_substeps_refuse_a_state_of_another_shape(sgrid, vgrid, kernel):
    plan = _step_plan(kernel, initial_state(sgrid, vgrid, 1.0, 0.5).state)
    other = _random_state(np.random.default_rng(93), build_spatial_grid(8), vgrid)
    for sub_step in (transport_step, collision_step, step):
        with pytest.raises(ValueError, match=r"state has shape \(8, 64\), the step plan \(64, 64\)"):
            sub_step(other, plan)


@pytest.mark.parametrize("order", ["upwind1", "muscl2"])
@pytest.mark.parametrize("dim,n,kind", WORKSPACE_KERNELS,
                         ids=[kind for _, _, kind in WORKSPACE_KERNELS])
def test_plan_tiles_repeat_their_row(dim, n, kind, order):
    # every row operand of the step is a C-contiguous (cells, nodes) tile
    # whose rows are the per-node row bit for bit
    vg = build_velocity_grid(dim, 8.0, n)
    sg = build_spatial_grid(8)
    plan = _step_plan(build_kernel(kind, vg), initial_state(sg, vg, 1.0, 0.5).state,
                      transport=order)
    mu = np.abs(vg.first_axis * (0.5 * plan.dt / sg.spacing))  # Strang: dt / 2
    rows = {"mu": mu, "maxwellian": vg.maxwellian}
    if order == "muscl2":
        muscl = 0.5 * mu * (1.0 - mu)
        muscl[: vg.n_nodes // 2] *= -1.0
        rows["muscl"] = muscl
    else:
        assert plan.muscl is None
    for name, row in rows.items():
        tile = getattr(plan, name)
        assert tile.shape == (sg.cells, vg.n_nodes)
        assert tile.flags.c_contiguous
        for cell_row in tile:
            assert np.array_equal(cell_row, row)


# Traced peak of one transport sub-step over state.f.nbytes. It was 2.04
# (1-d default) and 1.26 (32^2 nodes, 32 cells) while mu was a (nodes,)
# row: numpy's buffer for broadcasting it (min(size, 8192) doubles). With
# the tiles upwind1 allocates only its fresh result. muscl2 read 1.27 on
# the 1-d default while the limiter built sign masks; as one clip it is
# 1.03 there and 1.00 at 32^2 nodes.
@pytest.mark.parametrize("order,bound", [("upwind1", 1.05), ("muscl2", 1.05)])
@pytest.mark.parametrize("dim,n,cells,kind", [
    (1, 64, 64, "constant"), (2, 32, 32, "gaussian_bump"),
], ids=["1d-default", "2d-32sq"])
def test_transport_allocates_only_its_result(dim, n, cells, kind, order, bound):
    vg = build_velocity_grid(dim, 8.0, n)
    sg = build_spatial_grid(cells)
    state = initial_state(sg, vg, 1.0, 0.5).state
    plan = _step_plan(build_kernel(kind, vg), state, transport=order)
    state = transport_step(state, plan)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        transport_step(state, plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * state.f.nbytes


# Traced peak of one step over state.f.nbytes. When the sub-steps still
# allocated every temporary it was 7.26 (32^2 nodes, 32 cells), 8.15
# (16^2, 8 cells) and 5.07 (1-d default); with the workspace it is 2.26,
# 3.13 and 3.08, and the plan's tiles left it there. Two fresh sub-step
# results are alive at once; the rest is numpy's buffer (min(size, 8192)
# doubles) for the per-cell column operands of the collision, the rank-one
# S f and S G and the constant part of the scatter, which is a whole
# array on the two small lattices.
@pytest.mark.parametrize("dim,n,cells,kind,bound", [
    (2, 32, 32, "gaussian_bump", 2.5),
    (2, 16, 8, "gaussian_bump", 3.5),
    (1, 64, 64, "constant", 3.5),
], ids=["2d-32sq", "2d-16sq", "1d-default"])
def test_step_allocates_no_full_size_temporaries(dim, n, cells, kind, bound):
    vg = build_velocity_grid(dim, 8.0, n)
    sg = build_spatial_grid(cells)
    state = initial_state(sg, vg, 1.0, 0.5).state
    plan = _step_plan(build_kernel(kind, vg), state)
    state = step(state, plan)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(state, plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * state.f.nbytes


def test_nan_fails_the_collision_checks(sgrid, vgrid, kernel, monkeypatch):
    # each comparison is written so that NaN fails it
    state = initial_state(sgrid, vgrid, 1.0, 0.5).state
    plan = _step_plan(kernel, state)
    state.f[3, 5] = np.nan
    with pytest.raises(ValueError, match=r"occupation numbers must lie in \[0, 1\]"):
        step(state, plan)

    def nan_collision(f, *args, out, **kwargs):
        out[...] = np.nan
        return out

    monkeypatch.setattr(evolution, "apply_collision", nan_collision)
    state.f[3, 5] = 0.5
    with pytest.raises(RuntimeError, match=r"collision step left \[0, 1\]"):
        collision_step(state, plan)
