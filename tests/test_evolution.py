import math

import numpy as np
import pytest

from fermibolt import collision, evolution
from fermibolt.velocity import build_velocity_grid
from fermibolt.fields import build_spatial_grid, moments
from fermibolt.collision import build_kernel
from fermibolt.equilibrium import fermi_profile
from fermibolt.evolution import (
    PhaseState,
    SchemeConfig,
    cfl_max_dt,
    collision_dt_ceiling,
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


def _transport_plan(vgrid, sgrid, dt, order="upwind1"):
    """A Lie plan, so that one transport sub-step has length dt."""
    scheme = SchemeConfig(dt=dt, transport_order=order, splitting="lie")
    return plan_step(build_kernel("constant", vgrid), vgrid, sgrid, scheme)


def _step_plan(kernel, state, dt=None, **scheme):
    """The plan of a run at dt, by default the largest admissible one."""
    if dt is None:
        dt = cfl_max_dt(state, kernel, SchemeConfig(dt=1.0, **scheme))
    return plan_step(kernel, state.vgrid, state.sgrid, SchemeConfig(dt=dt, **scheme))


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
    assert init.kappa_minus == 0.5
    assert init.kappa_plus == 1.5
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
    init = initial_state(sgrid, vgrid, 1.0, 0.5)
    scheme = SchemeConfig(dt=1.0)
    vmax = float(np.max(np.abs(vgrid.first_axis)))
    expected = 0.9 * min(sgrid.spacing / vmax, ceiling)
    assert math.isclose(cfl_max_dt(init.state, kernel, scheme), expected, rel_tol=1e-14)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, cfl_safety=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, transport_order="weno5")
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, splitting="godunov")


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
            out = transport_step(state, _transport_plan(vgrid, sgrid, dt, order),
                                 stages=stages)
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
    out = transport_step(state, _transport_plan(vg, sg, dt, order), stages=stages)
    lam = vg.first_axis * (dt / sg.spacing)
    assert np.array_equal(out.f, bf.roll_transport(state.f, lam, order, stages))


def test_transport_conserves_mass(sgrid, vgrid):
    rng = np.random.default_rng(82)
    state = _random_state(rng, sgrid, vgrid)
    rho0, _ = moments(state.f, vgrid)
    mass0 = float(np.sum(rho0))
    for order in ("upwind1", "muscl2"):
        dt = 0.4 * sgrid.spacing / float(np.max(np.abs(vgrid.first_axis)))
        out = transport_step(state.copy(), _transport_plan(vgrid, sgrid, dt, order))
        rho1, _ = moments(out.f, vgrid)
        assert math.isclose(float(np.sum(rho1)), mass0, rel_tol=1e-13)


def test_transport_rejects_cfl_violation(sgrid, vgrid, kernel):
    vmax = float(np.max(np.abs(vgrid.first_axis)))
    with pytest.raises(ValueError, match="CFL"):
        plan_step(kernel, vgrid, sgrid,
                  SchemeConfig(dt=1.5 * sgrid.spacing / vmax, splitting="lie"))
    # muscl2 halves the allowed Courant number
    with pytest.raises(ValueError, match="CFL"):
        plan_step(
            kernel,
            vgrid,
            sgrid,
            SchemeConfig(dt=0.8 * sgrid.spacing / vmax, transport_order="muscl2",
                         splitting="lie"),
        )
    # Strang transports over dt / 2, so the same dt is admissible there
    plan = plan_step(kernel, vgrid, sgrid, SchemeConfig(dt=1.5 * sgrid.spacing / vmax))
    assert plan.transport_dt == 0.5 * plan.dt
    assert float(np.max(plan.mu)) == pytest.approx(0.75, rel=1e-14)


def test_collision_step_rejects_oversized_dt(vgrid, kernel):
    # four cells keep the Strang half-step Courant number below one at the ceiling
    sg = build_spatial_grid(4)
    rng = np.random.default_rng(84)
    state = _random_state(rng, sg, vgrid)
    ceiling = collision_dt_ceiling(kernel, vgrid)
    with pytest.raises(ValueError, match="monotonicity ceiling"):
        plan_step(kernel, vgrid, sg, SchemeConfig(dt=1.01 * ceiling))
    out = collision_step(state, plan_step(kernel, vgrid, sg, SchemeConfig(dt=0.99 * ceiling)))
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
    plan = _step_plan(kern, state, transport_order=order, splitting=splitting)
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

    def evolve(n, stages):
        s = PhaseState(f=f0.copy(), time=0.0, vgrid=vgrid, sgrid=sg)
        plan = plan_step(kern, vgrid, sg, SchemeConfig(dt=0.04 / n))
        for _ in range(n):
            s = collision_step(s, plan, stages=stages)
        return s.f

    for stages, window in ((1, (0.8, 1.2)), (2, (1.8, 2.2))):
        sols = [evolve(8 * 2**k, stages) for k in range(3)]
        errs = [float(np.max(np.abs(sols[k] - sols[k + 1]))) for k in range(2)]
        order = math.log2(errs[0] / errs[1])
        assert window[0] <= order <= window[1]


def test_step_reads_the_stored_collision_ceiling(sgrid, vgrid, monkeypatch):
    kern = build_kernel("gaussian_bump", vgrid)
    assert kern.dt_ceiling == collision_dt_ceiling(kern, vgrid)

    def recomputed(*args):
        raise AssertionError("collision ceiling recomputed after the kernel build")

    monkeypatch.setattr(collision, "collision_dt_ceiling", recomputed)
    monkeypatch.setattr(evolution, "collision_dt_ceiling", recomputed)
    init = initial_state(sgrid, vgrid, 1.0, 0.5)
    for splitting in ("lie", "strang"):
        step(init.state.copy(), _step_plan(kern, init.state, splitting=splitting))


def test_full_step_advances_time_exactly(sgrid, vgrid, kernel):
    rng = np.random.default_rng(86)
    state = _random_state(rng, sgrid, vgrid)
    state.time = 3.25
    for splitting in ("strang", "lie"):
        plan = _step_plan(kernel, state, splitting=splitting)
        out = step(state.copy(), plan)
        assert out.time == 3.25 + plan.dt


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
    full = init.state.copy()
    pure = init.state.copy()
    for _ in range(100):
        full = step(full, plan)
        pure = transport_step(pure, plan, stages=2)
        pure = transport_step(pure, plan, stages=2)
    assert float(np.max(np.abs(full.f - pure.f))) <= 1e-10


def test_splitting_self_convergence_orders(vgrid):
    sg = build_spatial_grid(32)
    vg = build_velocity_grid(1, 8.0, 32)
    kern = build_kernel("constant", vg)
    init = initial_state(sg, vg, 1.0, 0.5)
    base = cfl_max_dt(init.state, kern, SchemeConfig(dt=1.0))
    T = 0.25
    dt0 = T / math.ceil(T / base)

    def run(dt, splitting):
        plan = _step_plan(kern, init.state, dt, splitting=splitting)
        s = init.state.copy()
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
        out = step(state.copy(), _step_plan(kernel, state, splitting=splitting))
        rho1, _ = moments(out.f, vgrid)
        assert math.isclose(float(np.sum(rho1)), mass0, rel_tol=1e-13)


def test_state_copy_is_deep(sgrid, vgrid):
    rng = np.random.default_rng(90)
    state = _random_state(rng, sgrid, vgrid)
    state.kappa_cache = np.ones(sgrid.cells)
    dup = state.copy()
    dup.f[0, 0] = 0.123
    dup.kappa_cache[0] = 9.0
    assert state.f[0, 0] != 0.123
    assert state.kappa_cache[0] == 1.0
