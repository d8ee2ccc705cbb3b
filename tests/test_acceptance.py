"""End-to-end acceptance checks at the desk scale.

Each test prints a single verdict line for its criterion; run with
`pytest -s tests/test_acceptance.py` to see all ten lines at once.
"""
import math
import subprocess
import sys

import numpy as np

from fermibolt.collision import apply_collision, build_kernel, collision_dt_ceiling
from fermibolt.config import ExperimentConfig, format_config
from fermibolt.equilibrium import fermi_profile, global_equilibrium, project
from fermibolt.evolution import (
    PhaseState,
    collision_step,
    initial_state,
    plan_step,
    step,
)
from fermibolt.experiment import AUDIT_DIST_FLOOR, modified_entropy, record_batch_size
from fermibolt.fields import FieldSet, build_spatial_grid, solve_poisson
from fermibolt.functionals import dissipation, relative_entropy
from fermibolt.velocity import build_velocity_grid, integrate

import _bruteforce as bf
from _artifacts import snapshot_states


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def test_criterion_01_mass_conservation(default_run):
    mass0 = default_run.records[0].mass
    drift = max(abs(r.mass - mass0) for r in default_run.records) / abs(mass0)
    _report(1, "mass-conservation", drift <= 1e-12, f"relative drift {drift:.3e}")


def test_criterion_02_bound_preservation(default_run):
    # the default trajectory: the final state must still sit inside the
    # Fermi-Dirac barriers of its initial data (every recorded step was
    # checked exactly during the run, or it would have aborted)
    init = bf.run_initial(default_run)
    f = default_run.final_state.f
    violations = int(np.sum(f < 0.0) + np.sum(f > 1.0))
    violations += int(np.sum(f < init.f_lower[None, :]))
    violations += int(np.sum(f > init.f_upper[None, :]))

    # one hundred randomized admissible initial conditions, a few steps each
    vg = build_velocity_grid(1, 8.0, 64)
    sg = build_spatial_grid(64)
    kernel = build_kernel("constant", vg, sigma0=1.0)
    plan = plan_step(kernel, vg, sg, ExperimentConfig())  # dt = auto
    rng = np.random.default_rng(2024)
    for trial in range(100):
        kappa_bar = float(10.0 ** rng.uniform(-0.5, 0.5))
        amplitude = float(rng.uniform(0.0, 0.9))
        perturbation = float(rng.uniform(0.0, 0.1))
        data = initial_state(
            sg, vg, kappa_bar, amplitude, perturbation=perturbation, seed=trial
        )
        state = data.state
        for _ in range(3):
            state = step(state, plan)
            f = state.f
            violations += int(np.sum(f < 0.0) + np.sum(f > 1.0))
            violations += int(np.sum(f < data.f_lower[None, :]))
            violations += int(np.sum(f > data.f_upper[None, :]))
    _report(
        2,
        "bound-preservation",
        violations == 0,
        f"{violations} violations over default run + 100 random starts",
    )


def test_criterion_03_entropy_decay(default_run):
    # no rise at all into a record above the distance floor, where the run's own check stops
    h = np.array([r.H for r in default_run.records])
    above = np.array([r.dist_total > AUDIT_DIST_FLOOR for r in default_run.records[1:]])
    max_rise = float(np.max(np.diff(h)[above]))
    monotone = max_rise <= 0.0

    # the entropy balance against the dissipation, checked on the
    # space-homogeneous dynamics where it is exact in the time limit:
    # the one-step defect H(t+dt) - H(t) + dt D(t) must shrink at first
    # order under dt-halving
    vg = build_velocity_grid(1, 8.0, 64)
    sg = build_spatial_grid(4)
    kernel = build_kernel("constant", vg, sigma0=1.0)
    rng = np.random.default_rng(33)
    lower = fermi_profile(0.5, vg)
    upper = fermi_profile(2.0, vg)
    cell = lower + rng.uniform(0.0, 1.0, vg.n_nodes) * (upper - lower)
    f0 = np.tile(cell, (4, 1))
    mass0 = float(integrate(cell, vg))
    eq = global_equilibrium(mass0, vg)
    h0 = relative_entropy(f0, eq.profile, 1.0 - eq.profile, vg, sg)
    d0 = dissipation(f0, kernel, vg, sg)
    dt0 = 0.5 * collision_dt_ceiling(kernel, vg)
    defects = []
    for k in range(4):
        dt = dt0 / 2.0**k
        state = PhaseState(f=f0.copy(), time=0.0, vgrid=vg, sgrid=sg)
        # a Lie plan takes one forward-Euler collision sub-step
        plan = plan_step(kernel, vg, sg, ExperimentConfig(dt=dt, splitting="lie"))
        after = collision_step(state, plan)
        h1 = relative_entropy(after.f, eq.profile, 1.0 - eq.profile, vg, sg)
        defects.append(abs(h1 - h0 + dt * d0))
    orders = [math.log2(defects[k] / defects[k + 1]) for k in range(3)]
    order_ok = min(orders) >= 0.95
    _report(
        3,
        "entropy-decay",
        monotone and order_ok,
        f"max rise {max_rise:.3e}, balance orders "
        + ", ".join(f"{o:.3f}" for o in orders),
    )


def test_criterion_04_equilibrium_fixed_point(fixed_point_run):
    res = fixed_point_run
    n_steps = math.ceil(res.config.t_final / res.config.dt - 1e-12)
    worst = max(r.dist_total for r in res.records)
    ok = n_steps >= 1000 and worst <= 1e-12
    _report(
        4,
        "equilibrium-fixed-point",
        ok,
        f"max dist_total {worst:.3e} over {n_steps} steps",
    )


def test_criterion_05_exponential_decay(
    default_run, refined_x_run, refined_v_run, refined_t_run
):
    rep = default_run.rate_report
    lam = rep.lambda_obs
    parts = [f"lambda {lam:.6f}, r2 {rep.r_squared:.5f}"]
    ok = lam > 0.0 and rep.r_squared >= 0.99
    for name, other in (
        ("x", refined_x_run),
        ("v", refined_v_run),
        ("t", refined_t_run),
    ):
        dev = abs(other.rate_report.lambda_obs - lam) / lam
        parts.append(f"{name}-refined dev {dev:.4f}")
        ok = ok and dev <= 0.10
    _report(5, "exponential-decay", ok, ", ".join(parts))


def test_criterion_06_lemma_audit(default_run):
    constants = default_run.rate_report.lemma_constants
    required = ("c1_min", "c6_min", "c9_min", "gronwall_ratio_min")
    ok = all(constants[key] > 0.0 for key in required)
    excess = constants["step1_excess_max"]
    ok = ok and excess <= 1e-8
    detail = ", ".join(f"{key} {constants[key]:.4f}" for key in required)
    _report(6, "lemma-audit", ok, detail + f", step1 excess {excess:.3e}")


def test_criterion_07_projection():
    vg = build_velocity_grid(1, 8.0, 64)
    rng = np.random.default_rng(777)
    lower = fermi_profile(0.3, vg)
    upper = fermi_profile(3.0, vg)
    barriered = lower + rng.uniform(0.0, 1.0, (500, 64)) * (upper - lower)
    plain = rng.uniform(0.01, 0.99, (500, 64))
    f = np.vstack([barriered, plain])
    proj, _ = project(f, vg)
    again, _ = project(proj, vg)
    idem = float(np.max(np.abs(again - proj)))
    dens = float(
        np.max(np.abs(integrate(proj, vg) - integrate(f, vg)))
        / np.min(integrate(f, vg))
    )
    first = integrate(proj * vg.first_axis[None, :], vg)
    third = integrate(proj * (vg.first_axis**3)[None, :], vg)
    odd = float(max(np.max(np.abs(first)), np.max(np.abs(third))))
    ok = idem <= 1e-10 and dens <= 1e-10 and odd == 0.0
    _report(
        7,
        "projection",
        ok,
        f"idempotence {idem:.3e}, density {dens:.3e}, odd moments {odd:.1e}",
    )


def test_criterion_08_bruteforce_equivalence(tiny_run):
    vg = tiny_run.final_state.vgrid
    sg = tiny_run.final_state.sgrid
    matrix = bf.bf_kernel_table(tiny_run.config.kernel, vg, tiny_run.config.sigma0)
    eq = tiny_run.equilibrium
    delta = tiny_run.config.delta
    t_rec = np.array([r.t for r in tiny_run.records])
    worst = 0.0
    worst_q = 0.0

    # a quantity that is identically zero at a sample (the initial state is
    # locally Fermi, so its local distance and dissipation are round-off on
    # both sides) supports no ratio; there both values must sit below a
    # round-off floor far beneath the smallest genuine sample value
    floor = 1e-13

    def rel(pkg_value, bf_value):
        if abs(bf_value) <= floor:
            assert abs(pkg_value) <= floor
            return 0.0
        return abs(pkg_value - bf_value) / abs(bf_value)

    for state in snapshot_states(tiny_run.output_dir):
        k = int(np.argmin(np.abs(t_rec - state.time)))
        rec = tiny_run.records[k]
        f = state.f

        h_bf = bf.bf_entropy(f, eq.profile, vg, sg)
        worst = max(worst, rel(rec.H, h_bf))

        d_bf = bf.bf_dissipation(f, matrix, vg, sg)
        worst = max(worst, rel(rec.D, d_bf))

        dist_bf = bf.bf_weighted_norm(f - eq.profile[None, :], vg, sg)
        worst = max(worst, rel(rec.dist_total, dist_bf))

        proj_bf, _ = bf.bf_project(f, vg)
        dl_bf = bf.bf_weighted_norm(f - proj_bf, vg, sg)
        worst = max(worst, rel(rec.dist_local, dl_bf))
        dh_bf = bf.bf_weighted_norm(proj_bf - eq.profile[None, :], vg, sg)
        worst = max(worst, rel(rec.dist_hydro, dh_bf))

        # E is derived from the record's H and pairing wherever it is read
        rho_bf, j_bf = bf.bf_moments(f, vg)
        _, grad_bf = bf.bf_poisson(rho_bf - eq.density, sg)
        fields_bf = FieldSet(rho=rho_bf, j=j_bf[:, 0], grad_phi=grad_bf)
        e_bf = bf.lyapunov_functional(f, eq.profile, fields_bf, delta, vg, sg)
        worst = max(worst, rel(modified_entropy([rec], delta)[0], e_bf))

        q_pkg = apply_collision(f, tiny_run.kernel, vg)
        for cell in range(sg.cells):
            q_bf = bf.bf_apply_collision(f[cell], matrix, vg)
            diff = float(np.max(np.abs(q_pkg[cell] - q_bf)))
            scale = float(np.max(np.abs(q_bf)))
            worst_q = max(worst_q, diff / max(scale, 1e-3))
    ok = worst <= 1e-12 and worst_q <= 1e-12
    _report(
        8,
        "bruteforce-equivalence",
        ok,
        f"worst functional rel err {worst:.3e}, collision rel err {worst_q:.3e}",
    )


def test_criterion_09_poisson_convergence():
    errors = []
    sizes = (16, 32, 64, 128)
    gauge_worst = 0.0
    for n in sizes:
        sg = build_spatial_grid(n)
        x = sg.centers
        rho = 1.0 + np.cos(2.0 * np.pi * x)
        phi, _ = solve_poisson(rho, 1.0, sg)
        exact = np.cos(2.0 * np.pi * x) / (4.0 * np.pi**2)
        errors.append(float(np.max(np.abs(phi - exact))))
        gauge_worst = max(gauge_worst, abs(float(np.mean(phi))))
    slope, _ = np.polyfit(np.log(sizes), np.log(errors), 1)
    order = -float(slope)
    ok = 1.9 <= order <= 2.1 and gauge_worst <= 1e-12
    _report(
        9,
        "poisson-convergence",
        ok,
        f"observed order {order:.4f}, worst gauge offset {gauge_worst:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    configs = {
        "default": ExperimentConfig(
            nodes_per_axis=16, spatial_cells=16, t_final=2.0, record_every=5
        ),
        # d_v = 2 runs the axis-separable Gaussian contractions as matmuls
        "bump2d": ExperimentConfig(
            d_v=2, nodes_per_axis=16, spatial_cells=8, kernel="gaussian_bump",
            t_final=0.2, record_every=5,
        ),
        # the default d_v = 2 lattice: one 64 x 64 x 64 product per cell
        "bump2d_64sq": ExperimentConfig(
            d_v=2, nodes_per_axis=64, spatial_cells=4, kernel="gaussian_bump",
            t_final=0.01, record_every=1,
        ),
        # one 128 x 64 x 64 product, which OpenBLAS splits across threads
        "bump1d_128": ExperimentConfig(
            nodes_per_axis=64, spatial_cells=128, kernel="gaussian_bump",
            t_final=0.05, record_every=5,
        ),
        # a record every step, ten a batch: the scatter runs on stacks of ten states
        "bump1d_batched": ExperimentConfig(
            nodes_per_axis=64, spatial_cells=16, kernel="gaussian_bump",
            t_final=0.5, record_every=1,
        ),
    }
    batched = configs["bump1d_batched"]
    assert record_batch_size(8 * batched.spatial_cells * batched.nodes_per_axis) == 10
    identical = True
    sizes = []
    for label, config in configs.items():
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text(format_config(config), encoding="utf-8")
        outputs = []
        for threads in (1, 2, 4):
            out_dir = tmp_path / label / str(threads)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "fermibolt",
                    "--threads",
                    str(threads),
                    "run",
                    str(cfg_path),
                    "--output-dir",
                    str(out_dir),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out_dir / "diagnostics.csv").read_bytes())
        identical = identical and outputs[0] == outputs[1] == outputs[2]
        sizes.append(f"{label} {len(outputs[0])} bytes")
    _report(
        10,
        "determinism",
        identical,
        f"{', '.join(sizes)}, thread counts 1, 2 and 4",
    )
