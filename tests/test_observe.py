"""The record pass: `observe` and `_diagnose` against the pre-observe oracle.

A run diagnoses its records in batches of K stacked states
(`experiment.record_batch_size`). Every record field and every kappa
field must equal the oracle's, which diagnoses one state at a time, bit
for bit, except D of a gaussian_bump run, which must agree to D_REL_TOL;
the trajectories cover K = 1, K > 1, a partial last batch and a K > 1
gaussian_bump run. The traced layer functions must each see one call per
batch, and `project` one per record.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fermibolt import cli, experiment
from fermibolt.collision import build_kernel, collision_dt_ceiling
from fermibolt.config import ConfigError, ExperimentConfig, format_config
from fermibolt.equilibrium import fermi_profile, project, solve_kappa_many
from fermibolt.evolution import initial_state, plan_step, step
from fermibolt.experiment import (AUDIT_DIST_FLOOR, AUDIT_START, DELTA_WINDOW, SNAPSHOT_STRIDE,
                                  observe, run_experiment)
from fermibolt.functionals import RECORD_FIELDS
from fermibolt.velocity import build_velocity_grid, integrate

import _bruteforce as bf
from _artifacts import snapshot_states

TRAJECTORIES = {
    "1d-constant-upwind1": dict(nodes_per_axis=16, spatial_cells=16, t_final=1.5,
                                record_every=3),
    # the delta window closes 2 steps off the record grid
    "1d-muscl2-auto": dict(nodes_per_axis=16, spatial_cells=16, transport="muscl2",
                           t_final=5.6, record_every=4, delta=None),
    "2d-gaussian_bump-16sq": dict(d_v=2, nodes_per_axis=16, spatial_cells=8,
                                  kernel="gaussian_bump", t_final=0.3, record_every=2),
    # 96 KiB states: too large for two in a batch
    "1d-128x96-one-per-batch": dict(nodes_per_axis=128, spatial_cells=96, t_final=0.035,
                                    record_every=1),
    # the default lattice, five 32 KiB states a batch; 15 records end in a batch of four
    "1d-64x64-partial-batch": dict(t_final=0.1, record_every=2),
    # the 1-d Gaussian scatter's matmul on a stack of ten
    "1d-gaussian_bump-64": dict(nodes_per_axis=64, spatial_cells=16, kernel="gaussian_bump",
                                t_final=0.5, record_every=1),
}
# (K, whether the last batch holds fewer than K records) of each trajectory
BATCH_SHAPES = {
    "1d-constant-upwind1": (10, True),
    "1d-muscl2-auto": (10, True),
    "2d-gaussian_bump-16sq": (10, True),
    "1d-128x96-one-per-batch": (1, False),
    "1d-64x64-partial-batch": (5, True),
    "1d-gaussian_bump-64": (10, True),
}


def test_trajectories_cover_every_batch_shape():
    shapes = {}
    for name, keys in TRAJECTORIES.items():
        config = ExperimentConfig(**keys)
        vgrid, sgrid, kernel = experiment.build_lattice(config)
        plan = plan_step(kernel, vgrid, sgrid, config)
        n_steps = math.ceil(config.t_final / plan.dt - 1e-12)
        n_records = len([k for k in range(n_steps + 1)
                         if k % config.record_every == 0 or k == n_steps])
        # the run's K, from its state's byte size
        size = experiment.record_batch_size(plan.work[0].nbytes)
        # record 0 is a batch of its own, then K records a batch
        shapes[name] = (size, (n_records - 1) % size != 0)
    assert shapes == BATCH_SHAPES


D_REL_TOL = 1e-14  # column D of a gaussian_bump run against the einsum oracle


def _columns(records):
    return np.array([r.as_row() for r in records])


@pytest.fixture(scope="module", params=sorted(TRAJECTORIES))
def observed_run(request, tmp_path_factory):
    config = ExperimentConfig(perturbation=1e-3, seed=5, **TRAJECTORIES[request.param])
    return run_experiment(config, output_dir=str(tmp_path_factory.mktemp("observed")))


def test_records_match_seed_oracle_bitwise(observed_run):
    records, kappas = bf.seed_records(observed_run)
    assert len(records) == len(observed_run.records) > 10
    got, want = _columns(observed_run.records), _columns(records)
    if observed_run.kernel.kind == "gaussian_bump":
        # D goes through kernel.scatter, whose Gaussian part is a BLAS matmul;
        # the oracle keeps the einsum, so the sums round differently
        d = RECORD_FIELDS.index("D")
        assert np.allclose(got[:, d], want[:, d], rtol=D_REL_TOL, atol=0.0)
        got[:, d] = want[:, d]
    assert got.tobytes() == want.tobytes()
    # the kappa field each record leaves as the next warm start
    states = snapshot_states(observed_run.output_dir)
    assert len(states) == len(range(0, len(records), SNAPSHOT_STRIDE))
    for i, state in enumerate(states):
        assert np.array_equal(state.kappa_cache, kappas[SNAPSHOT_STRIDE * i])
    assert np.array_equal(observed_run.final_state.kappa_cache, kappas[-1])


def test_observe_is_pure(observed_run):
    state = snapshot_states(observed_run.output_dir)[-1]
    eq = observed_run.equilibrium
    f, warm = state.f.copy(), state.kappa_cache.copy()
    # the snapshot as a batch of one, as `fermibolt audit` observes it
    fields, proj, kappa = observe(state.f[None], eq, state.kappa_cache, state.vgrid,
                                  state.sgrid)
    assert np.array_equal(state.f, f) and np.array_equal(state.kappa_cache, warm)
    assert proj.shape == (1,) + f.shape and kappa.shape == (1,) + warm.shape
    want_proj, want_kappa = bf.seed_project(f, state.vgrid, kappa_cache=warm)
    assert np.array_equal(proj[0], want_proj) and np.array_equal(kappa[0], want_kappa)
    rho, j = bf.seed_moments(f, state.vgrid)
    _, grad_phi = bf.seed_solve_poisson(rho, eq.density, state.sgrid)
    for got, want in ((fields.rho, rho), (fields.j, j[:, 0]), (fields.grad_phi, grad_phi)):
        assert np.array_equal(got[0], want)
    # a cold start reaches the same density
    _, _, cold = observe(f[None], eq, None, state.vgrid, state.sgrid)
    assert np.allclose(cold, kappa, rtol=1e-10, atol=0.0)


@pytest.fixture(scope="module", params=[(1, 64), (2, 16)], ids=["1d", "2d"])
def kappa_targets(request):
    dim, n = request.param
    grid = build_velocity_grid(dim, 8.0, n)
    saturation = float(np.sum(grid.weights))
    rng = np.random.default_rng(91)
    targets = np.concatenate([
        rng.uniform(1e-3, 0.9, 40) * saturation,
        [1e-12, 1e-6, 0.5 * saturation, (1.0 - 1e-9) * saturation],
    ])
    return grid, targets


def test_solve_kappa_many_matches_seed_oracle_from_cold_starts(kappa_targets):
    grid, targets = kappa_targets
    got, _ = solve_kappa_many(targets, grid)
    assert np.array_equal(got, bf.seed_solve_kappa_many(targets, grid))


@pytest.mark.parametrize("start", [1e30, 1e6, 1e-300])
def test_solve_kappa_many_matches_seed_oracle_outside_the_bracket(kappa_targets, start):
    # From 1e30 and 1e6 the first Newton steps leave the bracket, so the
    # iteration bisects before Newton takes over.
    grid, targets = kappa_targets
    initial = np.full_like(targets, start)
    got, _ = solve_kappa_many(targets, grid, initial=initial)
    assert np.array_equal(got, bf.seed_solve_kappa_many(targets, grid, initial=initial))


@pytest.mark.filterwarnings("error")  # the first slopes overflow, without a warning
def test_solve_kappa_many_restarts_a_runaway_warm_start_cold(kappa_targets):
    # From 1e300 the bisection halves for over 900 steps, past MAX_NEWTON_ITER;
    # the solve then restarts from the cold estimate.
    grid, targets = kappa_targets
    got, _ = solve_kappa_many(targets, grid, initial=np.full_like(targets, 1e300))
    assert np.array_equal(got, solve_kappa_many(targets, grid)[0])


def test_project_returns_the_profile_of_its_kappa(kappa_targets):
    grid, _ = kappa_targets
    rng = np.random.default_rng(92)
    f = fermi_profile(rng.uniform(0.2, 5.0, 12), grid) * rng.uniform(0.9, 1.0, (12, 1))
    proj, kappa = project(f, grid)
    assert np.array_equal(proj, fermi_profile(kappa, grid))
    proj_rho, kappa_rho = project(f, grid, rho=integrate(f, grid))
    assert np.array_equal(proj_rho, proj) and np.array_equal(kappa_rho, kappa)


# The benchmark trace wraps these names in `experiment`; record work done
# outside them is time the trace cannot attribute. A record pass calls each
# once per batch, `weighted_norm` three times, and `project` once per record.
TRACED = ("moments", "solve_poisson", "project", "weighted_norm", "relative_entropy",
          "dissipation", "field_current_pairing")
PER_BATCH = {"moments": 1, "solve_poisson": 1, "weighted_norm": 3, "relative_entropy": 1,
             "dissipation": 1, "field_current_pairing": 1}


@pytest.mark.parametrize("delta", [0.01, None], ids=["pinned", "auto"])
def test_traced_layers_see_every_record_once(delta, monkeypatch):
    calls = {name: [0, 0] for name in TRACED}  # outside, inside the audit
    in_audit = [0]
    audit_calls = []  # the time of the record each audit call folds
    batches = []  # the records of each batch `moments` sees outside the audit

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name][in_audit[0]] += 1
            if name == "moments" and not in_audit[0]:
                batches.append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    def audit(*args, **kwargs):
        audit_calls.append(args[3].t)
        in_audit[0] = 1
        try:
            return real_audit(*args, **kwargs)
        finally:
            in_audit[0] = 0

    real_audit = experiment.audit_proof_chain
    for name in TRACED:
        monkeypatch.setattr(experiment, name, counted(name, getattr(experiment, name)))
    monkeypatch.setattr(experiment, "audit_proof_chain", audit)
    # on 8 cells the delta window closes at step 156, 2 steps off the record
    # grid; an auto run chooses delta from its records and observes nothing more
    config = ExperimentConfig(nodes_per_axis=8, spatial_cells=8, t_final=5.5,
                              record_every=7, delta=delta)
    result = run_experiment(config)
    assert result.rate_report.lemma_constants
    n_records = len(result.records)
    size = experiment.record_batch_size(result.final_state.f.nbytes)
    # record 0 alone, then full batches, then the rest
    full, rest = divmod(n_records - 1, size)
    assert size == SNAPSHOT_STRIDE and rest
    assert batches == [1] + [size] * full + [rest]
    # the initial mass is an `integrate` of the density alone, not a `moments` call
    want = {name: per * len(batches) for name, per in PER_BATCH.items()}
    want["project"] = n_records
    assert {name: c[0] for name, c in calls.items()} == want

    # one fold per interior snapshot record, made from that record's observation
    audited = [result.records[k] for k in range(SNAPSHOT_STRIDE, n_records - 1, SNAPSHOT_STRIDE)]
    n_audited = len(audited)
    assert n_audited >= 1
    assert audit_calls == [r.t for r in audited]
    inside = {name: c[1] for name, c in calls.items()}
    # the collision norm, once per state whose local distance supports a ratio
    n_normed = sum(1 for r in audited if r.dist_local > AUDIT_DIST_FLOOR)
    assert 1 <= inside.pop("weighted_norm") == n_normed
    assert inside == {"moments": 0, "solve_poisson": n_audited, "project": 0,
                      "relative_entropy": 0, "dissipation": 0,
                      "field_current_pairing": 0}


# ----------------------------------------------------- over-limit dt in the CLI

@pytest.mark.parametrize("limit", ["courant", "ceiling"])
def test_cli_run_refuses_an_over_limit_dt(limit, tmp_path, capsys):
    vgrid = build_velocity_grid(1, 8.0, 16)
    vmax = float(np.max(np.abs(vgrid.first_axis)))
    if limit == "courant":
        largest = (1.0 / 16) / vmax  # Lie transports over the whole dt
        config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, splitting="lie",
                                  dt=2.0 * largest)
        name = "CFL condition"
    else:
        config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, sigma0=100.0)
        largest = collision_dt_ceiling(build_kernel("constant", vgrid, sigma0=100.0), vgrid)
        config.dt = 2.0 * largest
        name = "monotonicity ceiling"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and name in lines[0]
    shown = float(lines[0].rsplit("the largest admissible dt is ", 1)[1])
    assert math.isclose(shown, largest, rel_tol=1e-5)
    assert not out.exists()


BAD_CONFIGS = {
    "unknown-key": ("nodes_per_axis = 16\nnodes = 3", "line 2: unknown key 'nodes'"),
    "odd-lattice": ("nodes_per_axis = 7", "nodes_per_axis must be even, got 7"),
    "d_v-3": ("d_v = 3", "velocity dimension must be 1 or 2, got 3"),
    "narrow-box": ("half_width = 2", "half_width must be >= 4, got 2.0"),
    "three-cells": ("spatial_cells = 3", "need at least 4 spatial cells, got 3"),
    "missing-kernel-file": ("kernel = custom_table\nkernel_file = {tmp}/absent.txt",
                            "[Errno 2] No such file or directory: '{tmp}/absent.txt'"),
}
# values that once ended in a traceback, a run that raised after writing,
# or a silent NaN run; on an 8 x 8 lattice, the value on line 3
NON_FINITE = {
    "t_final-nan": "t_final = nan",
    "dt-nan": "dt = nan",
    "t_final-inf": "t_final = inf",
    "kappa_bar-inf": "kappa_bar = inf",
    "half_width-nan": "half_width = nan",
    "sigma0-nan": "sigma0 = nan",
    "delta-nan": "delta = nan",
    "dt-inf": "dt = inf",
}
for name, line in NON_FINITE.items():
    key, value = line.split(" = ")
    BAD_CONFIGS[name] = ("nodes_per_axis = 8\nspatial_cells = 8\n" + line,
                         f"line 3: {key!r} must be a finite number, got {value!r}")
BAD_CONFIGS["negative-seed"] = ("nodes_per_axis = 8\nspatial_cells = 8\n"
                                "perturbation = 0.001\nseed = -5",
                                "seed must be nonnegative, got -5")
# a valid config whose upper barrier rounds to 1 on 16 nodes: it once
# wrote the manifest and the CSV header, then ended in a traceback
BAD_CONFIGS["saturated-barriers"] = ("nodes_per_axis = 16\nspatial_cells = 16\nkappa_bar = 1e17",
                                     "kappa_bar = 1e+17 with amplitude = 0.5: the barrier "
                                     "profiles span [0.9999178483001944, 1.0], not inside (0, 1)")


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_run_reports_a_bad_config_file(tmp_path, capsys, case):
    # a malformed file and a lattice or kernel file that cannot be built
    # end the same way: one stderr line, exit code 2, no artifacts
    text, message = (part.format(tmp=tmp_path) for part in BAD_CONFIGS[case])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"run failed: {message}"]
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_a_negative_seed_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nodes_per_axis = 8\nspatial_cells = 8\nperturbation = 0.001\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--seed", "-1", "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["run failed: seed must be nonnegative, got -1"]
    assert not out.exists()


def test_cli_run_refuses_a_state_over_the_budget(tmp_path, capsys, monkeypatch):
    # one 1024 x 64 state is 512 KiB; the refusal comes before any of the
    # run's state-sized arrays exists
    monkeypatch.setattr(experiment, "STATE_BUDGET_BYTES", 2**20)
    message = ("1024 cells x 64 velocity nodes: the run's 12 resident state "
               "arrays take 6291456 bytes (6 MiB), over the 1 MiB budget")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            run_experiment(ExperimentConfig(spatial_cells=1024), output_dir=str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 64 * 2**10
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spatial_cells = 1024\n", encoding="utf-8")
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"run failed: {message}"]
    assert not out.exists()


# lattices whose refusal once came only after build_lattice, or never
OVER_BUDGET = {
    # the 4096 x 4096 Gaussian factor; the 12 states take under 2 MiB
    "1d-gaussian_bump-4096": ("kernel = gaussian_bump\nnodes_per_axis = 4096\n"
                              "spatial_cells = 4\n",
                              "gaussian_bump kernel: its 4096 x 4096 table takes "
                              "134217728 bytes (128 MiB), over the 64 MiB budget"),
    "2d-constant-2048sq": ("d_v = 2\nnodes_per_axis = 2048\nspatial_cells = 4\n",
                           "4 cells x 4194304 velocity nodes: the run's 12 resident "
                           "state arrays take 1610612736 bytes (1536 MiB), over the "
                           "512 MiB budget"),
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET))
def test_cli_run_refuses_an_over_budget_lattice_from_the_config(tmp_path, capsys,
                                                                 monkeypatch, case):
    def allocated(*args):
        raise AssertionError("the velocity lattice was built before the budget check")

    monkeypatch.setattr(experiment, "build_velocity_grid", allocated)
    text, message = OVER_BUDGET[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"run failed: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(OVER_BUDGET))
def test_cli_audit_refuses_an_over_budget_lattice_from_the_manifest(tmp_path, capsys,
                                                                    monkeypatch, case):
    def allocated(*args):
        raise AssertionError("the velocity lattice was built before the budget check")

    monkeypatch.setattr(experiment, "build_velocity_grid", allocated)
    text, message = OVER_BUDGET[case]
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    manifest = snapshots / "manifest.cfg"
    manifest.write_text(text, encoding="utf-8")
    csv = tmp_path / "diagnostics.csv"
    csv.write_text(",".join(RECORD_FIELDS) + "\n", encoding="utf-8")
    assert cli.main(["audit", str(csv), str(snapshots)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"audit failed: {manifest}: {message}"]


def test_resident_states_counts_the_plan_layout():
    # the plan's (cells, nodes) arrays plus the run's own five: the two
    # barrier tiles, the current state, a step's two fresh results
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=8, transport="muscl2")
    vgrid, sgrid, kernel = experiment.build_lattice(config)
    plan = plan_step(kernel, vgrid, sgrid, config)
    arrays = [value for field in vars(plan).values()
              for value in (field if isinstance(field, tuple) else (field,))
              if isinstance(value, np.ndarray)]
    assert all(a.shape == (sgrid.cells, vgrid.n_nodes) for a in arrays)
    assert len(arrays) + 5 == experiment.RESIDENT_STATES


def test_cli_run_refuses_an_oversized_kernel_table(tmp_path, capsys):
    # a header-only table on the matching 64^2 lattice: 4096^2 doubles, refused
    # from the config before the file is read
    table = tmp_path / "table.txt"
    table.write_text("4096\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d_v = 2\nkernel = custom_table\nkernel_file = {table}\n",
                   encoding="utf-8")
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "run failed: custom_table kernel: its 4096 x 4096 table takes "
        "134217728 bytes (128 MiB), over the 64 MiB budget"
    ]
    assert not (tmp_path / "out").exists()


# ------------------------------------------------ the record pass's memory

def _batched(config, steps=3):
    """(batch, times, warm, rplan, plan): one full batch, as a run stacks it, of the
    records after a few steps of a perturbed run of `config`, and their warm start."""
    vgrid, sgrid, kernel = experiment.build_lattice(config)
    state = initial_state(sgrid, vgrid, config.kappa_bar, config.amplitude,
                          perturbation=config.perturbation, seed=config.seed).state
    plan = plan_step(kernel, vgrid, sgrid, config)
    eq = experiment.global_equilibrium(float(np.sum(integrate(state.f, vgrid))) * sgrid.spacing,
                                       vgrid)
    rplan = experiment.plan_records(kernel, eq, plan, vgrid, sgrid)
    for _ in range(steps):
        state = step(state, plan)
    warm = state.kappa_cache
    states = []
    for _ in range(rplan.size):
        state = step(state, plan)
        states.append(state)
    if rplan.stack is None:
        batch = state.f[None]
    else:
        batch = rplan.stack
        for slot, recorded in zip(batch, states):
            slot[...] = recorded.f
    return batch, [s.time for s in states], warm, rplan, plan


RECORD_LATTICES = {
    "1d-default": dict(),  # five states a batch
    "2d-32sq": dict(d_v=2, nodes_per_axis=32, spatial_cells=32, kernel="gaussian_bump"),
}


@pytest.fixture(scope="module", params=sorted(RECORD_LATTICES))
def batched(request):
    config = ExperimentConfig(perturbation=1e-3, seed=7, **RECORD_LATTICES[request.param])
    return _batched(config)


def _traced_peak(call):
    call()  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _last_state(batch, times, seen, rplan):
    """The batch's last record, a snapshot record in a run, as the fold sees it."""
    return experiment.PhaseState(batch[-1], times[-1], rplan.vgrid, rplan.sgrid, seen[2][-1])


# Traced peak of one record pass (`_diagnose`) over its batch's nbytes, and
# of one audit fold over its state's. With their own temporaries they were
# 8.2 and 8.7 on the 1-d default and 9.3 and 8.0 at 32^2 nodes over 32 cells,
# one state a pass. In the workspaces they are 1.53 and 1.74 on the 1-d
# default (a batch of five) and 2.27 and 0.80 at 32^2 (a batch of one). Two
# arrays of the batch's shape remain: the projection, and in `dissipation`
# the 2-d Gaussian scatter's matmul intermediate. The slack is numpy's ufunc
# buffers for broadcast operands, min(size, 8192) doubles each and at most
# two at once (a column times a row), plus per-cell vectors.
def _record_pass_bound(f):
    return 2 * f.nbytes + 2 * 8 * min(f.size, 8192) + 16 * 2**10


def test_record_pass_allocates_two_states_at_most(batched):
    batch, times, warm, rplan, _ = batched
    peak = _traced_peak(lambda: experiment._diagnose(batch, times, warm, rplan))
    assert peak <= _record_pass_bound(batch)


def test_audit_fold_allocates_two_states_at_most(batched):
    batch, times, warm, rplan, plan = batched
    records, seen = experiment._diagnose(batch, times, warm, rplan)
    state, record = _last_state(batch, times, seen, rplan), records[-1]
    # every branch of the fold runs
    assert min(record.dist_local, record.dist_hydro) > AUDIT_DIST_FLOOR
    out = dict(AUDIT_START)
    peak = _traced_peak(lambda: experiment.audit_proof_chain(
        out, state, experiment._record_of(seen, -1), record, kernel=rplan.kernel, eq=rplan.eq,
        work=plan.work))
    assert peak <= _record_pass_bound(state.f)


def test_audit_fold_cross_terms_match_a_roll_oracle(batched):
    # the fold's terms that difference along the cells, each with np.roll along
    # axis 0 of the (cells, nodes) field and plain sums over the nodes
    batch, times, warm, rplan, plan = batched
    records, seen = experiment._diagnose(batch, times, warm, rplan)
    state, record = _last_state(batch, times, seen, rplan), records[-1]
    fields, proj, _ = experiment._record_of(seen, -1)
    vg, sg, dl, dh = state.vgrid, state.sgrid, record.dist_local, record.dist_hydro
    out = dict(AUDIT_START)
    experiment.audit_proof_chain(out, state, (fields, proj, seen[2][-1]), record,
                                 kernel=rplan.kernel, eq=rplan.eq)

    def gradient(u):
        return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * sg.spacing)

    v1, weights = vg.first_axis, vg.weights
    _, dgrad_dt = bf.seed_solve_poisson(-gradient(fields.j), 0.0, sg)
    q_second = np.sum((proj - rplan.eq.profile) * v1**2 * weights, axis=-1)
    flux2 = np.sum(gradient(state.f - proj) * v1**2 * weights, axis=-1)
    q = bf.dense_apply_collision(state.f, bf.bf_kernel_table(rplan.kernel.kind, vg), vg)
    flux_q = np.sum(q * v1 * weights, axis=-1)
    want = {
        "step1_excess_max": np.sum(dgrad_dt * fields.j) * sg.spacing - vg.dim * dl**2,
        "c9_min": np.sum(fields.grad_phi * gradient(q_second)) * sg.spacing / dh**2,
        "c10_max": -np.sum(fields.grad_phi * flux2) * sg.spacing / (dl * dh),
        "c11_max": np.sum(fields.grad_phi * flux_q) * sg.spacing / (dl * dh),
    }
    for key, value in want.items():
        assert math.isclose(out[key], value, rel_tol=1e-9, abs_tol=1e-15), key


def test_record_pass_reads_nothing_stale_from_its_workspace(batched):
    # workspaces full of NaN give the records and the audit of fresh scratch
    batch, times, warm, rplan, plan = batched
    f = batch.copy()
    dirty = dataclasses.replace(rplan, work=tuple(np.full((4,) + batch.shape, np.nan)))
    records, seen = experiment._diagnose(batch, times, warm, dirty)
    want, want_seen = experiment._diagnose(batch, times, warm,
                                           dataclasses.replace(rplan, work=None))
    assert np.array([r.as_row() for r in records]).tobytes() == \
        np.array([r.as_row() for r in want]).tobytes()
    for got, ref in zip(seen[1:] + (seen[0].rho, seen[0].j, seen[0].grad_phi),
                        want_seen[1:] + (want_seen[0].rho, want_seen[0].j,
                                         want_seen[0].grad_phi)):
        assert np.array_equal(got, ref)
    state = _last_state(batch, times, seen, rplan)
    got_audit, want_audit = dict(AUDIT_START), dict(AUDIT_START)
    for row in plan.work:
        row.fill(np.nan)
    experiment.audit_proof_chain(got_audit, state, experiment._record_of(seen, -1), records[-1],
                                 kernel=rplan.kernel, eq=rplan.eq, work=plan.work)
    experiment.audit_proof_chain(want_audit, state, experiment._record_of(want_seen, -1),
                                 want[-1], kernel=rplan.kernel, eq=rplan.eq)
    assert got_audit == want_audit
    assert np.array_equal(batch, f)


# Slack of the whole-run peak over RESIDENT_STATES states: numpy's ufunc
# buffers (64 KiB each) and what the run holds besides states (the records,
# the lattice rows, the kernel factor); 146-156 KiB measured at 32^2 nodes
# over 16 and 32 cells.
RUN_PEAK_SLACK = 256 * 2**10


def test_run_peak_stays_within_the_resident_states(tmp_path):
    # d_v = 2, 32^2 nodes over 16 cells, where states dominate: muscl2, the
    # Gaussian kernel's 2-d scatter, `delta = auto` closing its window off
    # the record grid (where the run once observed one more state), and 24
    # records, so two audit folds and three snapshots. When the record pass
    # and the audit fold allocated their own temporaries the peak was
    # 21.2 x f.nbytes.
    config = ExperimentConfig(d_v=2, nodes_per_axis=32, half_width=4.0, spatial_cells=16,
                              kernel="gaussian_bump", transport="muscl2", t_final=5.1,
                              record_every=25, delta=None, perturbation=1e-3, seed=3)
    # a tiny run first: numpy's lazily imported modules are not the run's
    run_experiment(ExperimentConfig(nodes_per_axis=8, spatial_cells=8, t_final=0.1,
                                    perturbation=1e-3))
    tracemalloc.start()
    try:
        result = run_experiment(config, output_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dt = result.config.dt
    n_window = math.ceil(DELTA_WINDOW / dt - 1e-12)
    assert n_window % config.record_every and n_window < config.t_final / dt
    assert len(result.records) >= 2 * SNAPSHOT_STRIDE + 1
    assert result.rate_report.lemma_constants["samples_used"] == 2
    f_bytes = result.final_state.f.nbytes
    assert peak <= experiment.RESIDENT_STATES * f_bytes + RUN_PEAK_SLACK


def test_batched_run_peak_stays_within_its_budget(tmp_path):
    # the fd1d_dense_records lattice, ten 16 KiB states a batch, one record
    # a step: the stack and its workspace come on top of the resident states
    config = ExperimentConfig(nodes_per_axis=64, spatial_cells=32, transport="muscl2",
                              t_final=0.5, record_every=1, perturbation=1e-3, seed=7)
    run_experiment(ExperimentConfig(nodes_per_axis=8, spatial_cells=8, t_final=0.1,
                                    perturbation=1e-3))
    tracemalloc.start()
    try:
        result = run_experiment(config, output_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f_bytes = result.final_state.f.nbytes
    assert experiment.record_batch_size(f_bytes) == SNAPSHOT_STRIDE
    assert len(result.records) > 3 * SNAPSHOT_STRIDE
    batch = experiment.RECORD_BATCH_ARRAYS * experiment.RECORD_BATCH_BYTES
    assert peak <= experiment.RESIDENT_STATES * f_bytes + batch + RUN_PEAK_SLACK


def test_the_state_budget_counts_a_record_batch(monkeypatch):
    monkeypatch.setattr(experiment, "STATE_BUDGET_BYTES", 2**20)
    # 16 KiB states, ten a batch: 12 states and 8 arrays of at most 160 KiB
    with pytest.raises(ConfigError) as err:
        experiment.build_lattice(ExperimentConfig(nodes_per_axis=64, spatial_cells=32))
    assert str(err.value) == (
        "32 cells x 64 velocity nodes: the run's 12 resident state arrays and its record "
        "batch take 1507328 bytes (1.4375 MiB), over the 1 MiB budget")
