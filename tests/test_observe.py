"""The record pass: `observe` and `_diagnose` against the pre-observe oracle.

Every record field and every kappa field must equal the oracle's bit for
bit, except D of a gaussian_bump run, which must agree to D_REL_TOL; the
traced layer functions must each see one call per record.
"""
import math

import numpy as np
import pytest

from fermibolt import cli, experiment
from fermibolt.collision import build_kernel
from fermibolt.config import ExperimentConfig, format_config
from fermibolt.equilibrium import fermi_profile, project, solve_kappa_many
from fermibolt.experiment import AUDIT_DIST_FLOOR, SNAPSHOT_STRIDE, observe, run_experiment
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
}


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
    fields, proj, kappa = observe(state.f, eq, state.kappa_cache, state.vgrid, state.sgrid)
    assert np.array_equal(state.f, f) and np.array_equal(state.kappa_cache, warm)
    assert kappa is not state.kappa_cache
    want_proj, want_kappa = bf.seed_project(f, state.vgrid, kappa_cache=warm)
    assert np.array_equal(proj, want_proj) and np.array_equal(kappa, want_kappa)
    rho, j = bf.seed_moments(f, state.vgrid)
    phi, grad_phi = bf.seed_solve_poisson(rho, eq.density, state.sgrid)
    for got, want in ((fields.rho, rho), (fields.j, j), (fields.phi, phi),
                      (fields.grad_phi, grad_phi)):
        assert np.array_equal(got, want)
    # a cold start reaches the same density
    _, _, cold = observe(f, eq, None, state.vgrid, state.sgrid)
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
    got = solve_kappa_many(targets, grid)
    assert np.array_equal(got, bf.seed_solve_kappa_many(targets, grid))


@pytest.mark.parametrize("start", [1e30, 1e6, 1e-300])
def test_solve_kappa_many_matches_seed_oracle_outside_the_bracket(kappa_targets, start):
    # From 1e30 and 1e6 the first Newton steps leave the bracket, so the
    # iteration bisects before Newton takes over.
    grid, targets = kappa_targets
    initial = np.full_like(targets, start)
    got = solve_kappa_many(targets, grid, initial=initial)
    assert np.array_equal(got, bf.seed_solve_kappa_many(targets, grid, initial=initial))


@pytest.mark.filterwarnings("error")  # the first slopes overflow, without a warning
def test_solve_kappa_many_restarts_a_runaway_warm_start_cold(kappa_targets):
    # From 1e300 the bisection halves for over 900 steps, past MAX_NEWTON_ITER;
    # the solve then restarts from the cold estimate.
    grid, targets = kappa_targets
    got = solve_kappa_many(targets, grid, initial=np.full_like(targets, 1e300))
    assert np.array_equal(got, solve_kappa_many(targets, grid))


def test_project_returns_the_profile_of_its_kappa(kappa_targets):
    grid, _ = kappa_targets
    rng = np.random.default_rng(92)
    f = fermi_profile(rng.uniform(0.2, 5.0, 12), grid) * rng.uniform(0.9, 1.0, (12, 1))
    proj, kappa = project(f, grid)
    assert np.array_equal(proj, fermi_profile(kappa, grid))
    proj_rho, kappa_rho = project(f, grid, rho=integrate(f, grid))
    assert np.array_equal(proj_rho, proj) and np.array_equal(kappa_rho, kappa)


# The benchmark trace wraps these names in `experiment`; per-record work
# done outside them is time the trace cannot attribute.
TRACED = ("moments", "solve_poisson", "project", "weighted_norm", "relative_entropy",
          "dissipation", "field_current_pairing")
PER_RECORD = {"moments": 1, "solve_poisson": 1, "project": 1, "weighted_norm": 3,
              "relative_entropy": 1, "dissipation": 1, "field_current_pairing": 1}


@pytest.mark.parametrize("delta", [0.01, None], ids=["pinned", "auto"])
def test_traced_layers_see_every_record_once(delta, monkeypatch):
    calls = {name: [0, 0] for name in TRACED}  # outside, inside the audit
    in_audit = [0]
    audit_calls = []  # the time of the record each audit call folds

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name][in_audit[0]] += 1
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
    # on 8 cells the delta window closes at step 312, 4 steps off the record grid
    config = ExperimentConfig(nodes_per_axis=8, spatial_cells=8, t_final=5.5,
                              record_every=7, delta=delta)
    result = run_experiment(config)
    assert result.rate_report.lemma_constants
    n_records = len(result.records)
    n_diagnosed = n_records + (delta is None)  # plus the off-grid window sample
    want = {name: per * n_diagnosed for name, per in PER_RECORD.items()}
    want["moments"] += 1  # the initial mass
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
        largest = build_kernel("constant", vgrid, sigma0=100.0).dt_ceiling
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
