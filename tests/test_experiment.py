"""Rate fitting, delta selection, run artifacts, audit, and the CLI."""
import dataclasses
import math
import os
import shutil
import subprocess
import sys
from contextlib import closing

import numpy as np
import pytest

from fermibolt import cli, evolution, experiment
from fermibolt.collision import build_kernel, collision_dt_ceiling
from fermibolt.config import (
    DELTA_CANDIDATES,
    ConfigError,
    ExperimentConfig,
    format_config,
    load_config,
)
from fermibolt.experiment import (
    AUDIT_START,
    DELTA_WINDOW,
    DIST_EPS,
    SNAPSHOT_STRIDE,
    FitError,
    InvariantViolation,
    RateReport,
    audit_snapshots,
    build_lattice,
    choose_delta,
    estimate_decay_rate,
    run_experiment,
)
from fermibolt.equilibrium import global_equilibrium
from fermibolt.evolution import PhaseState
from fermibolt.fields import build_spatial_grid
from fermibolt.functionals import RECORD_FIELDS, DiagnosticsRecord
from fermibolt.storage import CsvWriter, load_csv, snapshot_dump
from fermibolt.velocity import build_velocity_grid

import _bruteforce as bf
from _artifacts import snapshot_states


def _fake_records(t, dist, lyap):
    """Records whose H is `lyap` and pairing zero: E = lyap at every delta."""
    out = []
    for ti, di, ei in zip(t, dist, lyap):
        out.append(
            DiagnosticsRecord(
                float(ti), 1.0, float(ei), 0.0,
                float(di), float(di) / 2.0, float(di) / 2.0, 0.0,
                1.0, 1.0,
            )
        )
    return out


# ---------------------------------------------------------------- rate fit

def test_fit_recovers_synthetic_exponential():
    t = np.linspace(0.0, 8.0, 81)
    dist = 3.0 * np.exp(-0.7 * t)
    lyap = np.exp(-1.4 * t)
    report = estimate_decay_rate(_fake_records(t, dist, lyap), 0.5)
    assert math.isclose(report.lambda_obs, 0.7, rel_tol=1e-10)
    assert math.isclose(report.c_obs, 1.0, rel_tol=1e-10)
    assert report.r_squared >= 1.0 - 1e-12
    assert report.delta == 0.5
    start = int(np.nonzero(lyap <= 0.5)[0][0])
    assert report.window_start == t[start]
    assert report.n_fit_records == 81 - start


def test_fit_needs_two_records():
    t = np.array([0.0])
    with pytest.raises(FitError, match="two records"):
        estimate_decay_rate(_fake_records(t, [1.0], [1.0]), 0.01)


def test_fit_requires_functional_to_halve():
    t = np.linspace(0.0, 5.0, 40)
    dist = np.exp(-t)
    lyap = np.ones_like(t)
    with pytest.raises(FitError, match="half"):
        estimate_decay_rate(_fake_records(t, dist, lyap), 0.01)


def test_fit_window_minimum_count():
    t = np.linspace(0.0, 1.0, 12)
    lyap = np.concatenate([[1.0], np.full(11, 0.3)])
    dist = np.exp(-t)
    with pytest.raises(FitError, match="too short"):
        estimate_decay_rate(_fake_records(t, dist, lyap), 0.01)


def test_fit_rejects_zero_time_extent():
    t = np.array([0.0] + [1.0] * 30)
    lyap = np.array([1.0] + [0.4] * 30)
    dist = np.full(31, 0.1)
    with pytest.raises(FitError, match="time extent"):
        estimate_decay_rate(_fake_records(t, dist, lyap), 0.01)


def test_default_fit_matches_independent_regression(default_run):
    records = default_run.records
    rep = default_run.rate_report
    t = np.array([r.t for r in records])
    dist = np.array([r.dist_total for r in records])
    delta = default_run.config.delta
    lyap = np.array([r.H + delta * r.pairing for r in records])
    start = int(np.nonzero(lyap <= 0.5 * lyap[0])[0][0])
    mask = (np.arange(len(t)) >= start) & (dist > DIST_EPS)
    slope, intercept = np.polyfit(t[mask], np.log(dist[mask]), 1)
    assert math.isclose(-slope, rep.lambda_obs, rel_tol=1e-9)
    assert math.isclose(math.exp(intercept) / dist[0], rep.c_obs, rel_tol=1e-9)
    assert rep.n_fit_records == int(np.count_nonzero(mask))
    assert rep.window_start == float(t[mask][0])
    assert rep.window_end == float(t[mask][-1])


def test_rate_stable_under_time_refinement(default_run, refined_t_run):
    lam = default_run.rate_report.lambda_obs
    lam_fine = refined_t_run.rate_report.lambda_obs
    assert lam > 0.0
    assert abs(lam_fine - lam) / lam <= 0.05


def test_rate_stable_under_coarse_refinement():
    # a separate, cheaper sweep: halving either resolution away from a
    # coarse 32/64-point baseline moves the fitted rate by under ten percent
    base = ExperimentConfig(t_final=8.0)
    reports = {}
    for name, cells, nodes in (
        ("coarse_x", 32, 64),
        ("fine", 64, 64),
        ("coarse_v", 64, 32),
    ):
        config = dataclasses.replace(
            base, spatial_cells=cells, nodes_per_axis=nodes
        )
        reports[name] = run_experiment(config).rate_report
    lam = reports["fine"].lambda_obs
    assert lam > 0.0
    for name in ("coarse_x", "coarse_v"):
        assert reports[name].r_squared >= 0.99
        assert abs(reports[name].lambda_obs - lam) / lam <= 0.10


def test_observed_rate_dominates_gronwall_floor(default_run):
    rep = default_run.rate_report
    gronwall = rep.lemma_constants["gronwall_ratio_min"]
    assert gronwall > 0.0
    assert rep.lambda_obs >= 0.45 * gronwall


# ---------------------------------------------------------- delta selection

def test_choose_delta_prefers_larger_on_ties():
    t = np.linspace(0.0, 5.0, 51)
    h = np.exp(-t)
    # pairing proportional to the entropy: every surviving candidate decays
    # at the same rate, so the positivity filter alone decides (c * 30 < 1)
    assert choose_delta(t, h, -30.0 * h, np.sqrt(h)) == 0.02


def test_choose_delta_picks_best_worst_case_rate():
    t = np.linspace(0.0, 5.0, 51)
    h = np.exp(-t)
    pairing = np.exp(-2.0 * t)
    # positive pairing accelerates the augmented decay, more so for larger
    # couplings, and never threatens positivity
    assert choose_delta(t, h, pairing, np.sqrt(h)) == max(DELTA_CANDIDATES)


def test_choose_delta_requires_positivity():
    t = np.linspace(0.0, 5.0, 51)
    h = np.exp(-t)
    with pytest.raises(ConfigError, match="no candidate"):
        choose_delta(t, h, -1e6 * h, np.sqrt(h))


# (t, dist_total) of delta windows with fewer than three rated interior records
SHORT_WINDOWS = {
    "no usable sample": (np.linspace(0.0, 5.0, 51), np.zeros(51)),
    # three usable samples, one of them interior: one decay ratio
    "one interior": (np.array([0.0, 0.1, 0.2]), np.exp(-np.array([0.0, 0.05, 0.1]))),
}


def test_choose_delta_needs_usable_points():
    for t, dist in SHORT_WINDOWS.values():
        h = dist**2
        with pytest.raises(ConfigError, match="^delta window too short to scan delta$"):
            choose_delta(t, h, 0.0 * h, dist)


def _chosen_or_error(choose, *arrays):
    try:
        return choose(*arrays)
    except ConfigError as exc:
        return str(exc)


def test_choose_delta_equals_its_loop_form_on_the_unit_inputs():
    t = np.linspace(0.0, 5.0, 51)
    h = np.exp(-t)
    inputs = [(t, h, -30.0 * h, np.sqrt(h)), (t, h, np.exp(-2.0 * t), np.sqrt(h)),
              (t, h, -1e6 * h, np.sqrt(h)), (t, h, 0.0 * h, np.zeros_like(h))]
    for arrays in inputs:
        assert _chosen_or_error(choose_delta, *arrays) == _chosen_or_error(
            bf.loop_choose_delta, *arrays)


def test_auto_delta_resolution():
    config = ExperimentConfig(
        nodes_per_axis=16,
        spatial_cells=16,
        t_final=3.0,
        record_every=5,
        delta=None,
    )
    result = run_experiment(config)
    assert result.config.delta in DELTA_CANDIDATES
    assert result.rate_report is not None
    assert result.rate_report.delta == result.config.delta


# Two auto runs: the delta window closes on the last step (t_final <= 5),
# and off the record grid, long before the end (t_final > 5), where the
# window's records are those on the grid up to that step.
AUTO_CASES = {"short": (3.0, 10), "long_off_grid": (7.3, 7)}


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="module", params=sorted(AUTO_CASES))
def auto_run(request, tmp_path_factory):
    """A delta = auto run with its step calls and its delta scan input recorded."""
    t_final, record_every = AUTO_CASES[request.param]
    config = ExperimentConfig(
        nodes_per_axis=16,
        spatial_cells=16,
        t_final=t_final,
        record_every=record_every,
        delta=None,
    )
    out_dir = tmp_path_factory.mktemp(f"auto_{request.param}")
    seen = {"steps": 0, "scanned": None, "rows_at_resolve": None}
    real_step, real_choose = experiment.step, experiment.choose_delta
    real_resolve = experiment._resolve_delta

    def counted_step(*args, **kwargs):
        seen["steps"] += 1
        return real_step(*args, **kwargs)

    def recorded_choose(*arrays, **kwargs):
        seen["scanned"] = arrays
        return real_choose(*arrays, **kwargs)

    def read_rows_then_resolve(*args, **kwargs):
        seen["rows_at_resolve"] = load_csv(str(out_dir / "diagnostics.csv"))
        return real_resolve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "step", counted_step)
        mp.setattr(experiment, "choose_delta", recorded_choose)
        mp.setattr(experiment, "_resolve_delta", read_rows_then_resolve)
        result = run_experiment(config, output_dir=str(out_dir))
    return config, result, seen


def test_auto_delta_steps_each_trajectory_once(auto_run):
    _, result, seen = auto_run
    n_steps = math.ceil(result.config.t_final / result.config.dt - 1e-12)
    assert seen["steps"] == n_steps


def test_auto_delta_scans_the_two_pass_pilot_samples(auto_run):
    config, result, seen = auto_run
    n_steps = math.ceil(config.t_final / result.config.dt - 1e-12)
    n_window = math.ceil(min(config.t_final, 5.0) / result.config.dt - 1e-12)
    if config.t_final > 5.0:
        assert n_window < n_steps and n_window % config.record_every != 0
    pilot = bf.pilot_samples(result)
    assert len(seen["scanned"]) == len(pilot)
    for got, want in zip(seen["scanned"], pilot):
        assert np.array_equal(got, want)


def test_auto_delta_streams_its_rows(auto_run):
    # delta is chosen once, after the last step, when the CSV holds every record
    _, result, seen = auto_run
    rows, warnings = seen["rows_at_resolve"]
    assert warnings == 0
    assert rows == result.records


def test_auto_delta_scan_equals_its_loop_form(auto_run):
    _, result, seen = auto_run
    assert bf.loop_choose_delta(*seen["scanned"]) == result.config.delta


def test_auto_delta_artifacts_match_two_pass_run(auto_run, tmp_path):
    config, result, _ = auto_run
    delta = choose_delta(*bf.pilot_samples(result))
    two_pass = run_experiment(
        dataclasses.replace(config, delta=delta), output_dir=str(tmp_path)
    )
    assert two_pass.config == result.config
    got, want = _tree_bytes(result.output_dir), _tree_bytes(tmp_path)
    assert sorted(got) == sorted(want)
    assert "diagnostics.csv" in got
    # the auto run's manifest differs from the pinned one in its delta line alone
    manifest = os.path.join("snapshots", "manifest.cfg")
    assert want.pop(manifest) == format_config(result.config).encode()
    assert got.pop(manifest) == format_config(dataclasses.replace(result.config,
                                                                  delta=None)).encode()
    for name in want:
        assert got[name] == want[name], name


def _break_third_collision_step(monkeypatch, quantity):
    """Make the third collision sub-step, in step 3, break the `quantity` invariant."""
    real_collision_step = evolution.collision_step
    calls = [0]

    def broken(state, *args, **kwargs):
        out = real_collision_step(state, *args, **kwargs)
        calls[0] += 1
        if calls[0] == 3:
            f = out.f.copy()
            if quantity == "mass":
                f *= 1.0 + 1e-9
            else:
                # move occupation between mirror nodes: mass stays, f leaves [0, 1]
                pair = f[0, 0] + f[0, -1]
                f[0, 0], f[0, -1] = 1.0, pair - 1.0
            out.f = f
        return out

    monkeypatch.setattr(evolution, "collision_step", broken)


@pytest.mark.parametrize("quantity", ["mass", "sandwich"])
def test_violation_between_records_aborts_at_its_step(quantity, monkeypatch, tmp_path):
    _break_third_collision_step(monkeypatch, quantity)
    config = ExperimentConfig(
        nodes_per_axis=16, spatial_cells=16, t_final=1.0, record_every=10, delta=None
    )
    with pytest.raises(InvariantViolation) as err:
        run_experiment(config, output_dir=str(tmp_path))
    assert err.value.step_index == 3
    assert err.value.quantity == quantity
    # aborted inside the delta window: the snapshot, an unresolved manifest,
    # and every row made before the step that failed stay on disk
    assert load_config(str(tmp_path / "snapshots" / "manifest.cfg")).delta is None
    assert (tmp_path / "snapshots" / "state_00000000.snap").exists()
    records, warnings = load_csv(str(tmp_path / "diagnostics.csv"))
    assert warnings == 0 and [r.t for r in records] == [0.0]


@pytest.mark.parametrize("quantity", ["mass", "entropy"])
def test_cli_run_reports_an_invariant_violation_in_one_line(quantity, monkeypatch, tmp_path,
                                                            capsys):
    # mass breaks in step 3; H rises at record 1, made at step 10
    if quantity == "mass":
        _break_third_collision_step(monkeypatch, "mass")
        prefix = "run failed: step 3: mass invariant failed (drift "
    else:
        _break_column_at(monkeypatch, "entropy", 1)
        prefix = "run failed: step 10: entropy invariant failed (H = 1 above "
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nodes_per_axis = 16\nspatial_cells = 16\nt_final = 1.0\n"
                   "record_every = 10\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(prefix)
    # the manifest, the row and the snapshot made before the failure; no rate report
    assert sorted(path.name for path in out.rglob("*")) == [
        "diagnostics.csv", "manifest.cfg", "snapshots", "state_00000000.snap"]
    records, warnings = load_csv(str(out / "diagnostics.csv"))
    assert warnings == 0 and [r.t for r in records] == [0.0]


# Ten 2 KiB states a batch, one record a step: record k is made at step k,
# and records 11 to 20 form the third batch.
BATCHED = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=1.0, record_every=1)


# each record invariant: the functional of its column, and a value that fails it
# (every H of these runs is below 1, and the distance there is far above the floor)
RECORD_BREAKS = {"dissipation": ("dissipation", -1e-9), "entropy": ("relative_entropy", 1.0)}


def _break_column_at(monkeypatch, quantity, record):
    """Make `record` fail the `quantity` invariant, in whichever batch's record pass it falls."""
    name, value = RECORD_BREAKS[quantity]
    real = getattr(experiment, name)
    first = [0]  # the index of the first record of the next batch

    def broken(f, *args, **kwargs):
        column = real(f, *args, **kwargs)
        if first[0] <= record < first[0] + len(column):
            column[record - first[0]] = value
        first[0] += len(column)
        return column

    monkeypatch.setattr(experiment, name, broken)


def _mass_break_in_step(monkeypatch, stop_step):
    real_collision_step = evolution.collision_step
    calls = [0]

    def broken(state, *args, **kwargs):
        out = real_collision_step(state, *args, **kwargs)
        calls[0] += 1
        if calls[0] == stop_step:
            out.f = out.f * (1.0 + 1e-9)
        return out

    monkeypatch.setattr(evolution, "collision_step", broken)


@pytest.fixture(scope="module")
def batched_run_csv(tmp_path_factory):
    """The diagnostics lines of BATCHED run whole."""
    out = tmp_path_factory.mktemp("batched_whole")
    result = run_experiment(BATCHED, output_dir=str(out))
    assert experiment.record_batch_size(result.final_state.f.nbytes) == SNAPSHOT_STRIDE
    return (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()


def _aborted(out, step_index, quantity):
    with pytest.raises(InvariantViolation) as err:
        run_experiment(BATCHED, output_dir=str(out))
    assert (err.value.step_index, err.value.quantity) == (step_index, quantity)
    return (sorted(path.name for path in (out / "snapshots").glob("*.snap")),
            (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("quantity", list(RECORD_BREAKS))
def test_a_record_violation_inside_a_batch_aborts_at_its_record(
        quantity, batched_run_csv, monkeypatch, tmp_path):
    _break_column_at(monkeypatch, quantity, 13)
    snaps, lines = _aborted(tmp_path, 13, quantity)
    # the header and the rows of records 0 to 12, as the whole run wrote them
    assert lines == batched_run_csv[:14]
    assert snaps == ["state_00000000.snap", "state_00000010.snap"]


def test_a_step_violation_writes_the_pending_records_first(batched_run_csv, monkeypatch,
                                                           tmp_path):
    # records 11 to 13 wait in their batch when step 14 breaks the mass
    _mass_break_in_step(monkeypatch, 14)
    snaps, lines = _aborted(tmp_path, 14, "mass")
    assert lines == batched_run_csv[:15]
    assert snaps == ["state_00000000.snap", "state_00000010.snap"]


def test_a_pending_record_violation_wins_over_a_later_step_violation(
        batched_run_csv, monkeypatch, tmp_path):
    # record 12's D fails when step 14's failure flushes it: step 12 came first
    _break_column_at(monkeypatch, "dissipation", 12)
    _mass_break_in_step(monkeypatch, 14)
    _, lines = _aborted(tmp_path, 12, "dissipation")
    assert lines == batched_run_csv[:13]


def test_nan_fails_the_run_checks():
    # each comparison is written so that NaN fails it
    config = ExperimentConfig(nodes_per_axis=8, spatial_cells=8)
    vgrid, sgrid, _ = build_lattice(config)
    init = evolution.initial_state(sgrid, vgrid, 1.0, 0.5)
    with pytest.raises(InvariantViolation, match="mass invariant failed"):
        experiment._check_mass(4, math.nan, 1.0)
    f = init.state.f.copy()
    f[3, 5] = np.nan
    with pytest.raises(InvariantViolation, match="sandwich invariant failed"):
        experiment._check_sandwich(4, f, *(np.tile(row, (8, 1))
                                            for row in (init.f_lower, init.f_upper)))
    record = DiagnosticsRecord(*[1.0] * len(RECORD_FIELDS))
    with pytest.raises(InvariantViolation, match="dissipation invariant failed"):
        experiment._check_record(4, dataclasses.replace(record, D=math.nan), 1.0, 1.0)
    with pytest.raises(InvariantViolation, match="entropy invariant failed"):
        experiment._check_record(4, dataclasses.replace(record, H=math.nan), 1.0, 1.0)


@pytest.mark.parametrize("splitting", ["strang", "lie"])
def test_nan_after_the_last_substep_aborts_the_run(splitting, monkeypatch, tmp_path):
    # the NaN reaches only the run's own per-step check, in step 3
    name, calls_per_step = ("transport_step", 2) if splitting == "strang" else ("collision_step", 1)
    real = getattr(evolution, name)
    calls = [0]

    def poisoned(state, *args, **kwargs):
        out = real(state, *args, **kwargs)
        calls[0] += 1
        if calls[0] == 3 * calls_per_step:
            out.f[0, 0] = np.nan
        return out

    monkeypatch.setattr(evolution, name, poisoned)
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=1.0,
                              record_every=10, splitting=splitting)
    with pytest.raises(InvariantViolation) as err:
        run_experiment(config, output_dir=str(tmp_path))
    assert err.value.step_index == 3
    assert err.value.quantity == "mass"


@pytest.mark.parametrize("splitting,transport_calls", [("strang", 2), ("lie", 1)])
def test_run_builds_the_step_plan_once(splitting, transport_calls, monkeypatch):
    calls = {"plan": 0, "transport": 0, "collision": 0, "sandwich": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiment, "plan_step", counted("plan", experiment.plan_step))
    monkeypatch.setattr(evolution, "transport_step",
                        counted("transport", evolution.transport_step))
    monkeypatch.setattr(evolution, "collision_step",
                        counted("collision", evolution.collision_step))
    monkeypatch.setattr(experiment, "_check_sandwich",
                        counted("sandwich", experiment._check_sandwich))
    config = ExperimentConfig(
        nodes_per_axis=8, spatial_cells=8, t_final=0.2, record_every=3,
        splitting=splitting,
    )
    result = run_experiment(config)
    n_steps = math.ceil(config.t_final / result.config.dt - 1e-12)
    assert calls["plan"] == 1
    assert calls["transport"] == transport_calls * n_steps
    assert calls["collision"] == n_steps
    # the sandwich is checked after every step and once on the initial state
    assert calls["sandwich"] == n_steps + 1


@pytest.mark.parametrize("limit", ["courant", "ceiling"])
def test_pinned_dt_over_the_limit_writes_nothing(limit, tmp_path):
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=1.0)
    vgrid = build_velocity_grid(config.d_v, config.half_width, config.nodes_per_axis)
    if limit == "courant":
        # Lie transports over the whole dt, which stays below the ceiling
        vmax = float(np.max(np.abs(vgrid.first_axis)))
        config = dataclasses.replace(
            config, splitting="lie", dt=2.0 / (config.spatial_cells * vmax)
        )
        message = "CFL"
    else:
        # a hundred-fold kernel: the ceiling binds well below the Courant limit
        config = dataclasses.replace(config, sigma0=100.0)
        ceiling = collision_dt_ceiling(build_kernel("constant", vgrid, sigma0=100.0), vgrid)
        config = dataclasses.replace(config, dt=2.0 * ceiling)
        message = "monotonicity ceiling"
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        run_experiment(config, output_dir=str(out))
    assert not (out / "diagnostics.csv").exists()
    assert not out.exists()


# ------------------------------------------------------------ run behavior

def test_fixed_point_is_stationary(fixed_point_run):
    res = fixed_point_run
    n_steps = math.ceil(res.config.t_final / res.config.dt - 1e-12)
    assert n_steps >= 1000
    assert max(r.dist_total for r in res.records) <= 1e-12
    assert np.array_equal(res.final_state.f, bf.run_initial(res).state.f)
    mass0 = res.records[0].mass
    assert max(abs(r.mass - mass0) for r in res.records) == 0.0
    # no decay window on a flat trajectory, so no fitted rate
    assert res.rate_report is None


def test_invariant_violation_attributes():
    err = InvariantViolation(7, "mass", "relative drift 3e-9")
    assert err.step_index == 7
    assert err.quantity == "mass"
    assert "step 7" in str(err)
    assert "mass" in str(err)
    assert isinstance(err, RuntimeError)


# ------------------------------------------------------------------- audit

def test_audit_requires_states(tiny_run):
    # no state leaves no interior sample, as when every snapshot is an end
    with pytest.raises(ValueError, match="every audit sample fell on the trajectory ends"):
        audit_snapshots(
            tiny_run.records,
            [],
            kernel=tiny_run.kernel,
            eq=tiny_run.equilibrium,
            delta=tiny_run.config.delta,
        )


def test_audit_rejects_unmatched_snapshot(tiny_run):
    bad = snapshot_states(tiny_run.output_dir)[1]
    bad.time += 977.0
    with pytest.raises(ValueError, match="no matching record"):
        audit_snapshots(
            tiny_run.records,
            [bad],
            kernel=tiny_run.kernel,
            eq=tiny_run.equilibrium,
            delta=tiny_run.config.delta,
        )


def _audit_from_artifacts(out_dir):
    """What `fermibolt audit` computes from a run directory, as a dict."""
    snap_dir = os.path.join(out_dir, "snapshots")
    config = load_config(os.path.join(snap_dir, "manifest.cfg"))
    vgrid, sgrid, kernel = build_lattice(config)
    records, warnings = load_csv(os.path.join(out_dir, "diagnostics.csv"))
    assert warnings == 0
    eq = global_equilibrium(records[0].mass, vgrid)
    # a `delta = auto` manifest gets the run's delta from the same resolver
    return audit_snapshots(records, snapshot_states(out_dir), kernel=kernel, eq=eq,
                           delta=experiment._resolve_delta(config, records))


@pytest.fixture(scope="module")
def auto_delta_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("auto_delta_run")
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, transport="muscl2",
                              t_final=8.0, record_every=5, delta=None)
    return run_experiment(config, output_dir=str(out))


@pytest.fixture(scope="module")
def boundary_run(tmp_path_factory):
    """A run of 31 records: its last snapshot record is the final record."""
    out = tmp_path_factory.mktemp("boundary_run")
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=4.5,
                              record_every=10)
    result = run_experiment(config, output_dir=str(out))
    assert len(result.records) == 3 * SNAPSHOT_STRIDE + 1
    return result


@pytest.mark.parametrize("name", ["tiny_run", "auto_delta_run", "boundary_run"],
                         ids=["pinned", "auto", "last-record-snapshot"])
def test_run_and_post_hoc_audits_agree_bitwise(name, request):
    # the run folds each snapshot record from its own observation; the
    # post-hoc audit reads the snapshot back and observes it again
    result = request.getfixturevalue(name)
    constants = result.rate_report.lemma_constants
    assert constants["samples_used"] >= 1
    # every snapshot record but the first and the last is folded
    interior = range(SNAPSHOT_STRIDE, len(result.records) - 1, SNAPSHOT_STRIDE)
    assert constants["samples_used"] == len(interior)
    post_hoc = _audit_from_artifacts(result.output_dir)
    assert list(post_hoc) == list(constants)
    assert post_hoc == constants


@pytest.mark.parametrize("name", ["default_run", "auto_delta_run"])
def test_close_audit_equals_its_loop_form(name, request, monkeypatch):
    # the post-hoc audit closed record by record instead: every key equal bit for bit
    result = request.getfixturevalue(name)
    monkeypatch.setattr(experiment, "_close_audit", bf.loop_close_audit)
    looped = _audit_from_artifacts(result.output_dir)
    assert list(looped) == list(result.rate_report.lemma_constants)
    assert looped == result.rate_report.lemma_constants


def test_auto_delta_run_scan_equals_its_loop_form(auto_delta_run, monkeypatch):
    monkeypatch.setattr(experiment, "choose_delta", bf.loop_choose_delta)
    config = dataclasses.replace(auto_delta_run.config, delta=None)
    assert experiment._resolve_delta(config, auto_delta_run.records) == auto_delta_run.config.delta


def test_close_audit_squares_a_distance_as_its_loop_form_does():
    # one record in the window, its distance one whose x * x and pow(x, 2)
    # differ, so its ratios are those of the one square the loop form takes
    rng = np.random.default_rng(5)
    dists = [x for x in rng.uniform(1e-3, 1e-1, 40000) if x * x != float(x) ** 2][:8]
    assert len(dists) == 8
    for dist in dists:
        records = _fake_records([0.0, 0.5, 1.0], [1.0, dist, 0.5 * dist],
                                [1.0, 0.3 * dist, 0.1 * dist])
        got = experiment._close_audit(dict(AUDIT_START), [1], records, 0.01)
        assert got == bf.loop_close_audit(dict(AUDIT_START), [1], records, 0.01)


def test_post_hoc_audit_folds_every_snapshot_in_one_workspace(boundary_run, monkeypatch):
    folds = []
    real_fold = experiment.audit_proof_chain

    def fold(*args, work, **kwargs):
        folds.append(work)
        return real_fold(*args, work=work, **kwargs)

    monkeypatch.setattr(experiment, "audit_proof_chain", fold)
    _audit_from_artifacts(boundary_run.output_dir)
    assert len(folds) == 2 and folds[1] is folds[0]


def test_audit_constants_on_tiny_run(tiny_run):
    constants = tiny_run.rate_report.lemma_constants
    for key in ("c1_min", "c6_min", "c9_min", "gronwall_ratio_min"):
        assert constants[key] > 0.0, key
    assert constants["c2_max_ratio"] > 0.0
    assert constants["c7_max"] >= constants["c6_min"]
    assert constants["c5_max"] >= constants["c4_min"] > 0.0
    assert constants["step1_excess_max"] <= 1e-8
    assert constants["samples_used"] >= 1


@pytest.fixture(scope="module")
def long_default_run():
    """The default run with seeded noise, to t = 40: H reaches 1e-27 of H0."""
    return run_experiment(ExperimentConfig(perturbation=1e-3, seed=7, t_final=40.0))


def test_late_entropy_matches_the_decimal_oracle(long_default_run):
    # H at t = 15 and t = 20 is 1e-14 and 3e-18 of H0; the record is good to
    # about eps / |d| relative, |d| ~ sqrt(H), where log(f / p) was off by 3.5e-2 and 780
    result = long_default_run
    state = bf.run_initial(result).state
    plan = evolution.plan_step(result.kernel, state.vgrid, state.sgrid, result.config)
    for k in range(1, 5601):
        state = evolution.step(state, plan)
        if k in (4200, 5600):  # t = 15 and t = 20 at dt = 1/280
            record = result.records[k // result.config.record_every]
            assert record.t == state.time
            want = bf.bf_entropy(state.f, result.equilibrium.profile, state.vgrid, state.sgrid)
            tol = np.finfo(float).eps / math.sqrt(want)
            assert abs(record.H - want) <= tol * want, (record.t, record.H, want)


def test_long_run_keeps_h_nonnegative_and_the_audit_positive(long_default_run):
    # past t = 35 the state sits at rounding (dist_total ~ 1e-14), where H
    # may rise; it stays >= 0, and the distance floor keeps the audit's ratios
    result = long_default_run
    assert min(r.H for r in result.records) >= 0.0
    constants = result.rate_report.lemma_constants
    for key in ("c1_min", "c6_min", "c9_min", "gronwall_ratio_min"):
        assert constants[key] > 0.0, key


def test_audit_c2_is_the_norm_probe_ratio(tiny_run):
    # the audit skips the first and the last record's state
    n = len(tiny_run.records)
    states = [state for i, state in enumerate(snapshot_states(tiny_run.output_dir))
              if SNAPSHOT_STRIDE * i not in (0, n - 1)]
    sg = tiny_run.final_state.sgrid
    value, _, degenerate = bf.collision_norm_probe(
        states, tiny_run.kernel, tiny_run.final_state.vgrid, spacing=sg.spacing, floor=1e-9
    )
    assert not degenerate
    assert tiny_run.rate_report.lemma_constants["c2_max_ratio"] == pytest.approx(
        value, rel=1e-10
    )


# --------------------------------------------------------------- artifacts

# (earlier run, later run) into one directory: the later run writes fewer
# snapshots at other steps, or stops before its decay can be fitted
REUSED_DIRS = {
    "snapshots": (dict(t_final=4.0, sigma0=1.0, record_every=5),
                  dict(t_final=4.0, sigma0=2.0, record_every=10)),
    "rate-report": (dict(t_final=10.0), dict(t_final=0.5)),
}


@pytest.mark.parametrize("case", sorted(REUSED_DIRS))
def test_a_reused_output_dir_keeps_no_earlier_run_artifacts(tmp_path, case):
    earlier, later = (ExperimentConfig(nodes_per_axis=16, spatial_cells=16, **keys)
                      for keys in REUSED_DIRS[case])
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    run_experiment(earlier, output_dir=str(reused))
    stale = set(_tree_bytes(reused))
    # files the run does not name are the user's, and stay
    for name in ("notes.txt", os.path.join("snapshots", "notes.txt")):
        (reused / name).write_text("kept\n", encoding="utf-8")
    run_experiment(later, output_dir=str(reused))
    run_experiment(later, output_dir=str(fresh))
    got, want = _tree_bytes(reused), _tree_bytes(fresh)
    assert stale - set(want)  # the earlier run wrote names the later one does not
    for name in ("notes.txt", os.path.join("snapshots", "notes.txt")):
        assert got.pop(name) == b"kept\n"
    assert got == want


def test_run_artifacts_complete(default_run):
    out = default_run.output_dir
    assert out is not None
    report = default_run.rate_report

    records, warnings = load_csv(os.path.join(out, "diagnostics.csv"))
    assert warnings == 0
    assert records == default_run.records

    snap_dir = os.path.join(out, "snapshots")
    manifest = load_config(os.path.join(snap_dir, "manifest.cfg"))
    assert manifest.dt == default_run.config.dt
    assert manifest.delta == default_run.config.delta
    assert manifest.nodes_per_axis == 64
    assert manifest.spatial_cells == 64

    snaps = sorted(n for n in os.listdir(snap_dir) if n.endswith(".snap"))
    assert snaps[0] == "state_00000000.snap"
    assert len(snaps) == len(range(0, len(default_run.records), SNAPSHOT_STRIDE))

    kv = {}
    keys = []
    with open(os.path.join(out, "rate_report.kv"), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            kv[key.strip()] = value.strip()
            keys.append(key.strip())
    assert float(kv["lambda_obs"]) == report.lambda_obs
    assert float(kv["r_squared"]) == report.r_squared
    assert int(kv["n_fit_records"]) == report.n_fit_records
    assert float(kv["delta"]) == report.delta
    assert float(kv["c1_min"]) == report.lemma_constants["c1_min"]
    assert os.path.exists(os.path.join(out, "rate_report.txt"))
    # every key, in order: the report's fields, then the audit's constants
    fields = [f.name for f in dataclasses.fields(RateReport) if f.name != "lemma_constants"]
    assert keys == fields + list(AUDIT_START)
    want = {**{name: getattr(report, name) for name in fields}, **report.lemma_constants}
    for key in keys:
        if isinstance(want[key], float):
            assert float(kv[key]).hex() == float(want[key]).hex(), key
        else:
            assert type(want[key]) is int and int(kv[key]) == want[key], key


# --------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    config = ExperimentConfig(
        nodes_per_axis=16, spatial_cells=16, t_final=2.0, record_every=5
    )
    cfg_path = root / "run.cfg"
    cfg_path.write_text(format_config(config), encoding="utf-8")
    out_dir = root / "out"
    assert cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == 0
    return out_dir


def test_cli_run_writes_artifacts(cli_run_dir):
    assert (cli_run_dir / "diagnostics.csv").exists()
    assert (cli_run_dir / "snapshots" / "manifest.cfg").exists()
    assert (cli_run_dir / "rate_report.txt").exists()
    assert (cli_run_dir / "rate_report.kv").exists()


def test_cli_fit(cli_run_dir, capsys):
    assert cli.main(["fit", str(cli_run_dir / "diagnostics.csv"),
                     str(cli_run_dir / "snapshots")]) == 0
    out = capsys.readouterr().out
    assert "lambda_obs = " in out
    assert "r_squared = " in out


def test_cli_fit_reports_failure(cli_run_dir, tmp_path, capsys):
    path = tmp_path / "short.csv"
    t = np.array([0.0, 0.1, 0.2])
    with closing(CsvWriter(str(path))) as writer:
        for rec in _fake_records(t, np.exp(-t), np.exp(-2.0 * t)):
            writer.write(rec)
    assert cli.main(["fit", str(path), str(cli_run_dir / "snapshots")]) == 1
    assert "fit failed" in capsys.readouterr().err


# a `delta = auto` run on 16 cells: dt = 0.015, so its window closes at step
# 334, 5 steps after its last record on the record grid (step 329)
AUTO_CLI = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=7.3, record_every=7,
                            delta=None)


def _stopped_auto_run(out_dir, stop_step):
    """The artifacts of AUTO_CLI stopped by a mass violation at `stop_step`."""
    real_collision_step = evolution.collision_step
    calls = [0]

    def broken(state, *args, **kwargs):
        out = real_collision_step(state, *args, **kwargs)
        calls[0] += 1
        if calls[0] == stop_step:
            out.f = out.f * (1.0 + 1e-9)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "collision_step", broken)
        with pytest.raises(InvariantViolation) as err:
            run_experiment(AUTO_CLI, output_dir=str(out_dir))
    assert err.value.step_index == stop_step


@pytest.fixture(scope="module")
def auto_cli_runs(tmp_path_factory):
    """Run directories of AUTO_CLI: whole, and stopped at a few steps."""
    root = tmp_path_factory.mktemp("auto_cli")
    whole = run_experiment(AUTO_CLI, output_dir=str(root / "whole"))
    dirs = {"whole": root / "whole"}
    for stop in (3, 335, 420):
        dirs[stop] = root / f"stopped_{stop}"
        _stopped_auto_run(dirs[stop], stop)
    return whole, dirs


def _resolved_deltas(monkeypatch):
    """The values `experiment._resolve_delta` returns from now on, in a list."""
    chosen = []
    real = experiment._resolve_delta

    def recorded(*args):
        chosen.append(real(*args))
        return chosen[-1]

    monkeypatch.setattr(experiment, "_resolve_delta", recorded)
    return chosen


@pytest.mark.parametrize("command", ["fit", "audit"])
def test_cli_resolves_an_auto_manifest_as_the_run_did(auto_cli_runs, tmp_path, capsys,
                                                      monkeypatch, command):
    whole, dirs = auto_cli_runs
    run_dir = dirs["whole"]
    assert load_config(str(run_dir / "snapshots" / "manifest.cfg")).delta is None
    # the same artifacts with the chosen delta pinned in the manifest
    pinned = tmp_path / "snapshots"
    shutil.copytree(run_dir / "snapshots", pinned)
    (pinned / "manifest.cfg").write_text(format_config(whole.config), encoding="utf-8")
    csv = str(run_dir / "diagnostics.csv")
    assert cli.main([command, csv, str(pinned)]) == 0
    want = capsys.readouterr()
    chosen = _resolved_deltas(monkeypatch)
    assert cli.main([command, csv, str(run_dir / "snapshots")]) == 0
    assert chosen == [whole.config.delta]
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["fit", "audit"])
@pytest.mark.parametrize("stop", [335, 420])
def test_cli_on_a_run_stopped_after_the_delta_window_uses_its_delta(
        auto_cli_runs, capsys, monkeypatch, command, stop):
    whole, dirs = auto_cli_runs
    assert stop > math.ceil(DELTA_WINDOW / whole.config.dt - 1e-12)
    chosen = _resolved_deltas(monkeypatch)
    run_dir = dirs[stop]
    assert cli.main([command, str(run_dir / "diagnostics.csv"), str(run_dir / "snapshots")]) == 0
    assert chosen == [whole.config.delta]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["fit", "audit"])
def test_cli_on_a_run_stopped_inside_the_delta_window_fails_in_one_line(
        auto_cli_runs, capsys, command):
    _, dirs = auto_cli_runs
    assert cli.main([command, str(dirs[3] / "diagnostics.csv"), str(dirs[3] / "snapshots")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{command} failed: the records stop before step 329, the delta window's last record, "
        f"so delta = auto cannot be chosen"
    ]


def test_cli_on_a_delta_window_of_three_records_fails_in_one_line(tmp_path, capsys):
    # records at steps 0, 20 and 25, the last: one interior record, one decay ratio
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nodes_per_axis = 16\nspatial_cells = 8\ndt = 0.01\nt_final = 0.25\n"
                   "record_every = 20\ndelta = auto\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    csv, snapshots = str(out / "diagnostics.csv"), str(out / "snapshots")
    assert len(load_csv(csv)[0]) == 3
    assert capsys.readouterr() == ("", "run failed: delta window too short to scan delta\n")
    for command in ("fit", "audit"):
        assert cli.main([command, csv, snapshots]) == 1
        assert capsys.readouterr() == (
            "", f"{command} failed: delta window too short to scan delta\n")


@pytest.mark.parametrize("command", ["fit", "audit"])
def test_cli_refuses_an_auto_manifest_without_a_numeric_dt(cli_run_dir, tmp_path, capsys,
                                                           command):
    # every run writes its dt; without one the delta window has no steps
    manifest = (cli_run_dir / "snapshots" / "manifest.cfg").read_text(encoding="utf-8")
    kept = [ln for ln in manifest.splitlines() if not ln.startswith(("dt ", "delta "))]
    (tmp_path / "manifest.cfg").write_text("\n".join(kept + ["dt = auto", "delta = auto"]) + "\n",
                                           encoding="utf-8")
    assert cli.main([command, str(cli_run_dir / "diagnostics.csv"), str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{command} failed: delta = auto needs a numeric dt to find its window"]


# the 13-column header of a CSV written while rows still stored E, ratio_c1
# and ratio_c6
OLD_HEADER = ("t,mass,H,E,D,dist_total,dist_local,dist_hydro,pairing,ratio_c1,ratio_c6,"
              "kappa_min,kappa_max")


@pytest.mark.parametrize("command", ["fit", "audit"])
@pytest.mark.parametrize("content", ["empty", "header-only", "malformed", "old-schema"])
def test_cli_reports_a_bad_csv(cli_run_dir, tmp_path, capsys, command, content):
    csv = tmp_path / "diagnostics.csv"
    lines = (cli_run_dir / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    text = {"empty": "", "header-only": lines[0] + "\n",
            "malformed": "\n".join([lines[0], "1,2", lines[1]]) + "\n",
            "old-schema": OLD_HEADER + "\n" + ",".join(["0"] * 13) + "\n"}[content]
    csv.write_text(text, encoding="utf-8")
    assert cli.main([command, str(csv), str(cli_run_dir / "snapshots")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command} failed: {csv}")
    if content == "old-schema":
        assert err[0].startswith(f"{command} failed: {csv} has wrong columns ")


def test_cli_audit(cli_run_dir, capsys):
    rc = cli.main(
        ["audit", str(cli_run_dir / "diagnostics.csv"), str(cli_run_dir / "snapshots")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "c1_min = " in out
    assert "gronwall_ratio_min = " in out


def test_cli_audit_missing_manifest(cli_run_dir, tmp_path, capsys):
    rc = cli.main(
        ["audit", str(cli_run_dir / "diagnostics.csv"), str(tmp_path)]
    )
    assert rc == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["nodes_per_axis = 7", "nodes = 3", "t_final = nan"],
                         ids=["odd-lattice", "unknown-key", "t_final-nan"])
def test_cli_audit_reports_a_bad_manifest(cli_run_dir, tmp_path, capsys, line):
    manifest = (cli_run_dir / "snapshots" / "manifest.cfg").read_text(encoding="utf-8")
    key = line.split(" = ")[0]
    kept = [ln for ln in manifest.splitlines() if not ln.startswith(key + " ")]
    (tmp_path / "manifest.cfg").write_text("\n".join(kept + [line]) + "\n",
                                           encoding="utf-8")
    rc = cli.main(["audit", str(cli_run_dir / "diagnostics.csv"), str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    # the manifest is named: the audit stops there, before the snapshots
    assert len(err) == 1 and err[0].startswith(f"audit failed: {tmp_path / 'manifest.cfg'}: ")


def _audit_fails(csv, snap_dir, capsys):
    assert cli.main(["audit", str(csv), str(snap_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("audit failed: ")
    return err[0]


def test_cli_audit_reports_snapshots_on_the_ends_only(tmp_path, capsys):
    # 100 steps of dt = 0.015 make 11 records: snapshots 0 and 10 are the ends
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, t_final=1.5,
                              record_every=10)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    snaps = sorted(p.name for p in (out / "snapshots").glob("*.snap"))
    assert snaps == ["state_00000000.snap", "state_00000100.snap"]
    line = _audit_fails(out / "diagnostics.csv", out / "snapshots", capsys)
    assert line == "audit failed: every audit sample fell on the trajectory ends"


@pytest.mark.parametrize("damage", ["truncated", "other-lattice"])
def test_cli_audit_reports_a_bad_snapshot(cli_run_dir, tmp_path, capsys, damage):
    snap_dir = tmp_path / "snapshots"
    shutil.copytree(cli_run_dir / "snapshots", snap_dir)
    victim = sorted(snap_dir.glob("*.snap"))[1]
    if damage == "truncated":
        victim.write_bytes(victim.read_bytes()[:20])
        want = "is too short to be a snapshot"
    else:
        vgrid, sgrid = build_velocity_grid(1, 8.0, 8), build_spatial_grid(16)
        snapshot_dump(PhaseState(f=np.full((16, 8), 0.5), time=0.0, vgrid=vgrid,
                                 sgrid=sgrid), str(victim))
        want = "was written on a different velocity lattice"
    line = _audit_fails(cli_run_dir / "diagnostics.csv", snap_dir, capsys)
    assert line == f"audit failed: {victim} {want}"


class _Unwritable:
    """A field whose conversion to bytes fails, as a full disk would mid-dump."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_a_failed_snapshot_dump_leaves_the_earlier_snapshots_auditable(cli_run_dir, tmp_path,
                                                                       capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(cli_run_dir, run_dir)
    snap_dir, csv = run_dir / "snapshots", run_dir / "diagnostics.csv"
    before = sorted(snap_dir.iterdir())
    assert cli.main(["audit", str(csv), str(snap_dir)]) == 0
    want = capsys.readouterr().out
    config = load_config(str(snap_dir / "manifest.cfg"))
    vgrid, sgrid, _ = build_lattice(config)
    # the header is written, then the field fails: neither the snapshot nor
    # its partial file is left
    with pytest.raises(OSError, match="no space left"):
        snapshot_dump(PhaseState(f=_Unwritable(), time=9.0, vgrid=vgrid, sgrid=sgrid),
                      str(snap_dir / "state_99999999.snap"))
    assert sorted(snap_dir.iterdir()) == before
    # a dump killed outright leaves its partial file, which `audit` does not read
    partial = snap_dir / "state_99999999.snap.partial"
    partial.write_bytes(b"FBOLTSN1")
    assert cli.main(["audit", str(csv), str(snap_dir)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want, "")
    # and the next run in the directory sweeps it away
    run_experiment(config, output_dir=str(run_dir))
    assert sorted(snap_dir.iterdir()) == before


def test_cli_threads_pins_environment(cli_run_dir, monkeypatch):
    names = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
    for name in names:
        monkeypatch.setenv(name, "sentinel")
    assert cli.main(["--threads", "3", "fit", str(cli_run_dir / "diagnostics.csv"),
                     str(cli_run_dir / "snapshots")]) == 0
    for name in names:
        assert os.environ[name] == "3"


def test_package_and_cli_import_without_numpy():
    # `--threads` can pin the BLAS and OpenMP pools only while numpy is unloaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, fermibolt, fermibolt.cli; "
        "assert 'numpy' not in sys.modules, sorted(sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_check_passes(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
