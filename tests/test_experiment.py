"""Rate fitting, delta selection, run artifacts, audit, and the CLI."""
import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fermibolt import cli, evolution, experiment
from fermibolt.collision import build_kernel
from fermibolt.config import (
    DELTA_CANDIDATES,
    ConfigError,
    ExperimentConfig,
    format_config,
    load_config,
)
from fermibolt.experiment import (
    DIST_EPS,
    SNAPSHOT_STRIDE,
    FitError,
    InvariantViolation,
    audit_snapshots,
    build_lattice,
    choose_delta,
    estimate_decay_rate,
    run_experiment,
)
from fermibolt.equilibrium import global_equilibrium
from fermibolt.evolution import PhaseState
from fermibolt.fields import build_spatial_grid
from fermibolt.functionals import DiagnosticsRecord
from fermibolt.storage import CsvWriter, load_csv, snapshot_dump
from fermibolt.velocity import build_velocity_grid

import _bruteforce as bf
from _artifacts import snapshot_states


def _fake_records(t, dist, lyap):
    out = []
    for ti, di, ei in zip(t, dist, lyap):
        out.append(
            DiagnosticsRecord(
                float(ti), 1.0, float(ei), float(ei), 0.0,
                float(di), float(di) / 2.0, float(di) / 2.0, 0.0,
                1.0, 1.0, 1.0, 1.0,
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
        estimate_decay_rate(_fake_records(t, [1.0], [1.0]))


def test_fit_requires_functional_to_halve():
    t = np.linspace(0.0, 5.0, 40)
    dist = np.exp(-t)
    lyap = np.ones_like(t)
    with pytest.raises(FitError, match="half"):
        estimate_decay_rate(_fake_records(t, dist, lyap))


def test_fit_window_minimum_count():
    t = np.linspace(0.0, 1.0, 12)
    lyap = np.concatenate([[1.0], np.full(11, 0.3)])
    dist = np.exp(-t)
    with pytest.raises(FitError, match="too short"):
        estimate_decay_rate(_fake_records(t, dist, lyap))


def test_fit_rejects_zero_time_extent():
    t = np.array([0.0] + [1.0] * 30)
    lyap = np.array([1.0] + [0.4] * 30)
    dist = np.full(31, 0.1)
    with pytest.raises(FitError, match="time extent"):
        estimate_decay_rate(_fake_records(t, dist, lyap))


def test_default_fit_matches_independent_regression(default_run):
    records = default_run.records
    rep = default_run.rate_report
    t = np.array([r.t for r in records])
    dist = np.array([r.dist_total for r in records])
    lyap = np.array([r.E for r in records])
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


def test_choose_delta_needs_usable_points():
    t = np.linspace(0.0, 5.0, 51)
    h = np.exp(-t)
    with pytest.raises(ConfigError, match="too short"):
        choose_delta(t, h, 0.0 * h, np.zeros_like(h))


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
# and off the record grid, long before the end (t_final > 5).
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
    seen = {"steps": 0, "scanned": None}
    real_step, real_choose = experiment.step, experiment.choose_delta

    def counted_step(*args, **kwargs):
        seen["steps"] += 1
        return real_step(*args, **kwargs)

    def recorded_choose(*arrays, **kwargs):
        seen["scanned"] = arrays
        return real_choose(*arrays, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "step", counted_step)
        mp.setattr(experiment, "choose_delta", recorded_choose)
        result = run_experiment(config, output_dir=str(out_dir))
    return config, result, seen


def test_auto_delta_steps_each_trajectory_once(auto_run):
    _, result, seen = auto_run
    n_steps = math.ceil(result.config.t_final / result.dt - 1e-12)
    assert seen["steps"] == n_steps


def test_auto_delta_scans_the_two_pass_pilot_samples(auto_run):
    config, result, seen = auto_run
    n_steps = math.ceil(config.t_final / result.dt - 1e-12)
    n_window = math.ceil(min(config.t_final, 5.0) / result.dt - 1e-12)
    if config.t_final > 5.0:
        assert n_window < n_steps and n_window % config.record_every != 0
    pilot = bf.pilot_samples(result)
    assert len(seen["scanned"]) == len(pilot)
    for got, want in zip(seen["scanned"], pilot):
        assert np.array_equal(got, want)


def test_auto_delta_artifacts_match_two_pass_run(auto_run, tmp_path):
    config, result, _ = auto_run
    delta = choose_delta(*bf.pilot_samples(result))
    two_pass = run_experiment(
        dataclasses.replace(config, delta=delta), output_dir=str(tmp_path)
    )
    assert two_pass.config == result.config
    got, want = _tree_bytes(result.output_dir), _tree_bytes(tmp_path)
    assert sorted(got) == sorted(want)
    assert "diagnostics.csv" in got and os.path.join("snapshots", "manifest.cfg") in got
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("quantity", ["mass", "sandwich"])
def test_violation_between_records_aborts_at_its_step(quantity, monkeypatch, tmp_path):
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
    config = ExperimentConfig(
        nodes_per_axis=16, spatial_cells=16, t_final=1.0, record_every=10, delta=None
    )
    with pytest.raises(InvariantViolation) as err:
        run_experiment(config, output_dir=str(tmp_path))
    assert err.value.step_index == 3
    assert err.value.quantity == quantity
    # aborted inside the delta window: the snapshot, an unresolved manifest,
    # and the record rows without the delta-dependent columns stay on disk
    assert load_config(str(tmp_path / "snapshots" / "manifest.cfg")).delta is None
    assert (tmp_path / "snapshots" / "state_00000000.snap").exists()
    records, warnings = load_csv(str(tmp_path / "diagnostics.csv"))
    assert warnings == 0 and len(records) == 1
    assert math.isnan(records[0].E) and math.isnan(records[0].ratio_c6)


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
    n_steps = math.ceil(config.t_final / result.dt - 1e-12)
    assert calls["plan"] == 1
    assert calls["transport"] == transport_calls * n_steps
    assert calls["collision"] == n_steps
    # the sandwich is checked after every step and once more on the initial record
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
        ceiling = build_kernel("constant", vgrid, sigma0=100.0).dt_ceiling
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
    n_steps = math.ceil(res.config.t_final / res.dt - 1e-12)
    assert n_steps >= 1000
    assert max(r.dist_total for r in res.records) <= 1e-12
    assert np.array_equal(res.final_state.f, res.initial.state.f)
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
        )


def _audit_from_artifacts(out_dir):
    """What `fermibolt audit` computes from a run directory, as a dict."""
    snap_dir = os.path.join(out_dir, "snapshots")
    config = load_config(os.path.join(snap_dir, "manifest.cfg"))
    vgrid, sgrid, kernel = build_lattice(config)
    records, warnings = load_csv(os.path.join(out_dir, "diagnostics.csv"))
    assert warnings == 0
    eq = global_equilibrium(records[0].mass, sgrid.volume, vgrid)
    return audit_snapshots(records, snapshot_states(out_dir), kernel=kernel, eq=eq)


@pytest.fixture(scope="module")
def auto_delta_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("auto_delta_run")
    config = ExperimentConfig(nodes_per_axis=16, spatial_cells=16, transport="muscl2",
                              t_final=8.0, record_every=5, delta=None)
    return run_experiment(config, output_dir=str(out))


@pytest.mark.parametrize("name", ["tiny_run", "auto_delta_run"], ids=["pinned", "auto"])
def test_run_and_post_hoc_audits_agree_bitwise(name, request):
    # the run folds each snapshot record from its own observation; the
    # post-hoc audit reads the snapshot back and observes it again
    result = request.getfixturevalue(name)
    constants = result.rate_report.lemma_constants
    assert constants["samples_used"] >= 1
    post_hoc = _audit_from_artifacts(result.output_dir)
    assert list(post_hoc) == list(constants)
    assert post_hoc == constants


def test_audit_constants_on_tiny_run(tiny_run):
    constants = tiny_run.rate_report.lemma_constants
    for key in ("c1_min", "c6_min", "c9_min", "gronwall_ratio_min"):
        assert constants[key] > 0.0, key
    assert constants["c2_max_ratio"] > 0.0
    assert constants["c7_max"] >= constants["c6_min"]
    assert constants["c5_max"] >= constants["c4_min"] > 0.0
    assert constants["step1_excess_max"] <= 1e-8
    assert constants["samples_used"] >= 1


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

def test_run_artifacts_complete(default_run):
    out = default_run.output_dir
    assert out is not None
    report = default_run.rate_report

    records, warnings = load_csv(os.path.join(out, "diagnostics.csv"))
    assert warnings == 0
    assert len(records) == len(default_run.records)
    for got, want in zip(records, default_run.records):
        for a, b in zip(got.as_row(), want.as_row()):
            # the first record carries nan ratios, and nan != nan
            assert a == b or (math.isnan(a) and math.isnan(b))

    snap_dir = os.path.join(out, "snapshots")
    manifest = load_config(os.path.join(snap_dir, "manifest.cfg"))
    assert manifest.dt == default_run.dt
    assert manifest.delta == default_run.config.delta
    assert manifest.nodes_per_axis == 64
    assert manifest.spatial_cells == 64

    snaps = sorted(n for n in os.listdir(snap_dir) if n.endswith(".snap"))
    assert snaps[0] == "state_00000000.snap"
    assert len(snaps) == len(range(0, len(default_run.records), SNAPSHOT_STRIDE))

    kv = {}
    with open(os.path.join(out, "rate_report.kv"), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            kv[key.strip()] = value.strip()
    assert float(kv["lambda_obs"]) == report.lambda_obs
    assert float(kv["r_squared"]) == report.r_squared
    assert int(kv["n_fit_records"]) == report.n_fit_records
    assert float(kv["delta"]) == report.delta
    assert float(kv["c1_min"]) == report.lemma_constants["c1_min"]
    assert os.path.exists(os.path.join(out, "rate_report.txt"))


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
    assert cli.main(["fit", str(cli_run_dir / "diagnostics.csv")]) == 0
    out = capsys.readouterr().out
    assert "lambda_obs = " in out
    assert "r_squared = " in out


def test_cli_fit_reports_failure(tmp_path, capsys):
    path = tmp_path / "short.csv"
    t = np.array([0.0, 0.1, 0.2])
    with CsvWriter(str(path)) as writer:
        for rec in _fake_records(t, np.exp(-t), np.exp(-2.0 * t)):
            writer.write(rec)
    assert cli.main(["fit", str(path)]) == 1
    assert "fit failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "audit"])
@pytest.mark.parametrize("content", ["empty", "header-only", "malformed"])
def test_cli_reports_a_bad_csv(cli_run_dir, tmp_path, capsys, command, content):
    csv = tmp_path / "diagnostics.csv"
    lines = (cli_run_dir / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    text = {"empty": "", "header-only": lines[0] + "\n",
            "malformed": "\n".join([lines[0], "1,2", lines[1]]) + "\n"}[content]
    csv.write_text(text, encoding="utf-8")
    snapshots = [str(cli_run_dir / "snapshots")] if command == "audit" else []
    assert cli.main([command, str(csv)] + snapshots) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command} failed: {csv}")


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


@pytest.mark.parametrize("line", ["nodes_per_axis = 7", "nodes = 3"],
                         ids=["odd-lattice", "unknown-key"])
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
    assert len(err) == 1 and err[0].startswith("audit failed: ")


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
    assert cli.main(["--threads", "3", "fit", str(cli_run_dir / "diagnostics.csv")]) == 0
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
