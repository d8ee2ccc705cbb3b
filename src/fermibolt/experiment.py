"""Experiment driver: trajectories, decay-rate fits, inequality audits.

A run evolves the split scheme from the cosine-profile initial data,
streams one diagnostics record every few steps, retains sparse full
snapshots, and aborts loudly if conservation, admissibility, or the
sign of the entropy production ever fails. Post-processing fits the
exponential decay rate of the equilibrium distance on the late-time
window and recomputes both sides of every inequality in the decay
chain, reporting the empirical extremal constants.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .collision import CollisionKernel, apply_collision, build_kernel
from .config import DELTA_CANDIDATES, ConfigError, ExperimentConfig, format_config
from .equilibrium import EquilibriumProfile, global_equilibrium, project
from .evolution import (
    InitialData,
    PhaseState,
    SchemeConfig,
    cfl_max_dt,
    initial_state,
    plan_step,
    step,
)
from .fields import (
    FieldSet,
    SpatialGrid,
    build_spatial_grid,
    centered_gradient,
    moments,
    solve_poisson,
)
from .functionals import (
    DiagnosticsRecord,
    dissipation,
    field_current_pairing,
    relative_entropy,
    weighted_norm,
)
from .storage import CsvWriter, snapshot_dump
from .velocity import VelocityGrid, build_velocity_grid, integrate

__all__ = [
    "InvariantViolation",
    "FitError",
    "RateReport",
    "RunResult",
    "run_experiment",
    "estimate_decay_rate",
    "audit_proof_chain",
    "choose_delta",
    "write_rate_report",
    "SNAPSHOT_STRIDE",
]

SNAPSHOT_STRIDE = 10          # full state every this many records
DELTA_WINDOW = 5.0            # time span whose records choose delta = auto
MASS_DRIFT_TOL = 1e-12        # relative, abort threshold
DISSIPATION_FLOOR = -1e-12    # abort if D drops below
FIT_MIN_RECORDS = 20
DIST_EPS = 10.0 * np.finfo(float).eps
# The entropy is a fully cancelled log expression, so its absolute noise
# floor sits near eps times the initial value; ratios built from it are
# only meaningful well above that level.
ENTROPY_NOISE_FACTOR = 1e4 * np.finfo(float).eps


class InvariantViolation(RuntimeError):
    """A conserved or signed quantity broke during a run."""

    def __init__(self, step_index: int, quantity: str, detail: str):
        self.step_index = step_index
        self.quantity = quantity
        super().__init__(f"step {step_index}: {quantity} invariant failed ({detail})")


class FitError(RuntimeError):
    """Decay-rate fit could not be performed on the available records."""


@dataclass
class RateReport:
    """Fitted decay law and the empirical proof-chain constants."""

    lambda_obs: float
    c_obs: float
    r_squared: float
    window_start: float
    window_end: float
    n_fit_records: int
    delta: float
    lemma_constants: dict = field(default_factory=dict)


@dataclass
class RunResult:
    records: list
    final_state: PhaseState
    audit_states: list
    rate_report: RateReport | None
    config: ExperimentConfig
    kernel: CollisionKernel
    equilibrium: EquilibriumProfile
    initial: InitialData
    dt: float
    output_dir: str | None = None


def _diagnose(
    state: PhaseState,
    kernel: CollisionKernel,
    eq: EquilibriumProfile,
    prev: DiagnosticsRecord | None,
) -> DiagnosticsRecord:
    """The record of a state; E and ratio_c6 stay nan until `_couple`."""
    vg, sg = state.vgrid, state.sgrid
    f = state.f
    rho, j = moments(f, vg)
    mass = float(np.sum(rho)) * sg.spacing
    phi, grad_phi = solve_poisson(rho, eq.density, sg)
    fields = FieldSet(rho=rho, j=j, phi=phi, grad_phi=grad_phi)
    proj, kappa = project(f, vg, kappa_cache=state.kappa_cache)
    state.kappa_cache = kappa
    dist_total = weighted_norm(f - eq.profile[None, :], vg, sg)
    dist_local = weighted_norm(f - proj, vg, sg)
    dist_hydro = weighted_norm(proj - eq.profile[None, :], vg, sg)
    entropy = relative_entropy(f, eq.profile, vg, sg)
    production = dissipation(f, kernel, vg, sg)
    pairing = field_current_pairing(fields, sg)
    if prev is not None and dist_local > 0.0 and state.time > prev.t:
        ratio_c1 = (prev.H - entropy) / (state.time - prev.t) / dist_local**2
    else:
        ratio_c1 = math.nan
    return DiagnosticsRecord(
        t=state.time,
        mass=mass,
        H=entropy,
        E=math.nan,
        D=production,
        dist_total=dist_total,
        dist_local=dist_local,
        dist_hydro=dist_hydro,
        pairing=pairing,
        ratio_c1=ratio_c1,
        ratio_c6=math.nan,
        kappa_min=float(kappa.min()),
        kappa_max=float(kappa.max()),
    )


def _couple(record: DiagnosticsRecord, delta: float) -> DiagnosticsRecord:
    """Fill in the augmented functional E = H + delta * pairing and E / dist^2."""
    lyapunov = record.H + delta * record.pairing
    dist_total = record.dist_total
    ratio_c6 = lyapunov / dist_total**2 if dist_total > 0.0 else math.nan
    return replace(record, E=lyapunov, ratio_c6=ratio_c6)


def _check_mass(step_index: int, mass: float, mass0: float) -> None:
    drift = abs(mass - mass0)
    if drift > MASS_DRIFT_TOL * abs(mass0):
        raise InvariantViolation(
            step_index, "mass", f"drift {drift:.3e} relative to {mass0:.6g}"
        )


def _check_sandwich(step_index: int, f: np.ndarray, init: InitialData) -> None:
    if np.any(f < init.f_lower) or np.any(f > init.f_upper):
        low = float(np.min(f - init.f_lower[None, :]))
        high = float(np.max(f - init.f_upper[None, :]))
        raise InvariantViolation(
            step_index,
            "sandwich",
            f"barrier defect below {low:.3e} / above {high:.3e}",
        )


def _check_record(step_index: int, record: DiagnosticsRecord, mass0: float) -> None:
    _check_mass(step_index, record.mass, mass0)
    if record.D < DISSIPATION_FLOOR:
        raise InvariantViolation(step_index, "dissipation", f"D = {record.D:.3e}")


def choose_delta(
    t: np.ndarray,
    entropy: np.ndarray,
    pairing: np.ndarray,
    dist_total: np.ndarray,
    candidates=DELTA_CANDIDATES,
) -> float:
    """Pick the drift coupling from samples of the run's first time units.

    Among the candidate values for which the augmented functional stays
    equivalent to the squared distance (positive ratio throughout), take
    the one with the best worst-case decay ratio; ties go to the larger
    coupling.
    """
    usable = dist_total > DIST_EPS
    if np.count_nonzero(usable) < 3:
        raise ConfigError("delta window too short to scan delta")
    best = None
    best_score = -np.inf
    for cand in sorted(candidates, reverse=True):
        lyap = entropy + cand * pairing
        ratios = lyap[usable] / dist_total[usable] ** 2
        if np.min(ratios) <= 0.0:
            continue
        floor = 100.0 * np.finfo(float).eps * max(lyap[0], 0.0)
        rates = []
        for i in range(1, len(t) - 1):
            if lyap[i] > floor and t[i + 1] > t[i - 1]:
                rates.append(-(lyap[i + 1] - lyap[i - 1]) / (t[i + 1] - t[i - 1]) / lyap[i])
        if len(rates) < 3:
            continue
        score = min(rates)
        if score > best_score + 1e-12:
            best_score = score
            best = cand
    if best is None:
        raise ConfigError(
            "no candidate delta keeps the augmented functional positive"
        )
    return best


def _resolve_delta(samples: list[tuple]) -> float:
    """Pick delta from the (t, H, pairing, dist_total) samples of the window."""
    t, entropy, pairing, dist_total = (np.array(column) for column in zip(*samples))
    return choose_delta(t, entropy, pairing, dist_total)


def _write_manifest(snap_dir: str, config: ExperimentConfig) -> None:
    with open(os.path.join(snap_dir, "manifest.cfg"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))


def run_experiment(config: ExperimentConfig, output_dir: str | None = None) -> RunResult:
    """Evolve the configured system and collect diagnostics.

    When `output_dir` is given the diagnostics stream to
    diagnostics.csv, sparse snapshots and a manifest go to snapshots/,
    and the rate report is written in both text and key = value form.

    With `delta = auto` the first min(t_final, DELTA_WINDOW) of the run
    itself chooses delta: its records are held, without E and ratio_c6,
    until the step that closes the window; then delta is resolved, the
    held records are completed and written, and the run streams on.
    """
    config.validate()
    vgrid = build_velocity_grid(config.d_v, config.half_width, config.nodes_per_axis)
    sgrid = build_spatial_grid(config.spatial_cells)
    kernel = build_kernel(
        config.kernel,
        vgrid,
        sigma0=config.sigma0,
        table_path=config.kernel_file or None,
    )
    init = initial_state(
        sgrid,
        vgrid,
        config.kappa_bar,
        config.amplitude,
        perturbation=config.perturbation,
        seed=config.seed,
    )
    draft = SchemeConfig(
        dt=1.0,
        cfl_safety=config.cfl_safety,
        transport_order=config.transport,
        splitting=config.splitting,
    )
    dt = config.dt if config.dt is not None else cfl_max_dt(init.state, kernel, draft)
    # refuses a pinned dt over the Courant limit or the collision ceiling
    # before any output is written
    plan = plan_step(kernel, vgrid, sgrid, replace(draft, dt=dt))

    rho0, _ = moments(init.state.f, vgrid)
    mass0 = float(np.sum(rho0)) * sgrid.spacing
    eq = global_equilibrium(mass0, sgrid.volume, vgrid)

    delta = config.delta  # None until the window closes on an auto run
    n_steps = max(1, math.ceil(config.t_final / dt - 1e-12))
    n_window = max(1, math.ceil(min(config.t_final, DELTA_WINDOW) / dt - 1e-12))

    writer = None
    snap_dir = None
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        snap_dir = os.path.join(output_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        _write_manifest(snap_dir, replace(config, dt=dt))
        writer = CsvWriter(os.path.join(output_dir, "diagnostics.csv"))

    state = init.state.copy()
    records: list[DiagnosticsRecord] = []
    audit_states: list[PhaseState] = []

    def on_record(step_index: int, state: PhaseState) -> None:
        prev = records[-1] if records else None
        record = _diagnose(state, kernel, eq, prev)
        _check_record(step_index, record, mass0)
        if step_index == 0:
            # every later state has passed `check_step` inside `step`
            _check_sandwich(step_index, state.f, init)
        if delta is not None:
            record = _couple(record, delta)
            if writer is not None:
                writer.write(record)
        records.append(record)
        if (len(records) - 1) % SNAPSHOT_STRIDE == 0:
            audit_states.append(state.copy())
            if snap_dir is not None:
                snapshot_dump(
                    state, os.path.join(snap_dir, f"state_{step_index:08d}.snap")
                )

    def check_step(step_index: int, state: PhaseState) -> None:
        # node totals first: far cheaper than `moments`, same mass to rounding
        mass = float(np.sum(np.sum(state.f, axis=0) * vgrid.weights)) * sgrid.spacing
        _check_mass(step_index, mass, mass0)
        _check_sandwich(step_index, state.f, init)

    try:
        on_record(0, state)
        for k in range(1, n_steps + 1):
            state = step(state, plan, check=partial(check_step, k))
            recorded = k % config.record_every == 0 or k == n_steps
            if recorded:
                on_record(k, state)
            if delta is None and k == n_window:
                samples = [(r.t, r.H, r.pairing, r.dist_total) for r in records]
                if not recorded:
                    # a copy, so the warm start of later records stays as it was
                    extra = _diagnose(state.copy(), kernel, eq, None)
                    samples.append((extra.t, extra.H, extra.pairing, extra.dist_total))
                delta = _resolve_delta(samples)
                records[:] = [_couple(r, delta) for r in records]
                if writer is not None:
                    _write_manifest(snap_dir, replace(config, dt=dt, delta=delta))
                    for record in records:
                        writer.write(record)
    finally:
        if writer is not None:
            if delta is None:
                # Stopped inside the window: keep the rows, E and ratio_c6 nan.
                for record in records:
                    writer.write(record)
            writer.close()
    resolved = replace(config, dt=dt, delta=delta)

    report: RateReport | None = None
    try:
        report = estimate_decay_rate(records, delta)
    except FitError:
        report = None
    if report is not None:
        try:
            report.lemma_constants = audit_proof_chain(
                records, audit_states, kernel=kernel, eq=eq, delta=delta
            )
        except (ValueError, RuntimeError):
            report.lemma_constants = {}
        if output_dir is not None:
            write_rate_report(
                report,
                os.path.join(output_dir, "rate_report.txt"),
                os.path.join(output_dir, "rate_report.kv"),
            )
    return RunResult(
        records=records,
        final_state=state,
        audit_states=audit_states,
        rate_report=report,
        config=resolved,
        kernel=kernel,
        equilibrium=eq,
        initial=init,
        dt=dt,
        output_dir=output_dir,
    )


def estimate_decay_rate(records, delta: float = math.nan) -> RateReport:
    """Least-squares exponential rate of dist_total on the decay window.

    The window opens once the augmented functional has lost half its
    initial value (the early transient carries the wrong slope) and
    keeps every later record whose distance is numerically meaningful.
    """
    t = np.array([r.t for r in records])
    dist = np.array([r.dist_total for r in records])
    lyap = np.array([r.E for r in records])
    if len(records) < 2:
        raise FitError("need at least two records to fit a rate")
    half = np.nonzero(lyap <= 0.5 * lyap[0])[0]
    if half.size == 0:
        raise FitError(
            "the augmented functional never reached half its initial value; "
            "run longer before fitting"
        )
    mask = (np.arange(len(t)) >= half[0]) & (dist > DIST_EPS)
    n_used = int(np.count_nonzero(mask))
    if n_used < FIT_MIN_RECORDS:
        raise FitError(
            f"usable fit window too short: {n_used} records, "
            f"need {FIT_MIN_RECORDS}"
        )
    ts = t[mask]
    ys = np.log(dist[mask])
    t_mean = float(np.mean(ts))
    y_mean = float(np.mean(ys))
    var = float(np.sum((ts - t_mean) ** 2))
    if var == 0.0:
        raise FitError("fit window has no time extent")
    slope = float(np.sum((ts - t_mean) * (ys - y_mean))) / var
    intercept = y_mean - slope * t_mean
    residual = ys - (intercept + slope * ts)
    ss_tot = float(np.sum((ys - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residual**2)) / ss_tot
    return RateReport(
        lambda_obs=-slope,
        c_obs=float(np.exp(intercept)) / dist[0],
        r_squared=r_squared,
        window_start=float(ts[0]),
        window_end=float(ts[-1]),
        n_fit_records=n_used,
        delta=delta,
    )


def _density_rate(j1: np.ndarray, sgrid: SpatialGrid) -> np.ndarray:
    """Instantaneous d rho / dt from the semi-discrete continuity law.

    The current of a projected state vanishes exactly on the mirror
    lattice, so this rate sees only the fluctuation part of f, which is
    what the drift-term bound is about.
    """
    return -centered_gradient(j1, sgrid)


def audit_proof_chain(
    records,
    states,
    *,
    kernel: CollisionKernel,
    eq: EquilibriumProfile,
    delta: float,
    dist_floor: float = 1e-9,
) -> dict:
    """Recompute both sides of every inequality in the decay chain.

    Returns the empirical extremal constants; every value the argument
    requires to be positive must come out positive on a healthy run.
    Samples whose distances fall below `dist_floor` cannot support a
    ratio and are skipped (the skip count is part of the result), and
    entropy-based ratios additionally require the entropy itself to sit
    above its round-off noise floor.
    """
    if not states:
        raise ValueError("no audit states supplied")
    t = np.array([r.t for r in records])
    entropy = np.array([r.H for r in records])
    lyap = np.array([r.E for r in records])
    dist_total = np.array([r.dist_total for r in records])
    pairing = np.array([r.pairing for r in records])

    out = {
        "c1_min": np.inf,
        "c2_max_ratio": 0.0,
        "c3_min": np.inf,
        "c4_min": np.inf,
        "c5_max": 0.0,
        "c6_min": np.inf,
        "c7_max": 0.0,
        "c8_max": 0.0,
        "c9_min": np.inf,
        "c10_max": -np.inf,
        "c11_max": -np.inf,
        "gronwall_ratio_min": np.inf,
        "step1_excess_max": -np.inf,
        "samples_used": 0,
        "samples_skipped": 0,
    }
    audited_indices = []
    for state in states:
        vg, sg = state.vgrid, state.sgrid
        matches = np.nonzero(np.abs(t - state.time) <= 1e-9 * max(1.0, abs(state.time)))[0]
        if matches.size == 0:
            raise ValueError(
                f"snapshot at t = {state.time:.6g} has no matching record"
            )
        k = int(matches[0])
        if k == 0 or k == len(records) - 1:
            out["samples_skipped"] += 1
            continue
        audited_indices.append(k)
        f = state.f
        rho, j = moments(f, vg)
        phi, grad_phi = solve_poisson(rho, eq.density, sg)
        proj, kappa = project(f, vg, kappa_cache=state.kappa_cache)
        dl = weighted_norm(f - proj, vg, sg)
        dh = weighted_norm(proj - eq.profile[None, :], vg, sg)
        q_coll = apply_collision(f, kernel, vg)

        # entropy production vs local distance, and the operator bound
        ent_floor = ENTROPY_NOISE_FACTOR * max(entropy[0], 0.0)
        if dl > dist_floor:
            q_norm = weighted_norm(q_coll, vg, sg)
            out["c2_max_ratio"] = max(out["c2_max_ratio"], q_norm / dl)
            if min(entropy[k - 1], entropy[k + 1]) > ent_floor:
                dhdt = (entropy[k + 1] - entropy[k - 1]) / (t[k + 1] - t[k - 1])
                out["c1_min"] = min(out["c1_min"], -dhdt / dl**2)
            else:
                out["samples_skipped"] += 1
        else:
            out["samples_skipped"] += 1

        # pointwise profile-vs-moment comparisons
        dkap = kappa - eq.kappa
        drho = rho - eq.density
        keep = np.abs(dkap) > 1e-9 * eq.kappa
        if np.any(keep):
            dev = (proj[keep] - eq.profile[None, :]) / vg.maxwellian[None, :]
            dev_sq = dev * dev
            rk_rhs = (dkap[keep] * drho[keep])[:, None]
            out["c3_min"] = min(out["c3_min"], float(np.min(rk_rhs / dev_sq)))
            rr = (drho[keep] ** 2)[:, None] / dev_sq
            out["c4_min"] = min(out["c4_min"], float(np.min(rr)))
            out["c5_max"] = max(out["c5_max"], float(np.max(rr)))

        # drift term: instantaneous potential motion against the current
        rate = _density_rate(j[:, 0], sg)
        _, dgrad_dt = solve_poisson(rate, 0.0, sg)
        s1 = float(np.sum(dgrad_dt * j[:, 0])) * sg.spacing
        out["step1_excess_max"] = max(out["step1_excess_max"], s1 - vg.dim * dl**2)

        # hydrodynamic coercivity and the two cross terms
        if dh > dist_floor:
            q_second = integrate(
                (proj - eq.profile[None, :]) * (vg.first_axis**2)[None, :], vg
            )
            t1 = -float(np.sum(grad_phi * centered_gradient(q_second, sg))) * sg.spacing
            out["c9_min"] = min(out["c9_min"], -t1 / dh**2)
            if dl > dist_floor:
                g_dev = f - proj
                dx_g = (np.roll(g_dev, -1, axis=0) - np.roll(g_dev, 1, axis=0)) / (
                    2.0 * sg.spacing
                )
                flux2 = integrate(dx_g * (vg.first_axis**2)[None, :], vg)
                t2 = -float(np.sum(grad_phi * flux2)) * sg.spacing
                out["c10_max"] = max(out["c10_max"], t2 / (dl * dh))
                flux_q = integrate(q_coll * vg.first_axis[None, :], vg)
                t3 = float(np.sum(grad_phi * flux_q)) * sg.spacing
                out["c11_max"] = max(out["c11_max"], t3 / (dl * dh))
        out["samples_used"] += 1

    if not audited_indices:
        raise ValueError("every audit sample fell on the trajectory ends")
    lo, hi = min(audited_indices), max(audited_indices)
    window = range(max(lo, 1), min(hi, len(records) - 2) + 1)
    lyap_floor = ENTROPY_NOISE_FACTOR * max(lyap[0], 0.0)
    for i in window:
        if lyap[i] > lyap_floor:
            rate = -(lyap[i + 1] - lyap[i - 1]) / (t[i + 1] - t[i - 1]) / lyap[i]
            out["gronwall_ratio_min"] = min(out["gronwall_ratio_min"], rate)
        if dist_total[i] > dist_floor:
            if lyap[i] > lyap_floor:
                ratio = lyap[i] / dist_total[i] ** 2
                out["c6_min"] = min(out["c6_min"], ratio)
                out["c7_max"] = max(out["c7_max"], ratio)
            out["c8_max"] = max(out["c8_max"], abs(pairing[i]) / dist_total[i] ** 2)
    return out


def write_rate_report(report: RateReport, txt_path: str, kv_path: str) -> None:
    lines = [
        "decay-rate fit",
        "==============",
        f"lambda_obs    = {report.lambda_obs:.6g}",
        f"c_obs         = {report.c_obs:.6g}",
        f"r_squared     = {report.r_squared:.6g}",
        f"fit window    = [{report.window_start:.6g}, {report.window_end:.6g}]"
        f" ({report.n_fit_records} records)",
        f"delta         = {report.delta:.6g}",
    ]
    if report.lemma_constants:
        lines += ["", "proof-chain constants (empirical)", "---------------------------------"]
        for key, value in report.lemma_constants.items():
            if isinstance(value, float):
                lines.append(f"{key} = {value:.6g}")
            else:
                lines.append(f"{key} = {value}")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(kv_path, "w", encoding="utf-8") as fh:
        fh.write(f"lambda_obs = {report.lambda_obs:.17g}\n")
        fh.write(f"c_obs = {report.c_obs:.17g}\n")
        fh.write(f"r_squared = {report.r_squared:.17g}\n")
        fh.write(f"window_start = {report.window_start:.17g}\n")
        fh.write(f"window_end = {report.window_end:.17g}\n")
        fh.write(f"n_fit_records = {report.n_fit_records}\n")
        fh.write(f"delta = {report.delta:.17g}\n")
        for key, value in report.lemma_constants.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.17g}\n")
            else:
                fh.write(f"{key} = {value}\n")
