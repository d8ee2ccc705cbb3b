"""Experiment driver: trajectories, decay-rate fits, inequality audits.

A run evolves the split scheme from the cosine-profile initial data,
writes a diagnostics record every few steps as soon as it is made,
writes sparse full snapshots, and aborts loudly if conservation,
admissibility, or the sign of the entropy production ever fails. Each
record sees its moments, field and local projection through one
`observe`, warm-started from the previous record's kappa; each snapshot
record is folded into the audit of the decay chain from that same
observation, so no state is held for it. Post-processing fits the
exponential decay rate of the equilibrium distance on the late-time
window and finishes the audit's record-only terms, reporting the
empirical extremal constants. Both form the modified entropy
E = H + delta * pairing from the records (`modified_entropy`), which
do not store it.

The record pass and the audit fold build every state-sized temporary in
the step plan's four workspace rows, idle between steps, so the
RESIDENT_STATES arrays that `_check_budgets` counts bound the run's peak.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .collision import TABLE_BUDGET_BYTES, CollisionKernel, apply_collision, build_kernel
from .config import DELTA_CANDIDATES, ConfigError, ExperimentConfig, format_config
from .equilibrium import EquilibriumProfile, global_equilibrium, project
from .evolution import (
    InitialData,
    PhaseState,
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
    "build_lattice",
    "run_experiment",
    "estimate_decay_rate",
    "audit_proof_chain",
    "audit_snapshots",
    "choose_delta",
    "kv_lines",
    "modified_entropy",
    "observe",
    "write_rate_report",
    "SNAPSHOT_STRIDE",
    "STATE_BUDGET_BYTES",
]

SNAPSHOT_STRIDE = 10          # full state every this many records
# Largest total of the (cells, nodes) float64 arrays alive at once in a
# run, at its peak: the initial and current states and a step's two fresh
# sub-step results, the plan's four workspace rows and its mu, muscl and
# Maxwellian tiles, and the two barrier tiles of the per-step check.
# Between steps the record pass and the audit fold work in the plan's
# rows and hold at most two fresh arrays, the projection and one more, in
# the slots of the step's results.
STATE_BUDGET_BYTES = 512 * 2**20
RESIDENT_STATES = 13
DELTA_WINDOW = 5.0            # time span whose records choose delta = auto
MASS_DRIFT_TOL = 1e-12        # relative, abort threshold
DISSIPATION_FLOOR = -1e-12    # abort if D drops below
FIT_MIN_RECORDS = 20
DIST_EPS = 10.0 * np.finfo(float).eps
AUDIT_DIST_FLOOR = 1e-9       # audit ratios skip distances below this
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
    rate_report: RateReport | None
    config: ExperimentConfig
    kernel: CollisionKernel
    equilibrium: EquilibriumProfile
    initial: InitialData
    output_dir: str | None = None


def observe(f: np.ndarray, eq: EquilibriumProfile, warm: np.ndarray | None,
            vgrid: VelocityGrid, sgrid: SpatialGrid, work=None):
    """Moments, Poisson field and local Fermi-Dirac projection of one state.

    Returns (fields, proj, kappa), each quantity computed once: the
    projection inverts the density that `moments` found, starting its
    Newton solve from the kappa field `warm` (None for a cold start).
    Pure: the caller decides where the new kappa is kept. `work` is
    scratch of f's shape for the moments and the Newton solve; proj is
    the one new array of that shape.
    """
    rho, j = moments(f, vgrid, work)
    phi, grad_phi = solve_poisson(rho, eq.density, sgrid)
    proj, kappa = project(f, vgrid, kappa_cache=warm, rho=rho, work=work)
    return FieldSet(rho, j, phi, grad_phi), proj, kappa


def _diagnose(
    state: PhaseState,
    kernel: CollisionKernel,
    eq: EquilibriumProfile,
    work=None,
) -> tuple[DiagnosticsRecord, tuple]:
    """The record of a state and its `observe`.

    The projection starts from `state.kappa_cache`, which is left as it is.
    Every functional builds its temporaries in `work`, four arrays of the
    state's shape (a run passes its plan's workspace; None lets each
    allocate its own).
    """
    vg, sg = state.vgrid, state.sgrid
    f = state.f
    fields, proj, kappa = observe(f, eq, state.kappa_cache, vg, sg, work)
    record = DiagnosticsRecord(
        t=state.time,
        mass=float(np.add.reduce(fields.rho)) * sg.spacing,
        H=relative_entropy(f, eq.profile, vg, sg, work),
        D=dissipation(f, kernel, vg, sg, work),
        dist_total=weighted_norm(f, vg, sg, eq.profile, work),
        dist_local=weighted_norm(f, vg, sg, proj, work),
        dist_hydro=weighted_norm(proj, vg, sg, eq.profile, work),
        pairing=field_current_pairing(fields, sg),
        kappa_min=float(np.minimum.reduce(kappa)),
        kappa_max=float(np.maximum.reduce(kappa)),
    )
    return record, (fields, proj, kappa)


def modified_entropy(records, delta: float) -> np.ndarray:
    """E = H + delta * pairing of each record, the functional whose decay is fitted."""
    return np.array([r.H for r in records]) + delta * np.array([r.pairing for r in records])


def _check_mass(step_index: int, mass: float, mass0: float) -> None:
    drift = abs(mass - mass0)
    if not drift <= MASS_DRIFT_TOL * abs(mass0):  # NaN fails
        raise InvariantViolation(
            step_index, "mass", f"drift {drift:.3e} relative to {mass0:.6g}"
        )


def _check_sandwich(step_index: int, f: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray) -> None:
    """f between the barrier tiles `lower` and `upper`, both of f's shape."""
    if not ((f >= lower).all() and (f <= upper).all()):  # NaN fails
        low = float(np.min(f - lower))
        high = float(np.max(f - upper))
        raise InvariantViolation(
            step_index,
            "sandwich",
            f"barrier defect below {low:.3e} / above {high:.3e}",
        )


def _check_record(step_index: int, record: DiagnosticsRecord, mass0: float) -> None:
    _check_mass(step_index, record.mass, mass0)
    if not record.D >= DISSIPATION_FLOOR:  # NaN fails
        raise InvariantViolation(step_index, "dissipation", f"D = {record.D:.3e}")


def choose_delta(
    t: np.ndarray,
    entropy: np.ndarray,
    pairing: np.ndarray,
    dist_total: np.ndarray,
    candidates=DELTA_CANDIDATES,
) -> float:
    """Pick delta, the corrector's weight, from samples of the run's first time units.

    Among the candidate values for which the modified entropy stays
    equivalent to the squared distance (positive ratio throughout), take
    the one with the best worst-case decay ratio; ties go to the larger
    weight.
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


def _resolve_delta(window: list[DiagnosticsRecord]) -> float:
    """Pick delta from the records of the delta window."""
    t, entropy, pairing, dist_total = (np.array([getattr(r, name) for r in window])
                                       for name in ("t", "H", "pairing", "dist_total"))
    return choose_delta(t, entropy, pairing, dist_total)


def _write_manifest(snap_dir: str, config: ExperimentConfig) -> None:
    with open(os.path.join(snap_dir, "manifest.cfg"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))


def _check_budgets(config: ExperimentConfig) -> None:
    """ConfigError when the run's resident states or its kernel table exceed a budget.

    Sized from the config alone, before any lattice array exists. The
    table is n x n: n is nodes_per_axis for the `gaussian_bump` factor and
    the velocity node count, which its header must declare, for a
    `custom_table`. A velocity dimension the grid refuses is left to it.
    """
    if config.d_v not in (1, 2):
        return
    n_nodes = config.nodes_per_axis**config.d_v
    total = RESIDENT_STATES * 8 * config.spatial_cells * n_nodes
    if total > STATE_BUDGET_BYTES:
        raise ConfigError(
            f"{config.spatial_cells} cells x {n_nodes} velocity nodes: the run's "
            f"{RESIDENT_STATES} resident state arrays take {total} bytes "
            f"({total / 2**20:.6g} MiB), over the {STATE_BUDGET_BYTES // 2**20} MiB budget"
        )
    n = {"gaussian_bump": config.nodes_per_axis, "custom_table": n_nodes}.get(config.kernel, 0)
    if 8 * n * n > TABLE_BUDGET_BYTES:
        raise ConfigError(
            f"{config.kernel} kernel: its {n} x {n} table takes {8 * n * n} bytes "
            f"({8 * n * n / 2**20:.6g} MiB), over the {TABLE_BUDGET_BYTES // 2**20} MiB budget"
        )


def build_lattice(config: ExperimentConfig):
    """(vgrid, sgrid, kernel) of a run; ConfigError if the lattice or kernel file fails.

    The memory budgets are checked first, before anything lattice-sized
    is allocated.
    """
    _check_budgets(config)
    try:
        vgrid = build_velocity_grid(config.d_v, config.half_width, config.nodes_per_axis)
        sgrid = build_spatial_grid(config.spatial_cells)
        kernel = build_kernel(config.kernel, vgrid, sigma0=config.sigma0,
                              table_path=config.kernel_file or None)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return vgrid, sgrid, kernel


def run_experiment(config: ExperimentConfig, output_dir: str | None = None) -> RunResult:
    """Evolve the configured system and collect diagnostics.

    When `output_dir` is given each record goes to diagnostics.csv as
    soon as it is made, sparse snapshots and a manifest go to snapshots/,
    and the rate report is written in both text and key = value form.

    With `delta = auto` the records of the first min(t_final, DELTA_WINDOW)
    of the run itself choose delta at the step that closes the window,
    with one more sample there when that step is off the record grid; the
    manifest, written with `delta = auto` before the first step, is then
    rewritten with the chosen value. Each interior snapshot record is
    folded into the audit as it is made, and its index is kept for
    `_close_audit`. Records, the audit folds and the initial mass work in
    the step plan's workspace rows, so the run's state-sized arrays never
    exceed the RESIDENT_STATES that `_check_budgets` admitted.
    """
    config.validate()
    vgrid, sgrid, kernel = build_lattice(config)
    init = initial_state(
        sgrid,
        vgrid,
        config.kappa_bar,
        config.amplitude,
        perturbation=config.perturbation,
        seed=config.seed,
    )
    # the barriers as tiles of the state's shape, for the per-step check
    lower, upper = (np.tile(row, (sgrid.cells, 1)) for row in (init.f_lower, init.f_upper))
    # resolves `dt = auto`, and refuses a pinned dt over the Courant limit
    # or the collision ceiling before any output is written
    plan = plan_step(kernel, vgrid, sgrid, config)
    dt = plan.dt

    mass0 = float(np.sum(integrate(init.state.f, vgrid, plan.work))) * sgrid.spacing
    eq = global_equilibrium(mass0, vgrid)

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

    def check_step(step_index: int, state: PhaseState) -> None:
        # node totals first: far cheaper than `moments`, same mass to rounding
        totals = np.add.reduce(state.f, axis=0) * vgrid.weight
        _check_mass(step_index, float(np.add.reduce(totals)) * sgrid.spacing, mass0)
        _check_sandwich(step_index, state.f, lower, upper)

    state = init.state.copy()
    records: list[DiagnosticsRecord] = []
    audit = dict(AUDIT_START)
    audited: list[int] = []  # indices of the records folded into `audit`
    try:
        for k in range(n_steps + 1):
            if k:
                state = step(state, plan, check=partial(check_step, k))
            # the last step always records, so an end state is known here
            recorded = k % config.record_every == 0 or k == n_steps
            if recorded:
                record, seen = _diagnose(state, kernel, eq, plan.work)
                # the run keeps each record's kappa as the next record's warm start
                state.kappa_cache = seen[2]
                _check_record(k, record, mass0)
                if k == 0:
                    # every later state has passed `check_step` inside `step`
                    _check_sandwich(k, state.f, lower, upper)
                records.append(record)
                if writer is not None:
                    writer.write(record)
                if (len(records) - 1) % SNAPSHOT_STRIDE == 0:
                    if k in (0, n_steps):
                        audit["samples_skipped"] += 1
                    else:
                        audit_proof_chain(audit, state, seen, record, kernel=kernel, eq=eq,
                                          work=plan.work)
                        audited.append(len(records) - 1)
                    if snap_dir is not None:
                        snapshot_dump(state, os.path.join(snap_dir, f"state_{k:08d}.snap"))
                del seen  # its projection is state-sized: not resident during the steps
            if delta is None and k == n_window:
                window = records
                if not recorded:  # the window closes off the record grid
                    window = records + [_diagnose(state, kernel, eq, plan.work)[0]]
                delta = _resolve_delta(window)
                if snap_dir is not None:
                    _write_manifest(snap_dir, replace(config, dt=dt, delta=delta))
    finally:
        if writer is not None:
            writer.close()
    resolved = replace(config, dt=dt, delta=delta)

    report: RateReport | None = None
    try:
        report = estimate_decay_rate(records, delta)
    except FitError:
        report = None
    if report is not None:
        # a fit has FIT_MIN_RECORDS records, so snapshot 10 is interior and audited
        report.lemma_constants = _close_audit(audit, audited, records, delta)
        if output_dir is not None:
            write_rate_report(
                report,
                os.path.join(output_dir, "rate_report.txt"),
                os.path.join(output_dir, "rate_report.kv"),
            )
    return RunResult(
        records=records,
        final_state=state,
        rate_report=report,
        config=resolved,
        kernel=kernel,
        equilibrium=eq,
        initial=init,
        output_dir=output_dir,
    )


def estimate_decay_rate(records, delta: float) -> RateReport:
    """Least-squares exponential rate of dist_total on the decay window.

    The window opens once the modified entropy, at this delta, has lost
    half its initial value (the early transient carries the wrong slope)
    and keeps every later record whose distance is numerically meaningful.
    """
    t = np.array([r.t for r in records])
    dist = np.array([r.dist_total for r in records])
    lyap = modified_entropy(records, delta)
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


# the audit's running constants before its first sample, in report order
AUDIT_START = {
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


def audit_proof_chain(out: dict, state: PhaseState, seen: tuple, record: DiagnosticsRecord,
                      *, kernel: CollisionKernel, eq: EquilibriumProfile, work=None) -> None:
    """Fold one interior snapshot state, its `observe` and its record into `out`.

    Recomputes both sides of every inequality that needs the full state; a
    record distance below AUDIT_DIST_FLOOR supports no ratio and is skipped.
    Q(f) and every temporary of the state's shape go to `work`, four
    C-contiguous arrays of that shape (None allocates them).
    """
    vg, sg = state.vgrid, state.sgrid
    fields, proj, kappa = seen
    dl, dh = record.dist_local, record.dist_hydro
    if work is None:
        work = np.empty((4,) + state.f.shape)
    q_coll = apply_collision(state.f, kernel, vg, out=work[0], work=work[1:4])
    rows = work[1:]  # scratch beside Q(f)

    # the operator bound; c1, and its skip count, come from the records
    if dl > AUDIT_DIST_FLOOR:
        q_norm = weighted_norm(q_coll, vg, sg, work=rows)
        out["c2_max_ratio"] = max(out["c2_max_ratio"], q_norm / dl)

    # pointwise profile-vs-moment comparisons, on the cells `keep` picks
    dkap = kappa - eq.kappa
    drho = fields.rho - eq.density
    keep = np.abs(dkap) > 1e-9 * eq.kappa
    if np.any(keep):
        kept = keep[:, None]  # the other cells' rows are neither divided nor read
        dev_sq = np.subtract(proj, eq.profile, out=rows[0])
        dev_sq /= vg.maxwellian
        np.multiply(dev_sq, dev_sq, out=dev_sq)
        ratio = np.divide((dkap * drho)[:, None], dev_sq, out=rows[1], where=kept)
        out["c3_min"] = min(out["c3_min"], float(np.min(ratio, where=kept, initial=np.inf)))
        np.divide((drho**2)[:, None], dev_sq, out=ratio, where=kept)
        out["c4_min"] = min(out["c4_min"], float(np.min(ratio, where=kept, initial=np.inf)))
        out["c5_max"] = max(out["c5_max"], float(np.max(ratio, where=kept, initial=-np.inf)))

    # corrector's time derivative: the potential's motion against the
    # current. d rho / dt = -d j1 / dx is the semi-discrete continuity law;
    # the current of a projected state vanishes exactly on the mirror
    # lattice, so this rate sees only the fluctuation part of f.
    _, dgrad_dt = solve_poisson(-centered_gradient(fields.j[:, 0], sg), 0.0, sg)
    s1 = float(np.sum(dgrad_dt * fields.j[:, 0])) * sg.spacing
    out["step1_excess_max"] = max(out["step1_excess_max"], s1 - vg.dim * dl**2)

    # hydrodynamic coercivity and the two cross terms
    if dh > AUDIT_DIST_FLOOR:
        v1_sq = vg.first_axis**2
        second = np.subtract(proj, eq.profile, out=rows[0])
        second *= v1_sq
        q_second = integrate(second, vg, rows)
        t1 = -float(np.sum(fields.grad_phi * centered_gradient(q_second, sg))) * sg.spacing
        out["c9_min"] = min(out["c9_min"], -t1 / dh**2)
        if dl > AUDIT_DIST_FLOOR:
            dx_g = centered_gradient(np.subtract(state.f, proj, out=rows[0]), sg, out=rows[1])
            dx_g *= v1_sq
            flux2 = integrate(dx_g, vg, rows[1:])
            t2 = -float(np.sum(fields.grad_phi * flux2)) * sg.spacing
            out["c10_max"] = max(out["c10_max"], t2 / (dl * dh))
            flux_q = integrate(np.multiply(q_coll, vg.first_axis, out=rows[0]), vg, rows)
            t3 = float(np.sum(fields.grad_phi * flux_q)) * sg.spacing
            out["c11_max"] = max(out["c11_max"], t3 / (dl * dh))
    out["samples_used"] += 1


def _close_audit(out: dict, audited, records, delta: float) -> dict:
    """Add the terms that need only records to `out`, which folded records `audited`.

    Entropy-based ratios need the entropy above its round-off noise floor;
    the modified entropy takes the run's delta.
    """
    if not audited:
        raise ValueError("every audit sample fell on the trajectory ends")
    t = np.array([r.t for r in records])
    entropy = np.array([r.H for r in records])
    lyap = modified_entropy(records, delta)
    dist_total = np.array([r.dist_total for r in records])
    pairing = np.array([r.pairing for r in records])

    # entropy production vs local distance
    ent_floor = ENTROPY_NOISE_FACTOR * max(entropy[0], 0.0)
    for k in audited:
        dl = records[k].dist_local
        if dl > AUDIT_DIST_FLOOR and min(entropy[k - 1], entropy[k + 1]) > ent_floor:
            dhdt = (entropy[k + 1] - entropy[k - 1]) / (t[k + 1] - t[k - 1])
            out["c1_min"] = min(out["c1_min"], -dhdt / dl**2)
        else:
            out["samples_skipped"] += 1

    # the audited records are interior, so the window is too
    window = range(min(audited), max(audited) + 1)
    lyap_floor = ENTROPY_NOISE_FACTOR * max(lyap[0], 0.0)
    for i in window:
        if lyap[i] > lyap_floor:
            rate = -(lyap[i + 1] - lyap[i - 1]) / (t[i + 1] - t[i - 1]) / lyap[i]
            out["gronwall_ratio_min"] = min(out["gronwall_ratio_min"], rate)
        if dist_total[i] > AUDIT_DIST_FLOOR:
            if lyap[i] > lyap_floor:
                ratio = lyap[i] / dist_total[i] ** 2
                out["c6_min"] = min(out["c6_min"], ratio)
                out["c7_max"] = max(out["c7_max"], ratio)
            out["c8_max"] = max(out["c8_max"], abs(pairing[i]) / dist_total[i] ** 2)
    return out


def audit_snapshots(records, states, *, kernel: CollisionKernel,
                    eq: EquilibriumProfile, delta: float) -> dict:
    """A finished run's audit constants: each snapshot observed, then folded as in the run."""
    t = np.array([r.t for r in records])
    out = dict(AUDIT_START)
    audited = []
    work = None  # one workspace for every snapshot, shaped by the first
    for state in states:
        matches = np.nonzero(np.abs(t - state.time) <= 1e-9 * max(1.0, abs(state.time)))[0]
        if matches.size == 0:
            raise ValueError(
                f"snapshot at t = {state.time:.6g} has no matching record"
            )
        k = int(matches[0])
        if k == 0 or k == len(records) - 1:
            out["samples_skipped"] += 1
            continue
        audited.append(k)
        if work is None:
            work = np.empty((4,) + state.f.shape)
        seen = observe(state.f, eq, state.kappa_cache, state.vgrid, state.sgrid, work)
        audit_proof_chain(out, state, seen, records[k], kernel=kernel, eq=eq, work=work)
    return _close_audit(out, audited, records, delta)


def kv_lines(items, float_format: str) -> list[str]:
    """`key = value` lines of (key, value) pairs: floats in `float_format`, the rest as str."""
    return [f"{key} = {value:{float_format}}" if isinstance(value, float) else f"{key} = {value}"
            for key, value in items]


def write_rate_report(report: RateReport, txt_path: str, kv_path: str) -> None:
    """The report as text and as `key = value` lines.

    The key = value file holds the RateReport fields in declaration
    order, then the lemma constants in audit order.
    """
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
        lines += kv_lines(report.lemma_constants.items(), ".6g")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    row = asdict(report)
    row.update(row.pop("lemma_constants"))
    with open(kv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(kv_lines(row.items(), ".17g")) + "\n")
