"""Experiment driver: trajectories, decay-rate fits, inequality audits.

A run evolves the split scheme from the cosine-profile initial data,
writes a diagnostics record every few steps as soon as it is made,
writes sparse full snapshots, and aborts loudly if conservation,
admissibility, the sign of the entropy production or the entropy's decay
ever fails. Each record sees its moments, field and local projection
through one `observe`, warm-started from the previous record's kappa;
each snapshot record is folded into the audit of the decay chain from
that same observation, so no state is held for it. Post-processing fits the
exponential decay rate of the equilibrium distance on the late-time
window and finishes the audit's record-only terms, reporting the
empirical extremal constants. Both form the modified entropy
E = H + delta * pairing from the records (`modified_entropy`), which
do not store it. Nothing in the time loop reads delta: `_resolve_delta`
chooses `delta = auto` after the run, as `fermibolt fit` and `audit` do.

Records are made in batches. Each recorded state is copied into its slot
of a stack of K as it is made, and one `_diagnose` call on the stack, the
record pass, computes the K records together: every functional takes the
leading batch axis and reduces per record, so a record is the same bit
for bit at any K, while numpy's per-call cost is paid once per batch,
not once per record. Only the projections' Newton solves stay one per
record, each warm-started from the record before it. K is
`record_batch_size` of the state's byte size. Record 0 is a batch of its
own and K divides SNAPSHOT_STRIDE, so every batch ends on a snapshot
record; the last step flushes what is pending. A flush checks, writes,
folds and dumps its records in order and flushes the CSV once, and a step
that raises flushes the pending records first, so a run leaves the rows,
snapshots and error that one record at a time would.

At K = 1 the batch is the recorded state itself and the record pass and
the audit fold build every state-sized temporary in the step plan's four
workspace rows, idle between steps, so the RESIDENT_STATES arrays that
`_check_budgets` counts bound the run's peak. A larger K needs its own
stack and workspace, which `_check_budgets` adds as
RECORD_BATCH_ARRAYS * RECORD_BATCH_BYTES.
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
from .evolution import PhaseState, StepPlan, initial_state, plan_step, step
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
from .storage import SNAPSHOT_PARTIAL, CsvWriter, snapshot_dump
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
    "RecordPlan",
    "plan_records",
    "write_rate_report",
    "record_batch_size",
    "SNAPSHOT_STRIDE",
    "STATE_BUDGET_BYTES",
    "RECORD_BATCH_BYTES",
]

SNAPSHOT_STRIDE = 10          # full state every this many records
# Largest total of the (cells, nodes) float64 arrays alive at once in a
# run, at its peak: the current state and a step's two fresh sub-step
# results, the plan's four workspace rows and its mu, muscl and Maxwellian
# tiles, and the two barrier tiles of the per-step check. The initial
# state is the first current state, not a copy. Between steps the audit
# fold, and the record pass of a run with K = 1, work in the plan's rows
# and hold at most two fresh arrays, the projection and one more, in the
# slots of the step's results.
STATE_BUDGET_BYTES = 512 * 2**20
RESIDENT_STATES = 12
# Largest stack of recorded states that one record pass diagnoses at once.
RECORD_BATCH_BYTES = 160 * 2**10
# Arrays of at most RECORD_BATCH_BYTES that a run with K > 1 holds besides
# its resident states: the stack, the record pass's four workspace arrays,
# its projection and one more fresh array of the batch's shape, and the
# eq.profile and 1 - eq.profile tiles, two states of a batch of at least two.
RECORD_BATCH_ARRAYS = 8
DELTA_WINDOW = 5.0            # time span whose records choose delta = auto
MASS_DRIFT_TOL = 1e-12        # relative, abort threshold
DISSIPATION_FLOOR = -1e-12    # abort if D drops below
FIT_MIN_RECORDS = 20
DIST_EPS = 10.0 * np.finfo(float).eps
AUDIT_DIST_FLOOR = 1e-9       # audit ratios and the entropy check skip distances below this


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
    output_dir: str | None = None


def observe(f: np.ndarray, eq: EquilibriumProfile, warm: np.ndarray | None,
            vgrid: VelocityGrid, sgrid: SpatialGrid, work=None):
    """Moments, Poisson field and local Fermi-Dirac projection of a batch of states.

    f is (K, cells, nodes), K states in record order; one state is a batch
    of one. Returns (fields, proj, kappa) with that leading axis, each
    quantity computed once: the projections invert the densities that
    `moments` found, in record order, each Newton solve starting from the
    kappa field of the record before it and the first from `warm` (None
    for a cold start). Pure: the caller decides where the new kappa is
    kept. `work` is scratch of f's shape for the moments and the Newton
    solves (None allocates it); proj is the one new array of that shape.
    """
    rho, j = moments(f, vgrid, work)
    _, grad_phi = solve_poisson(rho, eq.density, sgrid)
    proj = np.empty(f.shape)
    kappa = np.empty(rho.shape)
    denom, terms = np.empty((2,) + f.shape[1:]) if work is None else (work[0][0], work[1][0])
    for i in range(len(f)):
        # the Newton solve builds record i's projection in its slot of proj
        _, kappa[i] = project(f[i], vgrid, kappa_cache=warm, rho=rho[i],
                              work=(denom, terms, proj[i]))
        warm = kappa[i]
    return FieldSet(rho, j, grad_phi), proj, kappa


def _record_of(seen: tuple, i: int) -> tuple:
    """Record i's (fields, proj, kappa) out of a batch's `observe`, as views."""
    fields, proj, kappa = seen
    return FieldSet(fields.rho[i], fields.j[i], fields.grad_phi[i]), proj[i], kappa[i]


def record_batch_size(state_bytes: int) -> int:
    """Records per batch, K, for states of `state_bytes` each.

    K is the largest divisor of SNAPSHOT_STRIDE whose K states take at
    most RECORD_BATCH_BYTES, or 1 when no two do. It sets speed only:
    every record is the same bit for bit at any K.
    """
    return max(k for k in range(1, SNAPSHOT_STRIDE + 1)
               if SNAPSHOT_STRIDE % k == 0 and (k == 1 or k * state_bytes <= RECORD_BATCH_BYTES))


@dataclass(frozen=True, eq=False)
class RecordPlan:
    """The constants and buffers of one run's record pass, built once by `plan_records`.

    A batch of `size` records is one `_diagnose` call on its stacked
    states. At size 1 the batch is the recorded state itself and the work
    is the step plan's rows, so the pass holds nothing of its own; at a
    larger size the states are copied into `stack` as they are made.
    """

    size: int                        # K, records per batch
    vgrid: VelocityGrid
    sgrid: SpatialGrid
    kernel: CollisionKernel
    eq: EquilibriumProfile
    # eq.profile and 1 - eq.profile: (cells, nodes) tiles when size > 1,
    # rows at size 1, where two tiles would be two more resident states
    profile: np.ndarray
    hole: np.ndarray
    stack: np.ndarray | None         # (size, cells, nodes) record slots; None at size 1
    work: tuple[np.ndarray, ...] | None  # four (size, cells, nodes) scratch arrays


def plan_records(kernel: CollisionKernel, eq: EquilibriumProfile, plan: StepPlan,
                 vgrid: VelocityGrid, sgrid: SpatialGrid) -> RecordPlan:
    """The record pass of a run that steps with `plan`; K from the state's byte size."""
    shape = plan.work[0].shape
    size = record_batch_size(plan.work[0].nbytes)
    rows = eq.profile, 1.0 - eq.profile
    if size == 1:
        return RecordPlan(1, vgrid, sgrid, kernel, eq, *rows, None,
                          tuple(row[None] for row in plan.work))
    tiles = (np.tile(row, (shape[0], 1)) for row in rows)
    return RecordPlan(size, vgrid, sgrid, kernel, eq, *tiles, np.empty((size,) + shape),
                      tuple(np.empty((4, size) + shape)))


def _diagnose(f: np.ndarray, times, warm: np.ndarray | None,
              rplan: RecordPlan) -> tuple[list[DiagnosticsRecord], tuple]:
    """The records of the stacked states f, (K, cells, nodes) at `times`, and their `observe`.

    K may be below rplan.size (a run's last batch). The projections start
    from the kappa field `warm`. Every functional builds its temporaries
    in the first K slots of rplan.work (None lets each allocate its own)
    and reduces per record, so each record is the one a single state gives.
    """
    vg, sg = rplan.vgrid, rplan.sgrid
    work = None if rplan.work is None else tuple(w[:len(f)] for w in rplan.work)
    fields, proj, kappa = seen = observe(f, rplan.eq, warm, vg, sg, work)
    columns = np.column_stack((
        np.add.reduce(fields.rho, axis=-1) * sg.spacing,
        relative_entropy(f, rplan.profile, rplan.hole, vg, sg, work),
        dissipation(f, rplan.kernel, vg, sg, work),
        weighted_norm(f, vg, sg, rplan.profile, work),
        weighted_norm(f, vg, sg, proj, work),
        weighted_norm(proj, vg, sg, rplan.profile, work),
        field_current_pairing(fields, sg),
        np.minimum.reduce(kappa, axis=-1),
        np.maximum.reduce(kappa, axis=-1),
    ))
    # tolist gives each float64 as the Python float of the same value
    return [DiagnosticsRecord(t, *row) for t, row in zip(times, columns.tolist())], seen


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


def _check_record(step_index: int, record: DiagnosticsRecord, mass0: float,
                  h_prev: float) -> None:
    """Mass, D >= DISSIPATION_FLOOR, and H at most the previous record's `h_prev`.

    An `upwind1` sub-step is a convex combination with weights that do not
    depend on x, so it cannot raise H (Jensen); the collision stages and
    `muscl2` are only measured to lower it. H is good to about eps / |d|
    relative: 2e-7 at AUDIT_DIST_FLOOR, below which the H check is skipped,
    against the 0.2% to 0.9% that H falls by per step of the default run.
    """
    _check_mass(step_index, record.mass, mass0)
    if not record.D >= DISSIPATION_FLOOR:  # NaN fails
        raise InvariantViolation(step_index, "dissipation", f"D = {record.D:.3e}")
    if not (record.H <= h_prev or record.dist_total <= AUDIT_DIST_FLOOR):  # NaN fails
        raise InvariantViolation(step_index, "entropy",
                                 f"H = {record.H:.17g} above {h_prev:.17g}")


def choose_delta(
    t: np.ndarray,
    entropy: np.ndarray,
    pairing: np.ndarray,
    dist_total: np.ndarray,
) -> float:
    """Pick delta, the corrector's weight, from samples of the run's first time units.

    Among the DELTA_CANDIDATES values for which the modified entropy stays
    equivalent to the squared distance (positive ratio throughout), take
    the one with the best worst-case decay ratio; ties go to the larger
    weight.
    """
    usable = dist_total > DIST_EPS
    if np.count_nonzero(usable) < 3:
        raise ConfigError("delta window too short to scan delta")
    best = None
    best_score = -np.inf
    for cand in sorted(DELTA_CANDIDATES, reverse=True):
        lyap = entropy + cand * pairing
        ratios = lyap[usable] / dist_total[usable] ** 2
        if np.min(ratios) <= 0.0:
            continue
        rates = []
        for i in range(1, len(t) - 1):
            if usable[i] and t[i + 1] > t[i - 1]:
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


def _resolve_delta(config: ExperimentConfig, records) -> float:
    """The run's delta: config.delta if pinned, else chosen from its window's records.

    For `delta = auto` the window is the steps 0..n_window that reach
    min(t_final, DELTA_WINDOW) at the config's numeric dt, and its records,
    from the run or from its CSV alike, are those with t < (n_window + 1/2) dt.
    Records that stop before the window's last one are a ConfigError.
    """
    if config.delta is not None:
        return config.delta
    dt = config.dt
    if dt is None:  # a hand-written manifest; every run writes its dt
        raise ConfigError("delta = auto needs a numeric dt to find its window")
    n_steps = max(1, math.ceil(config.t_final / dt - 1e-12))
    n_window = max(1, math.ceil(min(config.t_final, DELTA_WINDOW) / dt - 1e-12))
    # the run's last step records; before it, the record grid does
    last = n_window if n_window == n_steps else n_window - n_window % config.record_every
    if not records or records[-1].t < (last - 0.5) * dt:
        raise ConfigError(f"the records stop before step {last}, the delta window's "
                          f"last record, so delta = auto cannot be chosen")
    window = [r for r in records if r.t < (n_window + 0.5) * dt]
    t, entropy, pairing, dist_total = (np.array([getattr(r, name) for r in window])
                                       for name in ("t", "H", "pairing", "dist_total"))
    return choose_delta(t, entropy, pairing, dist_total)


def _check_budgets(config: ExperimentConfig) -> None:
    """ConfigError when the run's resident states or its kernel table exceed a budget.

    Sized from the config alone, before any lattice array exists; a run
    whose records are batched (K > 1) adds its record batch. The
    table is n x n: n is nodes_per_axis for the `gaussian_bump` factor and
    the velocity node count, which its header must declare, for a
    `custom_table`. A velocity dimension the grid refuses is left to it.
    """
    if config.d_v not in (1, 2):
        return
    n_nodes = config.nodes_per_axis**config.d_v
    state_bytes = 8 * config.spatial_cells * n_nodes
    total = RESIDENT_STATES * state_bytes
    batch = ""
    if record_batch_size(state_bytes) > 1:
        total += RECORD_BATCH_ARRAYS * RECORD_BATCH_BYTES
        batch = " and its record batch"
    if total > STATE_BUDGET_BYTES:
        raise ConfigError(
            f"{config.spatial_cells} cells x {n_nodes} velocity nodes: the run's "
            f"{RESIDENT_STATES} resident state arrays{batch} take {total} bytes "
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

    When `output_dir` is given, the snapshots and rate report of an
    earlier run there are removed first. Then the config with its dt
    resolved goes to snapshots/manifest.cfg (`delta = auto` stays auto
    there), the rows of each batch of records go to diagnostics.csv, flushed
    once, as soon as the batch is made, sparse snapshots go to snapshots/
    (each written under a temporary name and renamed into place), and the
    rate report is written in both text and key = value form.

    The initial state is checked as every step's result is, before the
    first record, and stepped from without a copy. Each interior snapshot
    record is folded into the audit when its batch is flushed, and its
    index is kept for `_close_audit`. The records, the audit folds and the
    initial mass work in the workspaces of the step and record plans, so
    the run's state-sized arrays never exceed what `_check_budgets`
    admitted. delta is resolved once, after the last step, by
    `_resolve_delta`, which `fermibolt fit` and `audit` also call.
    """
    config.validate()
    vgrid, sgrid, kernel = build_lattice(config)
    init = initial_state(sgrid, vgrid, config.kappa_bar, config.amplitude,
                         perturbation=config.perturbation, seed=config.seed)
    state = init.state  # stepped from as it is, not copied
    # the entropy takes logs of f and 1 - f: a barrier that rounds to 0 or 1 cannot run
    low, high = float(np.min(init.f_lower)), float(np.max(init.f_upper))
    if not (low > 0.0 and high < 1.0):
        raise ConfigError(f"kappa_bar = {config.kappa_bar!r} with amplitude = "
                          f"{config.amplitude!r}: the barrier profiles span "
                          f"[{low!r}, {high!r}], not inside (0, 1)")
    # the barriers as tiles of the state's shape, for the per-step check
    lower, upper = (np.tile(row, (sgrid.cells, 1)) for row in (init.f_lower, init.f_upper))
    del init  # nothing may hold the initial state once step 1 has replaced it
    # resolves `dt = auto`, and refuses a pinned dt over the Courant limit
    # or the collision ceiling before any output is written
    plan = plan_step(kernel, vgrid, sgrid, config)
    resolved = replace(config, dt=plan.dt)

    mass0 = float(np.sum(integrate(state.f, vgrid, plan.work))) * sgrid.spacing
    eq = global_equilibrium(mass0, vgrid)
    n_steps = max(1, math.ceil(config.t_final / plan.dt - 1e-12))

    def check_step(step_index: int, state: PhaseState) -> None:
        # node totals first: far cheaper than `moments`, same mass to rounding
        totals = np.add.reduce(state.f, axis=0) * vgrid.weight
        _check_mass(step_index, float(np.add.reduce(totals)) * sgrid.spacing, mass0)
        _check_sandwich(step_index, state.f, lower, upper)

    check_step(0, state)  # every later state is checked inside `step`

    writer = None
    snap_dir = None
    if output_dir is not None:
        snap_dir = os.path.join(output_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        reports = [os.path.join(output_dir, f"rate_report.{ext}") for ext in ("txt", "kv")]
        # a reused directory keeps no earlier run's snapshots or rate report
        # and no snapshot a killed run left half written under its temporary name
        stale = [os.path.join(snap_dir, name) for name in os.listdir(snap_dir)
                 if name.startswith("state_")
                 and name.endswith((".snap", ".snap" + SNAPSHOT_PARTIAL))]
        for path in stale + reports:
            if os.path.isfile(path):
                os.remove(path)
        with open(os.path.join(snap_dir, "manifest.cfg"), "w", encoding="utf-8") as fh:
            fh.write(format_config(resolved))
        writer = CsvWriter(os.path.join(output_dir, "diagnostics.csv"))

    rplan = plan_records(kernel, eq, plan, vgrid, sgrid)
    warm = state.kappa_cache  # the warm start of the next record's projection
    records: list[DiagnosticsRecord] = []
    pending: list[tuple[int, float]] = []  # (step, time) of each record waiting in the batch
    audit = dict(AUDIT_START)
    audited: list[int] = []  # indices of the records folded into `audit`

    def flush(batch: np.ndarray) -> None:
        """Diagnose the pending records, stacked in `batch`, then check and write each in order."""
        nonlocal warm
        made, seen = _diagnose(batch, [t for _, t in pending], warm, rplan)
        warm = seen[2][-1]
        for i, ((k, t), record) in enumerate(zip(pending, made)):
            _check_record(k, record, mass0, records[-1].H if records else math.inf)
            records.append(record)
            if writer is not None:
                writer.write(record)
            if (len(records) - 1) % SNAPSHOT_STRIDE == 0:  # a batch's last record
                snap = PhaseState(batch[i], t, vgrid, sgrid, seen[2][i])
                if k in (0, n_steps):
                    audit["samples_skipped"] += 1
                else:
                    audit_proof_chain(audit, snap, _record_of(seen, i), record, kernel=kernel,
                                      eq=eq, work=plan.work)
                    audited.append(len(records) - 1)
                if snap_dir is not None:
                    snapshot_dump(snap, os.path.join(snap_dir, f"state_{k:08d}.snap"))
        pending.clear()
        if writer is not None:
            writer.flush()

    try:
        for k in range(n_steps + 1):
            if k:
                try:
                    state = step(state, plan, check=partial(check_step, k))
                except BaseException:
                    # the pending records' steps come first, and so does a violation
                    # among them; only a run with K > 1 has records pending here
                    if pending:
                        flush(rplan.stack[:len(pending)])
                    raise
            # the last step always records, so an end state is known here
            if k % config.record_every and k != n_steps:
                continue
            if rplan.stack is not None:
                rplan.stack[len(pending)] = state.f  # the record's slot in the batch
            pending.append((k, state.time))
            # record 0 is a batch of its own, so every batch ends on a snapshot record
            if (len(records) + len(pending) - 1) % rplan.size == 0 or k == n_steps:
                # a batch of one is the state itself
                flush(state.f[None] if rplan.stack is None else rplan.stack[:len(pending)])
    finally:
        if writer is not None:
            writer.close()
    state.kappa_cache = warm
    delta = _resolve_delta(resolved, records)
    resolved = replace(resolved, delta=delta)

    try:
        report = estimate_decay_rate(records, delta)
    except FitError:
        report = None
    else:
        # a fit has FIT_MIN_RECORDS records, so snapshot 10 is interior and audited
        report.lemma_constants = _close_audit(audit, audited, records, delta)
        if output_dir is not None:
            write_rate_report(report, *reports)
    return RunResult(records=records, final_state=state, rate_report=report, config=resolved,
                     kernel=kernel, equilibrium=eq, output_dir=output_dir)


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
    _, dgrad_dt = solve_poisson(-centered_gradient(fields.j, sg), 0.0, sg)
    s1 = float(np.sum(dgrad_dt * fields.j)) * sg.spacing
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
            # transposed views put the cells on the last axis, which the gradient runs along
            dx_g = centered_gradient(np.subtract(state.f, proj, out=rows[0]).T, sg,
                                     out=rows[1].T).T
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

    Every ratio skips a record distance at most AUDIT_DIST_FLOOR, the one
    floor of the audit; the modified entropy takes the run's delta.
    """
    if not audited:
        raise ValueError("every audit sample fell on the trajectory ends")
    t = np.array([r.t for r in records])
    entropy = np.array([r.H for r in records])
    lyap = modified_entropy(records, delta)
    dist_total = np.array([r.dist_total for r in records])
    pairing = np.array([r.pairing for r in records])

    # entropy production vs local distance
    for k in audited:
        dl = records[k].dist_local
        if dl > AUDIT_DIST_FLOOR:
            dhdt = (entropy[k + 1] - entropy[k - 1]) / (t[k + 1] - t[k - 1])
            out["c1_min"] = min(out["c1_min"], -dhdt / dl**2)
        else:
            out["samples_skipped"] += 1

    # the audited records are interior, so the window is too
    window = range(min(audited), max(audited) + 1)
    for i in window:
        if dist_total[i] > AUDIT_DIST_FLOOR:
            rate = -(lyap[i + 1] - lyap[i - 1]) / (t[i + 1] - t[i - 1]) / lyap[i]
            out["gronwall_ratio_min"] = min(out["gronwall_ratio_min"], rate)
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
        # the snapshot observed as a batch of one, in the fold's workspace
        seen = observe(state.f[None], eq, state.kappa_cache, state.vgrid, state.sgrid,
                       work[:, None])
        audit_proof_chain(out, state, _record_of(seen, 0), records[k], kernel=kernel, eq=eq,
                          work=work)
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
