"""Command-line front end.

Subcommands:
  run    evolve a configured system and write diagnostics artifacts
  fit    re-fit the decay rate from a finished run's diagnostics CSV
  audit  recompute the inequality constants from a finished run directory
  check  run two small built-in configurations and print PASS/FAIL lines

Thread pinning must happen before the numerical stack loads, so this
module imports the solver lazily inside each command handler.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads(count: int | None) -> None:
    if count is None:
        return
    for name in _THREAD_VARS:
        os.environ[name] = str(count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermibolt",
        description="Discrete-velocity solver for the Pauli-blocked "
        "Boltzmann system on the torus, with decay diagnostics.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="pin every threading backend to this many threads "
        "(results are identical either way; this only affects speed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a configured system")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument(
        "--output-dir",
        default=None,
        help="directory for diagnostics.csv, snapshots/, rate_report.*",
    )
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    p_run.set_defaults(handler=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a decay rate from run artifacts")
    p_fit.add_argument("csv", help="path to diagnostics.csv")
    p_fit.add_argument(
        "snapshots", help="snapshot directory (holds manifest.cfg)"
    )
    p_fit.set_defaults(handler=_cmd_fit)

    p_audit = sub.add_parser(
        "audit", help="recompute inequality constants from run artifacts"
    )
    p_audit.add_argument("csv", help="path to diagnostics.csv")
    p_audit.add_argument(
        "snapshots", help="snapshot directory (holds *.snap and manifest.cfg)"
    )
    p_audit.set_defaults(handler=_cmd_audit)

    p_check = sub.add_parser("check", help="run built-in sanity configurations")
    p_check.set_defaults(handler=_cmd_check)
    return parser


def _cmd_run(args) -> int:
    from .config import ConfigError, load_config
    from .experiment import InvariantViolation, modified_entropy, run_experiment

    gc.freeze()  # the import-time objects live to exit; spare them every collection pass
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed  # checked with the rest by run_experiment
        result = run_experiment(config, output_dir=args.output_dir)
    except ConfigError as exc:
        # a bad config file, lattice or kernel file, or a pinned dt over a
        # step-size limit
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        # the manifest, the rows and the snapshots made so far stay on disk
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    last = result.records[-1]
    last_e = modified_entropy([last], result.config.delta)[0]
    print(f"steps completed: t = {last.t:.6g} with {len(result.records)} records")
    print(f"mass = {last.mass:.12g} (initial {result.records[0].mass:.12g})")
    print(f"dist_total = {last.dist_total:.6g}, H = {last.H:.6g}, E = {last_e:.6g}")
    print(f"delta = {result.config.delta:.6g}, dt = {result.config.dt:.6g}")
    if result.rate_report is not None:
        rep = result.rate_report
        print(
            f"lambda_obs = {rep.lambda_obs:.6g} "
            f"(r_squared = {rep.r_squared:.6g}, "
            f"window [{rep.window_start:.6g}, {rep.window_end:.6g}])"
        )
    else:
        print("rate fit skipped: decay window not reached")
    if args.output_dir is not None:
        print(f"artifacts written under {args.output_dir}")
    return 0


def _load_run(csv_path: str, snap_dir: str, command: str):
    """(config, lattice, records) of a run, or None after one `<command> failed:` line.

    The config is the manifest in `snap_dir`; its lattice is built, under
    the memory budgets, before the CSV is read. A `delta = auto` manifest
    gets the run's delta from the run's resolver and the CSV's records.
    """
    from .config import ConfigError, load_config
    from .experiment import _resolve_delta, build_lattice
    from .storage import load_csv

    manifest = os.path.join(snap_dir, "manifest.cfg")
    for path in (csv_path, manifest):
        if not os.path.exists(path):
            print(f"{command} failed: missing {path}", file=sys.stderr)
            return None
    try:
        config = load_config(manifest)
        lattice = build_lattice(config)
    except ConfigError as exc:
        print(f"{command} failed: {manifest}: {exc}", file=sys.stderr)
        return None
    try:
        records, n_warnings = load_csv(csv_path)
        if not records:
            raise ValueError(f"{csv_path} holds no records")
        config.delta = _resolve_delta(config, records)
    except (OSError, ValueError) as exc:
        # an old CSV, with the E column, fails on its header; records that
        # stop inside the delta window of an auto manifest, with a ConfigError
        print(f"{command} failed: {exc}", file=sys.stderr)
        return None
    if n_warnings:
        print(f"warning: {n_warnings} truncated trailing line ignored", file=sys.stderr)
    return config, lattice, records


def _cmd_fit(args) -> int:
    from .experiment import FitError, estimate_decay_rate

    run = _load_run(args.csv, args.snapshots, "fit")
    if run is None:
        return 1
    config, _, records = run
    try:
        report = estimate_decay_rate(records, config.delta)
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    print(f"lambda_obs = {report.lambda_obs:.12g}")
    print(f"c_obs = {report.c_obs:.12g}")
    print(f"r_squared = {report.r_squared:.12g}")
    print(f"window = [{report.window_start:.6g}, {report.window_end:.6g}]")
    print(f"n_fit_records = {report.n_fit_records}")
    return 0


def _cmd_audit(args) -> int:
    from .equilibrium import global_equilibrium
    from .experiment import audit_snapshots, kv_lines
    from .storage import SnapshotError, snapshot_load

    snap_dir = args.snapshots
    run = _load_run(args.csv, snap_dir, "audit")
    if run is None:
        return 1
    config, (vgrid, sgrid, kernel), records = run
    names = sorted(n for n in os.listdir(snap_dir) if n.endswith(".snap"))
    if not names:
        print("audit failed: no snapshots found", file=sys.stderr)
        return 1
    states = (snapshot_load(os.path.join(snap_dir, name), vgrid=vgrid, sgrid=sgrid)
              for name in names)
    eq = global_equilibrium(records[0].mass, vgrid)
    try:
        constants = audit_snapshots(records, states, kernel=kernel, eq=eq,
                                    delta=config.delta)
    except (ValueError, SnapshotError) as exc:
        # every snapshot on a trajectory end, or one unreadable or off-lattice
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    for line in kv_lines(constants.items(), ".12g"):
        print(line)
    return 0


def _check_case(name: str, config) -> list[tuple[str, bool, str]]:
    import numpy as np

    from .experiment import InvariantViolation, modified_entropy, run_experiment

    results: list[tuple[str, bool, str]] = []
    try:
        outcome = run_experiment(config)
    except InvariantViolation as exc:
        results.append((f"{name}: run completes", False, str(exc)))
        return results
    results.append((f"{name}: run completes", True, f"{len(outcome.records)} records"))
    records = outcome.records
    mass0 = records[0].mass
    drift = max(abs(r.mass - mass0) for r in records) / abs(mass0)
    results.append(
        (f"{name}: mass conserved", drift <= 1e-12, f"relative drift {drift:.3e}")
    )
    d_min = min(r.D for r in records)
    results.append((f"{name}: entropy production sign", d_min >= 0.0, f"min D {d_min:.3e}"))
    h_vals = np.array([r.H for r in records])
    rise = float(np.max(np.diff(h_vals)))
    tol = 1e-10 * abs(h_vals[0])
    results.append(
        (f"{name}: entropy monotone", rise <= tol, f"max rise {rise:.3e}")
    )
    dist = np.array([r.dist_total for r in records])
    # E / dist_total^2 > 0 wherever the distance is positive
    ok = bool(np.all(modified_entropy(records, outcome.config.delta)[dist > 0.0] > 0.0))
    results.append((f"{name}: functional equivalent to distance", ok, ""))
    decayed = records[-1].dist_total < records[0].dist_total
    results.append(
        (
            f"{name}: distance contracts",
            decayed,
            f"{records[0].dist_total:.3e} to {records[-1].dist_total:.3e}",
        )
    )
    return results


def _cmd_check(args) -> int:
    from .config import ExperimentConfig

    cases = [
        (
            "coarse",
            ExperimentConfig(
                nodes_per_axis=16,
                spatial_cells=16,
                t_final=2.0,
                record_every=10,
            ),
        ),
        (
            "default-short",
            ExperimentConfig(t_final=2.5),
        ),
    ]
    failures = 0
    for name, config in cases:
        for label, passed, detail in _check_case(name, config):
            verdict = "PASS" if passed else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"{verdict} {label}{suffix}")
            if not passed:
                failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_threads(args.threads)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
