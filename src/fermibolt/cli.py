"""Command-line front end.

Subcommands:
  run    evolve a configured system and write diagnostics artifacts
  fit    re-fit the decay rate from an existing diagnostics CSV
  audit  recompute the inequality constants from a finished run directory
  check  run two small built-in configurations and print PASS/FAIL lines

Thread pinning must happen before the numerical stack loads, so this
module imports the solver lazily inside each command handler.
"""
from __future__ import annotations

import argparse
import gc
import math
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

    p_fit = sub.add_parser("fit", help="fit a decay rate from a diagnostics CSV")
    p_fit.add_argument("csv", help="path to diagnostics.csv")
    p_fit.add_argument(
        "--delta",
        type=float,
        default=math.nan,
        help="delta used when the CSV was produced (report label only)",
    )

    p_audit = sub.add_parser(
        "audit", help="recompute inequality constants from run artifacts"
    )
    p_audit.add_argument("csv", help="path to diagnostics.csv")
    p_audit.add_argument(
        "snapshots", help="snapshot directory (holds *.snap and manifest.cfg)"
    )

    sub.add_parser("check", help="run built-in sanity configurations")
    return parser


def _cmd_run(args) -> int:
    from .config import ConfigError, load_config
    from .experiment import run_experiment

    gc.freeze()  # the import-time objects live to exit; spare them every collection pass
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        result = run_experiment(config, output_dir=args.output_dir)
    except ConfigError as exc:
        # a bad config file, lattice or kernel file, or a pinned dt over a
        # step-size limit
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    last = result.records[-1]
    print(f"steps completed: t = {last.t:.6g} with {len(result.records)} records")
    print(f"mass = {last.mass:.12g} (initial {result.records[0].mass:.12g})")
    print(f"dist_total = {last.dist_total:.6g}, H = {last.H:.6g}, E = {last.E:.6g}")
    print(f"delta = {result.config.delta:.6g}, dt = {result.dt:.6g}")
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


def _read_records(path: str, command: str):
    """The records of a diagnostics CSV, or None after one `<command> failed:` line."""
    from .storage import load_csv

    try:
        records, n_warnings = load_csv(path)
    except (OSError, ValueError) as exc:
        print(f"{command} failed: {exc}", file=sys.stderr)
        return None
    if n_warnings:
        print(f"warning: {n_warnings} truncated trailing line ignored", file=sys.stderr)
    if not records:
        print(f"{command} failed: {path} holds no records", file=sys.stderr)
        return None
    return records


def _cmd_fit(args) -> int:
    from .experiment import FitError, estimate_decay_rate

    records = _read_records(args.csv, "fit")
    if records is None:
        return 1
    try:
        report = estimate_decay_rate(records, args.delta)
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
    from .config import ConfigError, load_config
    from .equilibrium import global_equilibrium
    from .experiment import audit_snapshots, build_lattice
    from .storage import SnapshotError, snapshot_load

    csv_path = args.csv
    snap_dir = args.snapshots
    manifest = os.path.join(snap_dir, "manifest.cfg")
    for path in (csv_path, manifest):
        if not os.path.exists(path):
            print(f"audit failed: missing {path}", file=sys.stderr)
            return 1
    try:
        config = load_config(manifest)
        vgrid, sgrid, kernel = build_lattice(config)
    except ConfigError as exc:
        print(f"audit failed: {manifest}: {exc}", file=sys.stderr)
        return 1
    if config.delta is None:
        print("audit failed: manifest does not pin delta", file=sys.stderr)
        return 1
    records = _read_records(csv_path, "audit")
    if records is None:
        return 1
    names = sorted(n for n in os.listdir(snap_dir) if n.endswith(".snap"))
    if not names:
        print("audit failed: no snapshots found", file=sys.stderr)
        return 1
    states = (snapshot_load(os.path.join(snap_dir, name), vgrid=vgrid, sgrid=sgrid)
              for name in names)
    eq = global_equilibrium(records[0].mass, sgrid.volume, vgrid)
    try:
        constants = audit_snapshots(records, states, kernel=kernel, eq=eq)
    except (ValueError, SnapshotError) as exc:
        # every snapshot on a trajectory end, or one unreadable or off-lattice
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    for key, value in constants.items():
        if isinstance(value, float):
            print(f"{key} = {value:.12g}")
        else:
            print(f"{key} = {value}")
    return 0


def _check_case(name: str, config) -> list[tuple[str, bool, str]]:
    import numpy as np

    from .experiment import InvariantViolation, run_experiment

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
    ratios = np.array([r.ratio_c6 for r in records])
    ok = bool(np.all(ratios[np.isfinite(ratios)] > 0.0))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_threads(args.threads)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "check":
        return _cmd_check(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
