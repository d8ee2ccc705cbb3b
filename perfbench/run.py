"""Benchmark `fermibolt run` on one workload, or all in turn, and print the metrics.

    python3 perfbench/run.py --workload fd1d_default --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36

Each sample is one `fermibolt run` process, started through `child.py`
with every threading backend pinned to one thread, one process at a
time. Samples repeat until the next one would end after `--seconds`
(at least two run). Every sample's output is checked; a sample with a
wrong output counts as failed and its timings are left out, unless every
sample failed.

`--trace 0` reports the end-to-end metrics as medians over the samples.
`--trace 1` alternates untraced and traced samples and reports the
per-layer split of the traced ones. The last line of standard output
is one JSON object; the lines before it repeat the metrics for people,
with the sample counts, and the full result goes to
`.perfbench_work/<workload>/seed<seed>-trace<trace>/result.json`.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import AUDIT_SIGNS, WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_SAMPLES = 2
TIME_LIMIT_S = 170.0      # whole benchmark process, set-up included
MASS_DRIFT_TOL = 1e-12    # relative
ENTROPY_RISE_TOL = 1e-10  # times H at t = 0, as in `fermibolt check`
COVERAGE_MIN = 0.9        # top-level traced layers over traced run_s
MIB = 2.0**20

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "phase_points_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# Functions whose top-level calls make up the diagnostics layer: the
# per-record observation in the run loop, outside the step, the pilot
# and the audit.
DIAGNOSTICS = (
    "fields.moments",
    "fields.solve_poisson",
    "equilibrium.project",
    "functionals.weighted_norm",
    "functionals.relative_entropy",
    "functionals.dissipation",
    "functionals.field_current_pairing",
)
PER_LAYER = {
    "collision.apply_collision.calls": "count",
    "collision.apply_collision.busy_s": "s",
    "collision.apply_collision.ns_per_point": "ns",
    "collision.build_kernel_s": "s",
    "collision.table_mb": "MiB",
    "evolution.step.calls": "count",
    "evolution.step.busy_s": "s",
    "evolution.step.self_s": "s",
    "evolution.transport_step.calls": "count",
    "evolution.transport_step.busy_s": "s",
    "evolution.transport_step.ns_per_point": "ns",
    "evolution.collision_step.self_s": "s",
    "functionals.dissipation.calls": "count",
    "functionals.dissipation.busy_s": "s",
    "functionals.dissipation.ns_per_point": "ns",
    "diagnostics.busy_s": "s",
    "equilibrium.project.calls": "count",
    "equilibrium.project.busy_s": "s",
    "fields.moments.busy_s": "s",
    "fields.solve_poisson.busy_s": "s",
    "experiment.pilot_s": "s",
    "experiment.audit_proof_chain.busy_s": "s",
    "experiment.estimate_decay_rate.busy_s": "s",
    "storage.CsvWriter.write.calls": "count",
    "storage.CsvWriter.write.busy_s": "s",
    "storage.snapshot_dump.calls": "count",
    "storage.snapshot_dump.busy_s": "s",
    "storage.busy_s": "s",
    "storage.bytes_written": "bytes",
    "setup.import_s": "s",
    "setup.busy_s": "s",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
    "tracing_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, no interpreter)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    # child.py imports numpy before `fermibolt.cli.main` could pin the
    # threads, so the pinning goes through the environment.
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = str(THREADS)
    return env


# ---------------------------------------------------------------- provenance

def probe(env):
    """Import the package once, untimed: fails fast without sources, and
    writes the bytecode caches so the first timed sample does not."""
    if not (SRC / "fermibolt" / "cli.py").is_file():
        raise BenchError(f"no fermibolt sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, str(CHILD), "-", "probe", str(SRC), "--"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import fermibolt:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(name, args, libs):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": libs["numpy"],
        "scipy": libs["scipy"],
        "blas": libs["blas"],
        "threads": THREADS,
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------- samples

def run_sample(index, traced, workload, config_path, seed, env, work, deadline):
    """Start one `fermibolt run` process and time it from spawn to exit."""
    out = work / f"sample{index}"
    out.mkdir()
    marks_path = out / "marks.json"
    cmd = [
        sys.executable, str(CHILD), str(marks_path), "1" if traced else "0",
        str(SRC), "--",
        "--threads", str(THREADS), "run", str(config_path),
        "--output-dir", str(out / "run"),
    ]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=work, stdout=stdout, stderr=stderr)
        killer = threading.Timer(max(1.0, deadline - spawn), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    # wait4 reaped the child; record that so Popen never waits for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "index": index,
        "traced": traced,
        "exit_code": proc.returncode,
        "run_s": end - spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / MIB,
        "errors": [],
    }
    if proc.returncode != 0:
        tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        sample["errors"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    try:
        marks = json.loads(marks_path.read_text())
        sample["setup_s"] = marks["setup_end"] - spawn
        sample["import_s"] = marks["imported"] - spawn
    except (OSError, ValueError, KeyError) as exc:
        sample["errors"].append(f"no timing marks: {exc!r}")
        return sample
    check_outputs(sample, out / "run", workload, seed)
    if traced and "bytes_written" in sample:
        sample["layers"] = layer_metrics(sample, marks)
        if sample["layers"]["trace.coverage"] < COVERAGE_MIN:
            sample["errors"].append(
                f"traced layers cover {sample['layers']['trace.coverage']:.3f} "
                f"of run_s, need {COVERAGE_MIN}"
            )
    return sample


def read_kv(path):
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def check_outputs(sample, run_dir, workload, seed):
    """Append to sample["errors"] every way the run's artifacts are wrong."""
    errors = sample["errors"]
    try:
        manifest = read_kv(run_dir / "snapshots" / "manifest.cfg")
        csv_bytes = (run_dir / "diagnostics.csv").read_bytes()
    except OSError as exc:
        errors.append(f"missing artifact: {exc}")
        return
    sample["diagnostics_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    sample["bytes_written"] = sum(
        p.stat().st_size for p in run_dir.rglob("*") if p.is_file()
    )
    dt, t_final = float(manifest["dt"]), float(manifest["t_final"])
    every = int(manifest["record_every"])
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    cells = int(manifest["spatial_cells"])
    nodes = int(manifest["nodes_per_axis"]) ** int(manifest["d_v"])
    sample["phase_points"] = cells * nodes * n_steps
    if int(manifest["seed"]) != config_seed(seed):
        errors.append(f"manifest seed {manifest['seed']} is not {config_seed(seed)}")

    rows = list(csv.DictReader(csv_bytes.decode("utf-8").splitlines()))
    expected_rows = n_steps // every + 1 + (1 if n_steps % every else 0)
    if len(rows) != expected_rows:
        errors.append(f"{len(rows)} diagnostics rows, expected {expected_rows}")
        return
    mass = [float(r["mass"]) for r in rows]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    if not drift <= MASS_DRIFT_TOL:
        errors.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_TOL}")
    entropy = [float(r["H"]) for r in rows]
    rise = max((b - a for a, b in zip(entropy, entropy[1:])), default=0.0)
    if not rise <= ENTROPY_RISE_TOL * abs(entropy[0]):
        errors.append(f"H rises by {rise:.3e} between rows")

    if workload.entropy_ratio_band is not None:
        lo, hi = workload.entropy_ratio_band
        ratio = entropy[-1] / entropy[0]
        if not lo <= ratio <= hi:
            errors.append(f"H decays to {ratio!r} of H0, outside [{lo}, {hi}]")
    if workload.lambda_band is None:
        return
    try:
        report = read_kv(run_dir / "rate_report.kv")
    except OSError:
        errors.append("no rate_report.kv")
        return
    lam = float(report.get("lambda_obs", "nan"))
    sample["lambda_obs"] = lam
    lo, hi = workload.lambda_band
    if not lo <= lam <= hi:
        errors.append(f"lambda_obs {lam!r} outside [{lo}, {hi}]")
    for key in AUDIT_SIGNS:
        value = float(report.get(key, "nan"))
        if not 0.0 < value < math.inf:
            errors.append(f"audit constant {key} = {value!r} is not positive")


def layer_metrics(sample, marks):
    """The traced sample's PER_LAYER values, all but tracing_overhead_s.

    A name `<span>.<field>` reads that field of the span's counters;
    `self_s` is busy minus child time and `ns_per_point` busy time per
    phase point.
    """
    spans = marks["spans"]
    top = marks["top_level"]
    setup = sample["setup_s"]
    layers = {
        "collision.build_kernel_s": spans["collision.build_kernel"]["busy_s"],
        "collision.table_mb": marks["kernel_table_bytes"] / MIB,
        "diagnostics.busy_s": sum(top.get(name, 0.0) for name in DIAGNOSTICS),
        "experiment.pilot_s": spans["experiment.pilot"]["busy_s"],
        "storage.busy_s": sum(v for k, v in top.items() if k.startswith("storage.")),
        "storage.bytes_written": sample["bytes_written"],
        "setup.import_s": sample["import_s"],
        "setup.busy_s": setup,
        "trace.run_s": sample["run_s"],
        # Every top-level call after set-up belongs to one of the top-level
        # layers: step, diagnostics, pilot, audit and fit, storage.
        "trace.coverage": (setup + sum(top.values())) / sample["run_s"],
    }
    for name in PER_LAYER:
        if name in layers or name == "tracing_overhead_s":
            continue
        span_name, field = name.rsplit(".", 1)
        span = spans[span_name]
        if field == "self_s":
            layers[name] = span["busy_s"] - span["child_s"]
        elif field == "ns_per_point":
            layers[name] = span["busy_s"] * 1e9 / span["points"] if span["points"] else 0.0
        else:
            layers[name] = span[field]
    return layers


# ------------------------------------------------------------------- results

def high_percentile(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def summarize(name, unit, values):
    tail = high_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile with 10 samples beyond"
    return (
        f"  {name:<42} median {statistics.median(values):.6g} {unit}"
        f"  ({tail_text}; max {max(values):.6g}; n = {len(values)})"
    )


def end_to_end(samples):
    metrics = {}
    for name, unit in END_TO_END.items():
        if name == "phase_points_per_s":
            values = [s["phase_points"] / (s["run_s"] - s["setup_s"]) for s in samples]
        else:
            values = [s[name] for s in samples]
        metrics[name] = (unit, values)
    return metrics


def per_layer(untraced, traced):
    metrics = {}
    overhead = statistics.median(s["run_s"] for s in traced) - statistics.median(
        s["run_s"] for s in untraced
    )
    for name, unit in PER_LAYER.items():
        if name == "tracing_overhead_s":
            metrics[name] = (unit, [overhead])
        else:
            metrics[name] = (unit, [s["layers"][name] for s in traced])
    return metrics


def timed_samples(samples, traced):
    """Samples with every timing; only the correct ones unless none is."""
    pool = [
        s for s in samples
        if s["traced"] == traced and "phase_points" in s and (not traced or "layers" in s)
    ]
    return [s for s in pool if not s["errors"]] or pool


def check_determinism(samples):
    """Every run of one workload and seed must write the same CSV bytes."""
    digests = [s.get("diagnostics_sha256") for s in samples]
    reference = next((d for d in digests if d), None)
    for sample, digest in zip(samples, digests):
        if digest and digest != reference:
            sample["errors"].append("diagnostics.csv differs from the first sample")


def bench(name, args, env, libs):
    """Measure one workload, print its summary and return its result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = provenance(name, args, libs)
    workload = WORKLOADS[name]
    config_path = work / f"{name}.cfg"
    config_path.write_text(workload.config_text(args.seed), encoding="utf-8")

    samples = []
    measure_from = time.monotonic()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        if len(samples) >= MIN_SAMPLES:
            same = [s["run_s"] for s in samples if s["traced"] == traced]
            elapsed = time.monotonic() - measure_from
            if elapsed + statistics.median(same) > args.seconds:
                break
        sample = run_sample(
            len(samples), traced, workload, config_path, args.seed, env, work, deadline
        )
        samples.append(sample)
        if "diagnostics_sha256" in sample:
            shutil.rmtree(work / f"sample{sample['index']}" / "run")
    check_determinism(samples)

    failed = [s for s in samples if s["errors"]]
    for s in failed:
        for error in s["errors"]:
            print(f"{name} sample {s['index']} failed: {error}", file=sys.stderr)
    untraced, traced = timed_samples(samples, False), timed_samples(samples, True)
    if not untraced or (args.trace and not traced):
        metrics = {}
    else:
        metrics = end_to_end(untraced) if not args.trace else per_layer(untraced, traced)

    print(f"fermibolt benchmark: workload {name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  samples: {len(samples)} attempted, {len(failed)} failed "
          f"(failure share {len(failed) / len(samples):.3f})")
    if failed and len(failed) == len(samples):
        print("  every sample failed: the metrics below time wrong outputs")
    for metric, (unit, values) in metrics.items():
        print(summarize(metric, unit, values))
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            metric: {"value": statistics.median(values), "unit": unit}
            for metric, (unit, values) in metrics.items()
        },
    }
    (work / "result.json").write_text(
        json.dumps({**result, "provenance": info, "samples": samples}, indent=1),
        encoding="utf-8",
    )
    return result


def main(argv=None):
    args = parse_args(argv)
    env = child_env()
    try:
        libs = probe(env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench(name, args, env, libs) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
