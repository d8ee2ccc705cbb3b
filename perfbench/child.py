"""Run `fermibolt` in this process with timing hooks around its layers.

    python3 child.py MARKS.json TRACE SRC_DIR -- <fermibolt arguments>

`run.py` starts this script as a separate process, once per sample.
The hooks replace module attributes of the imported package before
`fermibolt.cli.main` runs; nothing under `src/` changes.

With TRACE = 0 only `fermibolt.experiment.global_equilibrium` is wrapped.
It is called once per run, at the end of set-up, so the per-step path
runs unchanged. With TRACE = 1 every layer boundary listed in `HOOKS`
is wrapped. Each wrapped call adds its duration to its own counter and
to the enclosing wrapped call, so a layer's self time is its busy time
minus its children's. A call with no wrapped call around it, made after
set-up, is top level; the top-level busy times are what cover the run.

The marks file gets the monotonic clock at import end and at set-up end,
and the span counters; the clock is shared with the parent process,
which stamped the spawn. TRACE = probe only imports the package and
prints the library versions as JSON.
"""
import json
import os
import sys
import time
from time import perf_counter


def _state_points(args):
    return args[0].f.size


def _array_points(args):
    return args[0].size


# (module, attribute, counter name, phase points of one call or None).
# Attributes are patched where the caller looks them up: experiment.py
# imports most layers by name, evolution.py calls its own module globals.
HOOKS = (
    ("fermibolt.experiment", "step", "evolution.step", _state_points),
    ("fermibolt.evolution", "transport_step", "evolution.transport_step", _state_points),
    ("fermibolt.evolution", "collision_step", "evolution.collision_step", _state_points),
    ("fermibolt.evolution", "apply_collision", "collision.apply_collision", _array_points),
    ("fermibolt.experiment", "apply_collision", "collision.apply_collision", _array_points),
    ("fermibolt.experiment", "build_kernel", "collision.build_kernel", None),
    ("fermibolt.experiment", "_resolve_delta", "experiment.pilot", None),
    ("fermibolt.experiment", "moments", "fields.moments", None),
    ("fermibolt.experiment", "solve_poisson", "fields.solve_poisson", None),
    ("fermibolt.experiment", "project", "equilibrium.project", None),
    ("fermibolt.experiment", "weighted_norm", "functionals.weighted_norm", None),
    ("fermibolt.experiment", "relative_entropy", "functionals.relative_entropy", None),
    ("fermibolt.experiment", "dissipation", "functionals.dissipation", _array_points),
    ("fermibolt.experiment", "field_current_pairing", "functionals.field_current_pairing", None),
    ("fermibolt.experiment", "audit_proof_chain", "experiment.audit_proof_chain", None),
    ("fermibolt.experiment", "estimate_decay_rate", "experiment.estimate_decay_rate", None),
    ("fermibolt.experiment", "write_rate_report", "storage.write_rate_report", None),
    ("fermibolt.experiment", "snapshot_dump", "storage.snapshot_dump", None),
    ("fermibolt.storage", "CsvWriter.write", "storage.CsvWriter.write", None),
)


class Tracer:
    """Span counters kept in memory and written once the run ends."""

    def __init__(self, marks):
        self.marks = marks
        self.spans = {}      # name -> {"calls", "busy_s", "child_s", "points"}
        self.top_level = {}  # name -> busy seconds of top-level calls
        self._stack = []     # child seconds of every open wrapped call

    def wrap(self, name, fn, points):
        span = self.spans.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "child_s": 0.0, "points": 0}
        )
        stack = self._stack
        top_level = self.top_level
        marks = self.marks

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                span["calls"] += 1
                span["busy_s"] += busy
                span["child_s"] += children[0]
                if points:
                    span["points"] += points(args)
                if stack:
                    stack[-1][0] += busy
                elif "setup_end" in marks:
                    top_level[name] = top_level.get(name, 0.0) + busy

        return traced


def _mark_setup_end(marks, experiment):
    original = experiment.global_equilibrium

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        return result

    experiment.global_equilibrium = marked


def _record_kernel_size(marks, experiment):
    original = experiment.build_kernel

    def sized(*args, **kwargs):
        kernel = original(*args, **kwargs)
        marks["kernel_table_bytes"] = sum(
            value.nbytes for value in vars(kernel).values() if hasattr(value, "nbytes")
        )
        return kernel

    experiment.build_kernel = sized


def _probe():
    import numpy
    import scipy

    import fermibolt.cli  # noqa: F401
    import fermibolt.experiment  # noqa: F401

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    print(json.dumps({
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }))


def main():
    marks_path, trace, src_dir = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py MARKS TRACE SRC_DIR -- ARGS")
    sys.path.insert(0, src_dir)
    if trace == "probe":
        _probe()
        return 0
    marks = {}
    import fermibolt.cli
    import fermibolt.evolution
    import fermibolt.experiment
    import fermibolt.storage

    package = os.path.dirname(os.path.abspath(fermibolt.cli.__file__))
    if os.path.dirname(package) != os.path.abspath(src_dir):
        raise SystemExit(f"imported fermibolt from {package}, not from {src_dir}")
    marks["imported"] = time.monotonic()
    tracer = None
    if trace == "1":
        _record_kernel_size(marks, fermibolt.experiment)
        tracer = Tracer(marks)
        for module, attribute, name, points in HOOKS:
            owner = sys.modules[module]
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), points))
    _mark_setup_end(marks, fermibolt.experiment)
    try:
        return fermibolt.cli.main(sys.argv[5:])
    finally:
        if tracer is not None:
            marks["spans"] = tracer.spans
            marks["top_level"] = tracer.top_level
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main())
