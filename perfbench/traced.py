"""Run ``arraycov coverage`` in-process once, with a span around each layer.

    PYTHONPATH=src python3 perfbench/traced.py --config run.json \
        --spans spans.json --trace-id ID

Wraps the public functions of each package module at the attribute its
caller looks up (``arraycov.coverage.synth_max_accumulate``, not
``arraycov.kernels.synth_max_accumulate``), calls ``arraycov.cli.main``,
and writes the spans, kept in memory until then, to --spans. Only
functions called a few times per run (per sub-array at most) are
wrapped, so the spans cost microseconds. Each invocation runs in a fresh
interpreter, which makes the ``ru_maxrss`` high-water deltas around a
span mean something.
"""

import argparse
import functools
import importlib
import json
import resource
import sys
import time

import numpy as np

from envinfo import kernel_path


def _path_arg(index):
    return lambda args, kwargs, result: {"path": str(args[index])}


def _size_of_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _kernel_work(args, kwargs, result):
    # synth_max_accumulate(elem_gains, phasors, best_power, best_index, offset)
    return {"realization_dirs": int(args[1].shape[0] * args[2].shape[0])}


def _winners(args, kwargs, result):
    # reduced to a count after the run, outside every span
    return {"best_index": result.best_index}


def _cdf_points(args, kwargs, result):
    return {"cdf_points": int(result.gain_db.size)}


# (module, attribute its caller looks up, span name, attribute probe)
TARGETS = (
    ("arraycov.cli", "main", "cli.main", None),
    ("arraycov.pattern", "load_pattern_csv", "pattern.load", _path_arg(0)),
    ("arraycov.pattern", "resample", "pattern.resample", None),
    ("arraycov.pattern", "make_regular_grid", "grid.build", _size_of_result("directions")),
    ("arraycov.cli", "make_regular_grid", "grid.build", _size_of_result("directions")),
    ("arraycov.cli", "make_uniform_sphere_grid", "grid.build", _size_of_result("directions")),
    ("arraycov.deembed", "load_loss_csv", "deembed", None),
    ("arraycov.deembed", "apply_losses", "deembed", None),
    ("arraycov.synth", "plan_from_config", "synth.plan", None),
    ("arraycov.coverage", "enumerate_weights", "synth.enumerate", _size_of_result("weights")),
    ("arraycov.coverage", "max_gain_over_plan", "coverage.max_gain", _winners),
    ("arraycov.coverage", "synth_max_accumulate", "kernels.synth_max", _kernel_work),
    ("arraycov.coverage", "coverage_cdf", "coverage.cdf", _cdf_points),
    ("arraycov.coverage", "percentile_gain", "coverage.cdf", None),
    ("arraycov.coverage", "save_gainmap_csv", "coverage.save", _path_arg(1)),
    ("arraycov.coverage", "save_cdf_csv", "coverage.save", _path_arg(1)),
    ("arraycov.svgplot", "line_plot", "svgplot.line_plot", None),
    ("arraycov.cli", "write_json", "ioutil.write_json", None),
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans of one traced invocation in memory."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "trace": self.trace_id,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["rss0_kib"] = _maxrss_kib()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss1_kib"] = _maxrss_kib()
                self._stack.pop()
            if probe is not None:
                span.update(probe(args, kwargs, result))
            return result

        return traced

    def install(self) -> list:
        """Wrap every target; returns the span names whose target is gone."""
        missing = []
        for module_name, attr, name, probe in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name, probe))
        return sorted(set(missing))


def span_cost_s(calls=2000, repeats=5) -> float:
    """Time one span adds around a call, best of several repeats."""
    def noop():
        return None

    wrapped = Tracer("calibration").wrap(noop, "noop")
    best_bare = best_traced = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best_bare = min(best_bare, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_bare, 0.0) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace-id", required=True)
    args = parser.parse_args()

    import arraycov.cli

    tracer = Tracer(args.trace_id)
    missing = tracer.install()
    exit_code = arraycov.cli.main(["coverage", "--config", args.config])
    for span in tracer.spans:
        if "best_index" in span:
            span["winners"] = int(np.unique(span.pop("best_index")).size)
    with open(args.spans, "w") as fh:
        json.dump(
            {
                "exit_code": exit_code,
                "missing": missing,
                "kernel_path": kernel_path(),
                "span_cost_s": span_cost_s(),
                "spans": tracer.spans,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
