#!/usr/bin/env python3
"""Closed-loop benchmark of the ``arraycov coverage`` command line.

    python3 perfbench/run.py --workload phone_uniform301 --seed 100 --seconds 55 --trace 0

Run from a checkout of the repository; the package is taken from its
``src`` directory, so nothing needs installing. One client runs the
command line as a subprocess, each invocation starting after the
previous one exits, which is how an engineer or a sweep script uses it.

--trace 0 reports the end-to-end metrics, each the median over the
run's invocations: wall time of one ``arraycov coverage`` subprocess
(``wall_s``) and its user+sys CPU time (``cpu_s``), both from
``os.wait4``, and the wall time of a fresh interpreter importing
``arraycov.cli`` (``setup_s``), sampled once before each invocation.
The peak resident set (``peak_rss_mib``) is that of the reference
invocation, which runs with a fixed malloc mmap threshold (see
``Bench.reference``). --trace 1 runs ``traced.py`` in a fresh child
per invocation instead and reports per-layer metrics from its spans.

Inputs are generated from --seed and written once, before timing, by
``inputs.py``. Every invocation's outputs must be byte-identical to the
first one's. The first one must also pass ``oracle.py`` and, for a seed
recorded in ``digests.json``, match the recorded sha256 of every output.
The last line of standard output is the JSON result.

This process imports no numpy and leaves all heavy work to children: a
child's ``ru_maxrss`` starts at its parent's high-water mark, so a large
parent would hide a smaller peak in the program it measures.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

MIN_INVOCATIONS = 3
KIB_PER_MIB = 1024.0

# name, unit, span names the metric is computed from
PER_LAYER = (
    ("pattern.load_s", "s", ("pattern.load",)),
    ("pattern.rows", "count", ("pattern.load",)),
    ("pattern.bytes_read", "B", ("pattern.load",)),
    ("pattern.rows_per_s", "1/s", ("pattern.load",)),
    ("pattern.rss_hwm_delta_mib", "MiB", ("pattern.load",)),
    ("pattern.resample_s", "s", ("pattern.resample",)),
    ("grid.build_s", "s", ("grid.build",)),
    ("grid.directions", "count", ("grid.build",)),
    ("deembed.s", "s", ("deembed",)),
    ("synth.plan_s", "s", ("synth.plan",)),
    ("synth.enumerate_s", "s", ("synth.enumerate",)),
    ("synth.weights", "count", ("synth.enumerate",)),
    ("coverage.max_gain_self_s", "s", ("coverage.max_gain",)),
    ("kernels.synth_max_s", "s", ("kernels.synth_max",)),
    ("kernels.calls", "count", ("kernels.synth_max",)),
    ("kernels.realization_dirs", "count", ("kernels.synth_max",)),
    ("kernels.rd_per_s", "1/s", ("kernels.synth_max",)),
    ("kernels.rss_hwm_delta_mib", "MiB", ("kernels.synth_max",)),
    ("kernels.useful_ratio", "ratio", ("coverage.max_gain", "synth.enumerate")),
    ("coverage.cdf_s", "s", ("coverage.cdf",)),
    ("coverage.cdf_points", "count", ("coverage.cdf",)),
    ("coverage.save_s", "s", ("coverage.save",)),
    ("coverage.bytes_written", "B", ("coverage.save",)),
    ("svgplot.line_plot_s", "s", ("svgplot.line_plot",)),
    ("ioutil.write_json_s", "s", ("ioutil.write_json",)),
    ("cli.main_s", "s", ("cli.main",)),
    ("cli.self_s", "s", ("cli.main",)),
    ("trace.overhead_s", "s", ()),
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


class Bench:
    """Inputs, config and child processes of one benchmark run."""

    def __init__(self, root, workload, seed, workdir):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        # these names match inputs.py
        self.out_dir = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "run.json")
        src = os.path.join(root, "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""),
            # Without this, numpy asks for transparent huge pages on large
            # arrays. Whether it gets them depends on how fragmented the
            # machine's memory is at the time, which moved peak_rss_mib of one
            # workload between 109 and 128 MiB from run to run.
            NUMPY_MADVISE_HUGEPAGE="0",
        )
        # glibc raises its mmap threshold after the first large free, so
        # later large arrays may come from the heap and stay resident after
        # they are freed. Which ones do depends on the order and sizes of
        # earlier allocations, down to the length of the work directory's
        # path: peak_rss_mib of one workload read 109 or 128 MiB by that
        # alone. A fixed threshold maps and unmaps every large array, so the
        # peak follows the arrays alive at once; it also doubles the time of
        # the kernel-bound workload, so only the reference invocation uses it.
        self.reference_env = dict(self.env, MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
        self._row_counts = {}

    def _helper(self, script, *args) -> str:
        """Standard output of a benchmark helper script run to completion."""
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            env=self.env, cwd=self.root, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{script} failed: {proc.stderr.strip()}")
        return proc.stdout

    def prepare(self):
        os.makedirs(self.workdir)
        self._helper("inputs.py", "--workload-json", self.workload.to_json(),
                     "--seed", str(self.seed), "--dir", self.workdir)

    def check(self) -> tuple:
        """(problems, notes) from oracle.py on the current outputs."""
        report = json.loads(self._helper("oracle.py", "--workload-json", self.workload.to_json(),
                                         "--seed", str(self.seed), "--out", self.out_dir))
        return report["problems"], report["notes"]

    def digests(self) -> dict:
        """sha256 of each expected output; a missing file maps to None."""
        digests = {}
        for name in self.workload.output_files:
            try:
                with open(os.path.join(self.out_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            except FileNotFoundError:
                digests[name] = None
        return digests

    def _spawn(self, argv, stderr_path, env=None):
        """(exit code, wall s, cpu s, peak rss MiB) of one child, run to exit."""
        with open(stderr_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=env or self.env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / KIB_PER_MIB)

    def _stderr(self, path):
        with open(path, errors="replace") as fh:
            return fh.read().strip()

    def environment(self) -> dict:
        env = json.loads(self._helper("envinfo.py"))
        src_pkg = os.path.join(self.root, "src", "arraycov")
        if os.path.realpath(env["arraycov"]) != os.path.realpath(src_pkg):
            raise RuntimeError(f"arraycov imported from {env['arraycov']}, not from {src_pkg}")
        return env

    def clear_outputs(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def cli(self, env=None):
        """One ``arraycov coverage`` run, launched as the console script does."""
        self.clear_outputs()
        stderr_path = os.path.join(self.workdir, "cli.stderr")
        argv = [sys.executable, "-c", "import sys; from arraycov.cli import main; sys.exit(main())",
                "coverage", "--config", self.config]
        rc, wall, cpu, rss = self._spawn(argv, stderr_path, env)
        return rc, wall, cpu, rss, (self._stderr(stderr_path) if rc else "")

    def reference(self):
        """The untimed reference invocation; its peak RSS is peak_rss_mib."""
        return self.cli(self.reference_env)

    def import_time(self) -> float:
        rc, wall, _, _ = self._spawn(
            [sys.executable, "-c", "import arraycov.cli"], os.path.join(self.workdir, "import.stderr")
        )
        if rc != 0:
            raise RuntimeError("importing arraycov.cli failed")
        return wall

    def traced(self, trace_id):
        """One traced in-process run in a fresh child; returns its span record."""
        self.clear_outputs()
        spans_path = os.path.join(self.workdir, "spans.json")
        stderr_path = os.path.join(self.workdir, "traced.stderr")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        argv = [sys.executable, os.path.join(HERE, "traced.py"), "--config", self.config,
                "--spans", spans_path, "--trace-id", trace_id]
        rc, _, _, _ = self._spawn(argv, stderr_path)
        if rc != 0 or not os.path.exists(spans_path):
            return None, self._stderr(stderr_path)
        with open(spans_path) as fh:
            record = json.load(fh)
        if record["exit_code"] != 0:
            return None, self._stderr(stderr_path)
        return record, ""

    def data_rows(self, path) -> int:
        if path not in self._row_counts:
            with open(path, "rb") as fh:
                self._row_counts[path] = sum(1 for line in fh if line.strip()) - 1
        return self._row_counts[path]


def layer_metrics(record, data_rows) -> dict:
    """Per-layer values of one traced invocation, by metric name.

    A metric fed by a wrapped name that no longer exists is left out,
    never reported as zero.
    """
    spans = record["spans"]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_s(name):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def hwm_delta_mib(name):
        return sum(s["rss1_kib"] - s["rss0_kib"] for s in by_name[name]) / KIB_PER_MIB

    def ratio(num, den):
        return num / den if den else 0.0

    loads = by_name["pattern.load"]
    load_s = self_s("pattern.load")
    rows = sum(data_rows(s["path"]) for s in loads)
    kernel_s = self_s("kernels.synth_max")
    main_spans = by_name["cli.main"]
    values = {
        "pattern.load_s": load_s,
        "pattern.rows": rows,
        "pattern.bytes_read": sum(os.path.getsize(s["path"]) for s in loads),
        "pattern.rows_per_s": ratio(rows, load_s),
        "pattern.rss_hwm_delta_mib": hwm_delta_mib("pattern.load"),
        "pattern.resample_s": self_s("pattern.resample"),
        "grid.build_s": self_s("grid.build"),
        "grid.directions": total("grid.build", "directions"),
        "deembed.s": self_s("deembed"),
        "synth.plan_s": self_s("synth.plan"),
        "synth.enumerate_s": self_s("synth.enumerate"),
        "synth.weights": total("synth.enumerate", "weights"),
        "coverage.max_gain_self_s": self_s("coverage.max_gain"),
        "kernels.synth_max_s": kernel_s,
        "kernels.calls": len(by_name["kernels.synth_max"]),
        "kernels.realization_dirs": total("kernels.synth_max", "realization_dirs"),
        "kernels.rd_per_s": ratio(total("kernels.synth_max", "realization_dirs"), kernel_s),
        "kernels.rss_hwm_delta_mib": hwm_delta_mib("kernels.synth_max"),
        "kernels.useful_ratio": ratio(total("coverage.max_gain", "winners"),
                                      total("synth.enumerate", "weights")),
        "coverage.cdf_s": self_s("coverage.cdf"),
        "coverage.cdf_points": total("coverage.cdf", "cdf_points"),
        "coverage.save_s": self_s("coverage.save"),
        "coverage.bytes_written": sum(os.path.getsize(s["path"]) for s in by_name["coverage.save"]),
        "svgplot.line_plot_s": self_s("svgplot.line_plot"),
        "ioutil.write_json_s": self_s("ioutil.write_json"),
        "cli.main_s": sum(s["end"] - s["start"] for s in main_spans),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": record["span_cost_s"] * len(spans),
    }
    missing = set(record["missing"])
    return {name: values[name] for name, _, needs in PER_LAYER if not missing & set(needs)}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    return (f"{name:28s} median {statistics.median(values):.6g} {unit}  "
            f"[q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)}]")


def recorded_digests(workload_name, seed):
    """Output digests recorded for this workload and seed, or None."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh).get(workload_name, {}).get(str(seed))


def run(workload, seed, seconds, trace, root, recorded=None) -> dict:
    """One benchmark run; prints its report and returns the JSON result.

    recorded holds the output digests recorded for this workload and
    seed, or None.
    """
    workdir = os.path.join(root, ".perfbench_work", f"{workload.name}-{seed}-{os.getpid()}")
    bench = Bench(root, workload, seed, workdir)
    try:
        env = bench.environment()
        print(f"perfbench: workload={workload.name} seed={seed} seconds={seconds} trace={trace}")
        print(f"env: {json.dumps(env, sort_keys=True)}")
        bench.prepare()

        # the reference invocation also warms the page cache (and bytecode cache, if on)
        rc, _, _, reference_rss, err = bench.reference()
        reference = bench.digests()
        problems, notes = reference_checks(bench, rc, err, reference, recorded)
        for note in notes:
            print(f"check: {note}")
        print(f"outputs sha256: {json.dumps(reference, sort_keys=True)}")
        for problem in problems:
            print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)

        if trace:
            metrics, attempted, failed = _traced_loop(bench, seconds, reference, problems)
        else:
            bench.import_time()
            metrics, attempted, failed = _cli_loop(bench, seconds, reference, problems,
                                                   reference_rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only if no other run is using it

    ratio = failed / attempted
    print(f"{'failed_ratio':28s} {failed}/{attempted} = {ratio:.6g} ratio")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def reference_checks(bench, rc, err, digests, recorded) -> tuple:
    """(problems, notes) for the reference invocation."""
    if rc != 0:
        return [f"exit code {rc}: {err}"], []
    missing = [name for name, d in digests.items() if d is None]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"], []
    problems, notes = bench.check()
    if recorded is None:
        notes.append("digests: none recorded for this seed")
    elif recorded != digests:
        changed = sorted(n for n in digests if recorded.get(n) != digests[n])
        problems.append(f"outputs differ from the recorded digests: {', '.join(changed)}")
    else:
        notes.append("digests: match the record")
    return problems, notes


def _passes(bench, attempted, reference, problems):
    """Whether an invocation's outputs are byte-identical to a sound reference."""
    if problems:
        return False
    if bench.digests() != reference:
        print(f"perfbench: invocation {attempted}: outputs differ from the reference",
              file=sys.stderr)
        return False
    return True


def _cli_loop(bench, seconds, reference, problems, reference_rss):
    samples = defaultdict(list)
    samples["peak_rss_mib"].append(reference_rss)
    default_rss = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_INVOCATIONS or time.perf_counter() < deadline:
        samples["setup_s"].append(bench.import_time())
        rc, wall, cpu, rss, err = bench.cli()
        attempted += 1
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        default_rss.append(rss)
        if rc != 0 or not _passes(bench, attempted, reference, problems):
            failed += 1
            if rc != 0:
                print(f"perfbench: invocation {attempted} exit code {rc}: {err}", file=sys.stderr)
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        print(describe(name, samples[name], unit))
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(f"{describe('timed peak_rss_mib', default_rss, 'MiB')}  default malloc, not reported")
    return metrics, attempted, failed


def _traced_loop(bench, seconds, reference, problems):
    samples = defaultdict(list)
    attempted = failed = 0
    missing = set()
    deadline = time.perf_counter() + seconds
    while attempted < MIN_INVOCATIONS or time.perf_counter() < deadline:
        attempted += 1
        record, err = bench.traced(f"{bench.workload.name}-{bench.seed}-{attempted}")
        if record is None or not _passes(bench, attempted, reference, problems):
            failed += 1
            if record is None:
                print(f"perfbench: traced invocation {attempted} failed: {err}", file=sys.stderr)
            continue
        missing.update(record["missing"])
        for name, value in layer_metrics(record, bench.data_rows).items():
            samples[name].append(value)
    if missing:
        print(f"perfbench: wrapped names missing, metrics left out: {sorted(missing)}",
              file=sys.stderr)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if samples[name]:
            print(describe(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "arraycov", "cli.py")):
        print(f"perfbench: no package source at {os.path.join(root, 'src', 'arraycov')}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = run(workload, args.seed, args.seconds, args.trace, root,
                     recorded=recorded_digests(workload.name, args.seed))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
