#!/usr/bin/env python3
"""Fast self-test of the benchmark; it has no timing gates.

    python3 perfbench/selftest.py

Runs every workload's code path at a tiny size (a 15 x 30 degree grid,
1 bit) in both modes and checks that every metric named in
BENCHMARK.json is printed with its unit. Then corrupts one value of a
gain_map.csv and checks that both the oracle and the digest comparison
flag it. Exits non-zero on the first failed check.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

ROOT = os.path.dirname(run.HERE)
TINY_REGULAR_POINTS = 11 * 12 + 2  # 15 x 30 degree lattice, poles stored once
TINY_UNIFORM_TARGET = 40
TINY_UNIFORM_POINTS = 40  # what the ring layout of the package realizes for 40


def tiny(workload):
    uniform = workload.uniform_points is not None
    return dataclasses.replace(
        workload,
        name=f"{workload.name}-tiny",
        bits=1,
        theta_step_deg=15.0,
        phi_step_deg=30.0,
        uniform_points=TINY_UNIFORM_TARGET if uniform else None,
        grid_points=TINY_UNIFORM_POINTS if uniform else TINY_REGULAR_POINTS,
    )


def check(condition, message):
    if not condition:
        print(f"selftest: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_metrics_printed(workload, trace, declared):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, 1, 0.0, trace, ROOT)
    report = out.getvalue()
    check(result["correct"] and result["failed"] == 0, f"{workload.name} trace={trace}: {result}")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        check(got is not None and got["unit"] == unit,
              f"{workload.name} trace={trace}: metric {name} [{unit}] missing, got {got}")
        check(any(line.startswith(name + " ") and f" {unit} " in line
                  for line in report.splitlines()),
              f"{workload.name} trace={trace}: no report line for {name} in {unit}")
    print(f"selftest: {workload.name} trace={trace}: {len(declared)} metrics ok")


def corrupt_gain_map(path):
    """Add 0.5 dB to the gain of the first direction (the north pole)."""
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[1].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)
    lines[1] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def check_corruption_flagged():
    workload = tiny(WORKLOADS["phone_full"])
    bench = run.Bench(ROOT, workload, 1, os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}"))
    try:
        bench.prepare()
        rc, _, _, _, err = bench.reference()
        check(rc == 0, f"reference run failed: {err}")
        reference = bench.digests()
        problems, _ = run.reference_checks(bench, rc, err, reference, reference)
        check(not problems, f"clean outputs flagged: {problems}")

        corrupt_gain_map(os.path.join(bench.out_dir, "gain_map.csv"))
        problems, _ = run.reference_checks(bench, 0, "", bench.digests(), reference)
        check(any("oracle" in p for p in problems), f"oracle missed the corruption: {problems}")
        check(any("recorded digests" in p for p in problems),
              f"digest check missed the corruption: {problems}")
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bench.workdir))
    print("selftest: corrupted gain_map.csv flagged by the oracle and the digest check")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name in (w["name"] for w in spec["workloads"]):
        workload = tiny(WORKLOADS[name])
        check_metrics_printed(workload, 0, spec["end_to_end"])
        check_metrics_printed(workload, 1, spec["per_layer"])
    check_corruption_flagged()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
