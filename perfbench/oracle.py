"""Checks of one coverage run's outputs against the method itself.

    python3 perfbench/oracle.py --workload-json '{...}' --seed 100 --out DIR

prints one JSON object: {"problems": [...], "notes": [...]}. It checks
the realization and direction counts in summary.json and, on native-grid
workloads, compares gain_map.csv with a brute-force oracle on a fixed
sample of directions. The oracle is coded here from the method, not from
the package: it builds the quantized phase lattice itself, scales each
feed by its de-embedding factor, and takes the maximum
polarization-summed power over every weight vector of every sub-array.
It imports nothing from ``arraycov``.
"""

import argparse
import csv
import itertools
import json
import math
import os

import numpy as np

from inputs import Inputs, make_inputs
from workloads import GROUPS, Workload

ORACLE_TOL_DB = 1e-9
ORACLE_SAMPLES = 97


def check_summary(out_dir, workload: Workload) -> list:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    for key, want in (("realizations", workload.realizations),
                      ("grid_points", workload.grid_points)):
        if summary.get(key) != want:
            problems.append(f"summary.json {key}={summary.get(key)!r}, expected {want}")
    return problems


def sample_directions(n_dir) -> np.ndarray:
    """Evenly spaced direction indices, both poles included."""
    return np.unique(np.linspace(0, n_dir - 1, min(ORACLE_SAMPLES, n_dir)).round().astype(int))


def oracle_gain_db(inputs: Inputs, bits, dir_idx) -> np.ndarray:
    """Max realized gain in dB at the given native-grid directions."""
    scale = 10.0 ** (inputs.loss_db / 20.0)
    g = inputs.gains[:, dir_idx, :] * scale[:, np.newaxis, np.newaxis]
    levels = 2**bits
    best = np.zeros(dir_idx.size)
    for group in GROUPS:
        n = len(group)
        codes = np.array(list(itertools.product(range(levels), repeat=n - 1)))
        phasors = np.ones((codes.shape[0], n), dtype=complex)
        phasors[:, 1:] = np.exp(2j * math.pi * codes / levels)
        fields = np.einsum("wn,ndp->wdp", phasors / math.sqrt(n), g[list(group)])
        power = (fields.real**2 + fields.imag**2).sum(axis=2).max(axis=0)
        best = np.maximum(best, power)
    return 10.0 * np.log10(best)


def read_gain_map(path) -> dict:
    """{(theta_deg, phi_deg): gain_db} from a gain-map CSV."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {(float(r[0]), float(r[1])): float(r[3]) for r in rows if r}


def check_oracle(out_dir, workload: Workload, inputs: Inputs) -> tuple:
    """(directions sampled, max |error| in dB, problems)."""
    gain_map = read_gain_map(os.path.join(out_dir, "gain_map.csv"))
    idx = sample_directions(inputs.theta_deg.size)
    want = oracle_gain_db(inputs, workload.bits, idx)
    worst = 0.0
    problems = []
    for d, w in zip(idx.tolist(), want.tolist()):
        key = (float(inputs.theta_deg[d]), float(inputs.phi_deg[d]))
        got = gain_map.get(key)
        if got is None:
            problems.append(f"gain_map.csv has no row at theta={key[0]} phi={key[1]}")
            continue
        err = abs(got - w)
        worst = max(worst, err)
        if not err <= ORACLE_TOL_DB:
            problems.append(
                f"gain_map.csv theta={key[0]} phi={key[1]}: {got!r} dB, oracle {w!r} dB"
            )
    return idx.size, worst, problems


def check_outputs(out_dir, workload: Workload, inputs: Inputs) -> tuple:
    """(problems, notes) for the outputs in out_dir."""
    problems = check_summary(out_dir, workload)
    notes = []
    if workload.uniform_points is None:
        sampled, worst, oracle_problems = check_oracle(out_dir, workload, inputs)
        problems += oracle_problems
        notes.append(f"oracle: {sampled} directions, max |error| {worst:.3g} dB")
    return problems, notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = Workload.from_json(args.workload_json)
    problems, notes = check_outputs(args.out, workload, make_inputs(workload, args.seed))
    print(json.dumps({"problems": problems, "notes": notes}))


if __name__ == "__main__":
    main()
