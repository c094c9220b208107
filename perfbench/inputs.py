"""Seeded inputs of a benchmark workload.

    python3 perfbench/inputs.py --workload-json '{...}' --seed 100 --dir DIR

writes DIR/elements.csv, DIR/losses.csv and the run config DIR/run.json,
whose output directory is DIR/out. The patterns use the generator of
acceptance test c10 (standard complex Gaussian per feed, direction and
polarization). The files are written here, not by the package, so that a
change to the package's CSV writer cannot change what the benchmark
feeds it.
"""

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

from workloads import FEEDS, GROUPS, LEVELS, WINDOW_HALFWIDTH_DEG, Workload

PATTERN_FILE = "elements.csv"
LOSS_FILE = "losses.csv"
CONFIG_FILE = "run.json"
OUTPUT_DIR = "out"


@dataclass(frozen=True)
class Inputs:
    """Generated inputs held in memory for the oracle."""

    theta_deg: np.ndarray  # (n_dir,) native grid order, poles stored once
    phi_deg: np.ndarray
    gains: np.ndarray  # complex (n_feeds, n_dir, 2)
    loss_db: np.ndarray  # (n_feeds,)


def regular_directions(theta_step_deg, phi_step_deg):
    """The regular lattice in the order the package stores it."""
    n_theta = round(180.0 / theta_step_deg)
    n_phi = round(360.0 / phi_step_deg)
    t_step = 180.0 / n_theta
    p_step = 360.0 / n_phi
    thetas, phis = [0.0], [0.0]
    for i in range(1, n_theta):
        thetas.extend([i * t_step] * n_phi)
        phis.extend(j * p_step for j in range(n_phi))
    thetas.append(n_theta * t_step)
    phis.append(0.0)
    return np.array(thetas), np.array(phis)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    theta, phi = regular_directions(workload.theta_step_deg, workload.phi_step_deg)
    rng = np.random.default_rng(seed)
    shape = (len(FEEDS), theta.size, 2)
    gains = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    loss_db = rng.uniform(10.0, 15.0, size=len(FEEDS))
    return Inputs(theta, phi, gains, loss_db)


def write_inputs(inputs: Inputs, directory) -> tuple:
    """Write the pattern and loss CSVs; returns their paths.

    Floats go through repr, the shortest string that parses back to the
    same double, so the package reads exactly the arrays the oracle uses.
    """
    pattern_path = os.path.join(directory, PATTERN_FILE)
    loss_path = os.path.join(directory, LOSS_FILE)
    theta = inputs.theta_deg.tolist()
    phi = inputs.phi_deg.tolist()
    with open(pattern_path, "w") as fh:
        fh.write("feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi\n")
        for fi, feed in enumerate(FEEDS):
            g = inputs.gains[fi]
            cols = zip(theta, phi, g[:, 0].real.tolist(), g[:, 0].imag.tolist(),
                       g[:, 1].real.tolist(), g[:, 1].imag.tolist())
            fh.writelines(f"{feed},{','.join(map(repr, row))}\n" for row in cols)
    with open(loss_path, "w") as fh:
        fh.write("feed,loss_db,window_halfwidth_deg\n")
        for feed, loss in zip(FEEDS, inputs.loss_db.tolist()):
            fh.write(f"{feed},{loss!r},{WINDOW_HALFWIDTH_DEG!r}\n")
    return pattern_path, loss_path


def write_config(workload: Workload, pattern_path, loss_path, output_dir, path) -> None:
    config = {
        "pattern": pattern_path,
        "loss_table": loss_path,
        "plan": {
            "bits": workload.bits,
            "sub_arrays": [
                {"label": f"s{i}", "feeds": [FEEDS[j] for j in g]}
                for i, g in enumerate(GROUPS)
            ],
        },
        "levels": list(LEVELS),
        "output_dir": output_dir,
    }
    if workload.uniform_points is not None:
        config["coverage_grid"] = {"kind": "uniform-sphere", "points": workload.uniform_points}
    if workload.cut_thetas_deg:
        config["cut_thetas_deg"] = list(workload.cut_thetas_deg)
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workload = Workload.from_json(args.workload_json)
    directory = os.path.abspath(args.dir)
    pattern_path, loss_path = write_inputs(make_inputs(workload, args.seed), directory)
    write_config(workload, pattern_path, loss_path, os.path.join(directory, OUTPUT_DIR),
                 os.path.join(directory, CONFIG_FILE))


if __name__ == "__main__":
    main()
