"""Whole `coverage` runs on small random inputs, byte for byte against an oracle.

The oracle is coded from the method, not from the package's coverage
path: its own phase lattice, the chunked synthesize-and-max loop of
tests/test_kernels.py, a solid-angle CDF over a stable sort with ties
grouped, and a writer that spells each number as repr does. Only the
grid (directions and solid angles) and the input files come from the
package.
"""

import itertools
import json
import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycov.cli import main
from arraycov.deembed import PortLossTable, save_loss_csv
from arraycov.grid import make_regular_grid
from arraycov.pattern import ElementPatternSet, save_pattern_csv
from test_kernels import reference_synth_max

# (theta_step_deg, phi_step_deg): 11 to 50 directions
STEPS = [(45.0, 120.0), (30.0, 90.0), (180.0 / 7, 360.0 / 7), (20.0, 60.0)]


def oracle_phasors(n, bits):
    """Every b-bit weight vector of n feeds, element 0 at phase 0, the last
    element's phase varying fastest, amplitude 1/sqrt(n)."""
    count = 2 ** (bits * (n - 1))
    codes = np.array(list(itertools.product(range(2**bits), repeat=n - 1)), dtype=float)
    phases = np.zeros((count, n))
    phases[:, 1:] = codes.reshape(count, n - 1) * (360.0 / 2**bits)
    return (1.0 / math.sqrt(n)) * np.exp(1j * np.radians(phases))


def oracle_cdf(gain_db, weight_sr):
    """Sorted distinct gains and the inclusive CDF of their solid angle.

    A tie group's weight is its first weight plus numpy's pairwise sum
    of the others, as np.add.reduceat sums a segment; the groups then
    accumulate one after another.
    """
    order = sorted(range(len(gain_db)), key=lambda i: gain_db[i])
    gains, weights = [], []
    for g, members in itertools.groupby(order, key=lambda i: gain_db[i]):
        w = [weight_sr[i] for i in members]
        gains.append(g)
        weights.append(w[0] + float(np.add.reduce(np.array(w[1:]))))
    cum, total = [], 0.0
    for w in weights:
        total += w
        cum.append(total)
    return gains, [c / cum[-1] for c in cum]


def oracle_percentile(gains, cdf, p):
    idx = next(i for i, c in enumerate(cdf) if c >= p)
    if idx == 0:
        return gains[0]
    if not math.isfinite(gains[idx - 1]):
        return gains[idx]
    c_lo, c_hi = cdf[idx - 1], cdf[idx]
    return gains[idx - 1] + (p - c_lo) / (c_hi - c_lo) * (gains[idx] - gains[idx - 1])


def cell(v):
    """v as repr spells it, with any exponent written out in full."""
    text = repr(float(v))
    if "e" not in text:
        return text
    digits = format(Decimal(text), "f")
    return digits if "." in digits else digits + ".0"


def csv_bytes(header, columns):
    rows = [",".join(header)] + [",".join(map(cell, row)) for row in zip(*columns)]
    return ("\r\n".join(rows) + "\r\n").encode()


def json_value(v):
    return v if math.isfinite(v) else cell(v)


@st.composite
def runs(draw):
    steps = draw(st.sampled_from(STEPS))
    n_feeds = draw(st.integers(1, 8))
    bits = draw(st.integers(1, 3))
    # up to 2^8 weight vectors per sub-array
    size = st.integers(1, min(n_feeds, 1 + 8 // bits))
    sub_arrays = draw(
        st.lists(
            size.flatmap(
                lambda n: st.permutations(range(n_feeds)).map(lambda p: tuple(p[:n]))
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "steps": steps,
        "n_feeds": n_feeds,
        "bits": bits,
        "sub_arrays": sub_arrays,
        "seed": draw(st.integers(0, 2**32 - 1)),
        # powers of ten the gains span, and their overall scale
        "spread": draw(st.sampled_from([0.0, 1.0, 3.0])),
        "scale": draw(st.sampled_from([1e-3, 1.0, 1e3])),
        # directions whose gains are zero for every feed, for one feed,
        # and copies of another direction's gains (ties in the gain map)
        "dead": draw(st.integers(0, 3)),
        "zero_feed": draw(st.integers(0, 3)),
        "copies": draw(st.integers(0, 12)),
        "negative_zero": draw(st.booleans()),
        "losses": draw(
            st.none()
            | st.lists(st.floats(-20.0, 20.0), min_size=n_feeds, max_size=n_feeds)
        ),
        "levels": draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3)),
    }


def random_gains(run, n_dir):
    rng = np.random.default_rng(run["seed"])
    shape = (run["n_feeds"], n_dir, 2)
    gains = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gains *= run["scale"] * 10.0 ** rng.uniform(-run["spread"], run["spread"], size=shape)
    gains[:, rng.integers(0, n_dir, size=run["dead"])] = 0.0
    for d in rng.integers(0, n_dir, size=run["zero_feed"]):
        gains[rng.integers(0, run["n_feeds"]), d] = 0.0
    src, dst = rng.integers(0, n_dir, size=(2, run["copies"]))
    gains[:, dst] = gains[:, src]
    if run["negative_zero"]:
        gains[gains == 0.0] = complex(-0.0, -0.0)
    return gains


@settings(max_examples=50, deadline=None)
@given(run=runs())
def test_coverage_run_matches_the_oracle_byte_for_byte(tmp_path_factory, run):
    tmp = tmp_path_factory.mktemp("run")
    grid = make_regular_grid(*run["steps"])
    feeds = tuple(f"f{i}" for i in range(run["n_feeds"]))
    gains = random_gains(run, len(grid))
    save_pattern_csv(ElementPatternSet(grid, feeds, gains), tmp / "elements.csv")
    config = {
        "pattern": str(tmp / "elements.csv"),
        "plan": {
            "bits": run["bits"],
            "sub_arrays": [
                {"label": f"s{k}", "feeds": [feeds[i] for i in sub]}
                for k, sub in enumerate(run["sub_arrays"])
            ],
        },
        "levels": run["levels"],
        "output_dir": str(tmp / "out"),
    }
    if run["losses"] is not None:
        losses = dict(zip(feeds, run["losses"]))
        save_loss_csv(PortLossTable(feeds, losses, dict.fromkeys(feeds, 5.0)), tmp / "l.csv")
        config["loss_table"] = str(tmp / "l.csv")
        factors = np.array([10.0 ** (loss / 20.0) for loss in run["losses"]])
        gains = gains * factors[:, None, None]
    (tmp / "run.json").write_text(json.dumps(config))
    assert main(["coverage", "--config", str(tmp / "run.json")]) == 0

    best_power, best_index = np.full(len(grid), -1.0), np.zeros(len(grid), dtype=np.int64)
    offset = 0
    for sub in run["sub_arrays"]:
        phasors = oracle_phasors(len(sub), run["bits"])
        reference_synth_max(gains[list(sub)], phasors, best_power, best_index, offset)
        offset += len(phasors)
    with np.errstate(divide="ignore"):
        gain_db = (10.0 * np.log10(best_power)).tolist()
    cdf_gains, cdf = oracle_cdf(gain_db, grid.weight_sr.tolist())
    summary = {
        "realizations": offset,
        "bits": run["bits"],
        "grid_points": len(grid),
        "grid_kind": "regular",
        "weighting": "solid-angle",
        "peak_gain_db": json_value(cdf_gains[-1]),
        "median_gain_db": json_value(oracle_percentile(cdf_gains, cdf, 0.5)),
        "percentile_gain_db": {
            repr(p): json_value(oracle_percentile(cdf_gains, cdf, p)) for p in run["levels"]
        },
    }

    out = tmp / "out"
    assert (out / "gain_map.csv").read_bytes() == csv_bytes(
        ["theta_deg", "phi_deg", "weight_sr", "gain_db"],
        [grid.theta_deg, grid.phi_deg, grid.weight_sr, gain_db],
    )
    assert (out / "cdf.csv").read_bytes() == csv_bytes(["gain_db", "cdf"], [cdf_gains, cdf])
    assert (out / "summary.json").read_text() == (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
