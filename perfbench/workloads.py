"""The benchmark's workloads.

Every workload uses the phone-array layout of acceptance test c10: eight
feeds with complex-Gaussian polarimetric patterns on a regular
theta/phi grid, a per-feed loss table, and four overlapping four-feed
sub-arrays (see inputs.py). This module imports no numpy, so that the
process that launches and measures the command line stays small: a
child's ``ru_maxrss`` starts at its parent's high-water mark.
"""

import json
from dataclasses import asdict, dataclass

FEEDS = tuple(f"f{i}" for i in range(8))
GROUPS = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7))
LEVELS = (0.1, 0.5)
WINDOW_HALFWIDTH_DEG = 60.0

DEFAULT_SEED = 100  # the seed of acceptance test c10; recorded numbers use it
HOLDOUT_SEED = 101  # kept out of tuning; a gain claim must also hold on it


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json gives the reason for each."""

    name: str
    bits: int
    theta_step_deg: float
    phi_step_deg: float
    # target count of a uniform-sphere coverage grid, None for the native grid
    uniform_points: int | None
    # direction count the CLI must report in summary.json
    grid_points: int
    cut_thetas_deg: tuple = ()

    @property
    def realizations(self) -> int:
        return sum(2 ** (self.bits * (len(g) - 1)) for g in GROUPS)

    @property
    def output_files(self) -> tuple:
        cuts = tuple(f"cut_theta_{t:g}.svg" for t in self.cut_thetas_deg)
        return ("gain_map.csv", "cdf.csv", "summary.json", "cdf.svg") + cuts

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text) -> "Workload":
        fields = json.loads(text)
        fields["cut_thetas_deg"] = tuple(fields["cut_thetas_deg"])
        return cls(**fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "phone_full",
            bits=3,
            theta_step_deg=1.0,
            phi_step_deg=10.0,
            uniform_points=None,
            grid_points=6446,
            cut_thetas_deg=(90,),
        ),
        Workload(
            "phone_uniform301",
            bits=3,
            theta_step_deg=1.0,
            phi_step_deg=10.0,
            uniform_points=301,
            grid_points=304,
        ),
        Workload(
            "codebook_bits4",
            bits=4,
            theta_step_deg=1.0,
            phi_step_deg=10.0,
            uniform_points=None,
            grid_points=6446,
            cut_thetas_deg=(90,),
        ),
    )
}
