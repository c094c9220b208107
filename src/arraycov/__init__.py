"""arraycov: phased-array pattern synthesis and spherical-coverage statistics.

Library layout:
  grid       spherical sampling grids with solid-angle weights
  pattern    polarimetric per-feed far-field patterns and resampling
  deembed    per-feed loss estimation and correction
  synth      quantized-phase weight enumeration and array synthesis
  coverage   max realized gain, coverage CDF, percentiles, comparisons
  materials  permittivity records and multilayer reflection
  cli        batch front end (console script: arraycov)
"""

from .coverage import (
    CoverageResult,
    GainMap,
    compare_cdfs,
    coverage_cdf,
    load_cdf_csv,
    mae_per_theta_cut,
    max_gain_over_plan,
    percentile_gain,
    save_cdf_csv,
    save_gainmap_csv,
)
from .deembed import (
    BeamWindow,
    PortLossTable,
    apply_losses,
    estimate_losses,
    load_loss_csv,
    save_loss_csv,
)
from .errors import (
    ArraycovError,
    CapacityError,
    ConfigError,
    EstimationError,
    MaterialRangeError,
    ParseError,
)
from .grid import (
    Direction,
    SphericalGrid,
    load_grid_csv,
    make_regular_grid,
    make_uniform_sphere_grid,
    save_grid_csv,
)
from .materials import (
    AIR,
    Layer,
    LayerStack,
    MaterialRecord,
    builtin_material,
    layered_reflection,
    load_material_csv,
    penetration_depth_mm,
    permittivity_at,
    reflection_db,
    skin_thickness_delta,
)
from .pattern import (
    ElementPatternSet,
    load_pattern_csv,
    resample,
    save_pattern_csv,
)
from .synth import (
    SubArraySpec,
    SynthesisPlan,
    SynthesizedPattern,
    WeightVector,
    enumerate_weights,
    plan_from_config,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AIR",
    "ArraycovError",
    "BeamWindow",
    "CapacityError",
    "ConfigError",
    "CoverageResult",
    "Direction",
    "ElementPatternSet",
    "EstimationError",
    "GainMap",
    "Layer",
    "LayerStack",
    "MaterialRangeError",
    "MaterialRecord",
    "ParseError",
    "PortLossTable",
    "SphericalGrid",
    "SubArraySpec",
    "SynthesisPlan",
    "SynthesizedPattern",
    "WeightVector",
    "apply_losses",
    "builtin_material",
    "compare_cdfs",
    "coverage_cdf",
    "enumerate_weights",
    "estimate_losses",
    "layered_reflection",
    "load_cdf_csv",
    "load_grid_csv",
    "load_loss_csv",
    "load_material_csv",
    "load_pattern_csv",
    "mae_per_theta_cut",
    "make_regular_grid",
    "make_uniform_sphere_grid",
    "max_gain_over_plan",
    "penetration_depth_mm",
    "percentile_gain",
    "permittivity_at",
    "plan_from_config",
    "reflection_db",
    "resample",
    "save_cdf_csv",
    "save_gainmap_csv",
    "save_grid_csv",
    "save_loss_csv",
    "save_pattern_csv",
    "skin_thickness_delta",
    "synthesize",
]
