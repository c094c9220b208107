"""arraycov: phased-array pattern synthesis and spherical-coverage statistics.

Library layout:
  grid       spherical sampling grids with solid-angle weights
  pattern    polarimetric per-feed far-field patterns and resampling
  deembed    per-feed loss estimation and correction
  synth      quantized-phase weight enumeration and array synthesis
  coverage   max realized gain, coverage CDF, percentiles, comparisons
  materials  permittivity records and multilayer reflection
  cli        batch front end (console script: arraycov)

The public names below are imported from their module on first use
(PEP 562), so ``import arraycov`` loads no numpy and the command line
can choose the BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it exports
_EXPORTS = {
    "coverage": "CoverageResult GainMap coverage_cdf load_cdf_csv "
    "mae_per_theta_cut max_gain_over_plan percentile_gain save_cdf_csv "
    "save_gainmap_csv",
    "deembed": "BeamWindow PortLossTable apply_losses estimate_losses load_loss_csv "
    "save_loss_csv",
    "errors": "ArraycovError CapacityError ConfigError EstimationError "
    "MaterialRangeError ParseError",
    "grid": "Direction SphericalGrid make_regular_grid make_uniform_sphere_grid",
    "materials": "AIR Layer LayerStack MaterialRecord builtin_material "
    "layered_reflection load_material_csv penetration_depth_mm permittivity_at "
    "reflection_db skin_thickness_delta",
    "pattern": "ElementPatternSet load_pattern_csv resample save_pattern_csv",
    "synth": "SubArraySpec SynthesisPlan SynthesizedPattern WeightVector "
    "enumerate_weights plan_from_config synthesize",
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
