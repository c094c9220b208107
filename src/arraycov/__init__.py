"""arraycov: phased-array pattern synthesis and spherical-coverage statistics.

Library layout (import each name from its module, e.g.
``from arraycov.pattern import load_pattern_csv``):
  grid          spherical sampling grids with solid-angle weights
  pattern       polarimetric per-feed far-field patterns and resampling
  patterncache  the cache entry that lets a pattern CSV skip its parse
  deembed       per-feed loss estimation and correction
  synth         quantized-phase weight enumeration and array synthesis
  kernels       the fused synthesize-and-maximize reduction
  coverage      max realized gain, coverage CDF, percentiles, comparisons
  materials     permittivity records and multilayer reflection
  ioutil        CSV and JSON I/O, typed config values, ConfigError, ParseError
  svgplot       deterministic SVG line plots
  cli           batch front end (console script: arraycov)

This file imports nothing, so ``import arraycov`` loads no numpy and
the command line can choose the BLAS thread count before numpy starts.
"""

__version__ = "0.1.0"
