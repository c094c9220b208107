"""Batch command-line front end.

One subcommand per pipeline stage (grid, deembed, synth, coverage,
compare, reflect), all driven by a single JSON config file plus a few
override flags. Outputs are deterministic: identical inputs and config
produce byte-identical files, so runs can be diffed.

Exit codes: 0 on success; EXIT_CODES maps each error to its code.
"""

import argparse
import atexit
import gc
import json
import math
import os
import sys

# OpenBLAS's idle threads busy-wait: on 2 cores a second thread added
# about 0.4 s of CPU to a 4-bit coverage run and took no wall time off it
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import coverage as cov
from . import pattern, svgplot, synth
from .errors import (
    CapacityError,
    ConfigError,
    EstimationError,
    MaterialRangeError,
    ParseError,
)
from .grid import (
    Direction,
    make_regular_grid,
    make_uniform_sphere_grid,
    regular_ring_structure,
    save_grid_csv,
)
from .ioutil import config_value, format_float, write_csv, write_json
from .kernels import synthesize_fields

EXIT_OK = 0

# (exception types, exit code, label); main reports an error by the first
# row that matches it and re-raises one that no row matches
EXIT_CODES = (
    (ParseError, 3, "parse error"),
    ((EstimationError, MaterialRangeError, ArithmeticError), 4, "numeric error"),
    ((ConfigError, CapacityError, FileNotFoundError, KeyError, TypeError, ValueError),
     2, "configuration error"),
)

DEFAULT_LEVELS = (0.1, 0.5)

# most points a frequencies_ghz sweep may ask for
MAX_SWEEP_POINTS = 100_000


def _load_config(path):
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _input_file(config, key):
    path = config_value(config, key, "str")
    if not os.path.isfile(path):
        raise ConfigError(f"config key {key!r} must name an existing file, got {path!r}")
    return path


def _output_dir(config):
    out = config_value(config, "output_dir", "str")
    if not out:
        raise ConfigError(f"output_dir must be a non-empty path, got {out!r}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out!r}: {exc.strerror}") from exc
    return out


def _build_grid(config, key):
    spec = config_value(config, key, "object")
    kind = config_value(spec, "kind", "str")
    if kind == "regular":
        return make_regular_grid(
            config_value(spec, "theta_step_deg", "number"),
            config_value(spec, "phi_step_deg", "number"),
        )
    if kind == "uniform-sphere":
        return make_uniform_sphere_grid(config_value(spec, "points", "int"))
    raise ConfigError(f"unknown {key} kind {kind!r}")


def _levels(config):
    levels = config_value(config, "levels", "number list", list(DEFAULT_LEVELS))
    if not levels or not all(0.0 < p < 1.0 for p in levels):
        raise ConfigError(f"levels must be a non-empty list in (0, 1), got {levels}")
    return levels


def _windows(config, feeds):
    from . import deembed

    spec = config_value(config, "windows", "object")
    default_hw = config_value(
        config, "window_halfwidth_deg", "number", deembed.DEFAULT_WINDOW_HALFWIDTH_DEG
    )
    windows = {}
    for feed in feeds:
        if feed not in spec:
            raise ConfigError(f"no beam window configured for feed {feed!r}")
        entry = config_value(spec, feed, "object")
        theta = config_value(entry, "center_theta_deg", "number")
        phi = config_value(entry, "center_phi_deg", "number", 0.0)
        half_width = config_value(entry, "half_width_deg", "number", default_hw)
        try:
            windows[feed] = deembed.BeamWindow(Direction(theta, phi), half_width)
        except ValueError as exc:
            raise ConfigError(f"window for feed {feed!r}: {exc}") from exc
    return windows


def _material(spec, key, what, default=None):
    """The material a builtin name or a {"path", "name"} object names."""
    from . import materials

    ref = config_value(spec, key, ("str", "object"), default)
    if isinstance(ref, str):
        try:
            return materials.builtin_material(ref)
        except KeyError:
            raise ConfigError(f"{what}: no builtin material {ref!r}") from None
    path = config_value(ref, "path", "str")
    if not os.path.isfile(path):
        raise ConfigError(f"{what}: material file not found: {path}")
    return materials.load_material_csv(path, name=config_value(ref, "name", "str", None))


def _stack(config):
    from . import materials

    spec = config_value(config, "stack", "object")
    entries = config_value(spec, "layers", "object list")
    if not entries:
        raise ConfigError("stack layers must be a non-empty list")
    layers = []
    for i, entry in enumerate(entries):
        material = _material(entry, "material", f"stack layer {i}")
        thickness = config_value(entry, "thickness_mm", "number")
        try:
            layers.append(materials.Layer(material, thickness))
        except ValueError as exc:
            raise ConfigError(f"stack layer {i}: {exc}") from exc
    return materials.LayerStack(
        tuple(layers),
        incident=_material(spec, "incident", "stack incident medium", "air"),
        substrate=_material(spec, "substrate", "stack substrate", "air"),
    )


def _frequencies(config):
    spec = config_value(config, "frequencies_ghz", ("number list", "object"))
    if isinstance(spec, list):
        if not spec:
            raise ConfigError("frequencies_ghz must be a non-empty list")
        return spec
    start, stop, step = (config_value(spec, k, "number") for k in ("start", "stop", "step"))
    if step <= 0.0 or stop < start:
        raise ConfigError(f"bad frequencies_ghz sweep: start={start} stop={stop} step={step}")
    span = (stop - start) / step
    if not math.isfinite(span) or round(span) >= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"frequencies_ghz sweep start={start} stop={stop} step={step} "
            f"has more than {MAX_SWEEP_POINTS} points"
        )
    return [start + i * step for i in range(round(span) + 1)]


def _load_pattern_input(config):
    path = _input_file(config, "pattern")
    pattern_set = pattern.load_pattern_csv(path)
    if "loss_table" in config:
        from . import deembed
        table = deembed.load_loss_csv(_input_file(config, "loss_table"))
        try:
            pattern_set = deembed.apply_losses(pattern_set, table)
        except KeyError as exc:
            raise ConfigError(
                f"loss_table does not cover the pattern feeds: {exc.args[0]}"
            ) from exc
    return pattern_set


def cmd_grid(config) -> int:
    grid = _build_grid(config, "grid")
    out = _output_dir(config)
    save_grid_csv(grid, os.path.join(out, "grid.csv"))
    write_json(
        os.path.join(out, "grid.json"),
        {
            "kind": grid.kind,
            "points": len(grid),
            "weight_sum_sr": grid.weight_sum,
            "theta_step_deg": grid.theta_step_deg,
            "phi_step_deg": grid.phi_step_deg,
        },
    )
    return EXIT_OK


def cmd_deembed(config) -> int:
    from . import deembed

    simulated = pattern.load_pattern_csv(_input_file(config, "simulated"))
    measured = pattern.load_pattern_csv(_input_file(config, "measured"))
    windows = _windows(config, simulated.feeds)
    table = deembed.estimate_losses(
        simulated,
        measured,
        windows,
        floor_db=config_value(config, "floor_db", "number", deembed.DEFAULT_FLOOR_DB),
        linear_mean=config_value(config, "linear_mean", "bool", False),
    )
    out = _output_dir(config)
    deembed.save_loss_csv(table, os.path.join(out, "losses.csv"))
    return EXIT_OK


def _plan(config, pattern_set):
    return synth.plan_from_config(config_value(config, "plan", "object"), pattern_set.feeds)


def cmd_synth(config) -> int:
    pattern_set = _load_pattern_input(config)
    plan = _plan(config, pattern_set)
    dump = config_value(config, "dump_realizations", "bool", False)
    out = _output_dir(config)
    write_json(
        os.path.join(out, "realizations.json"),
        {
            "bits": plan.bits,
            "total": plan.realization_count,
            "sub_arrays": [
                {
                    "label": spec.label,
                    "feeds": [pattern_set.feeds[i] for i in spec.feed_indices],
                    "weights": synth.weight_count(spec.size, plan.bits),
                }
                for spec in plan.sub_arrays
            ],
        },
    )
    if dump:
        _dump_realizations(pattern_set, plan, os.path.join(out, "realizations.csv"))
    return EXIT_OK


def _dump_realizations(pattern_set, plan, path) -> None:
    # pattern CSV shape with the feed column renamed; meant for small plans
    rids, fields = [], []
    for spec in plan.sub_arrays:
        elem = synth.element_gains(pattern_set, spec)
        fields.append(synthesize_fields(elem, synth.enumerate_weights(spec, plan.bits)))
        rids += [f"{spec.label}/{k}" for k in range(len(fields[-1]))]
    columns = pattern.pattern_csv_columns(
        rids, pattern_set.grid, np.concatenate(fields)
    )
    write_csv(path, ["realization_id"] + pattern.PATTERN_CSV_HEADER[1:], columns)


def cmd_coverage(config) -> int:
    pattern_set = _load_pattern_input(config)
    plan = _plan(config, pattern_set)
    levels = _levels(config)
    weighting = config_value(config, "weighting", "str", cov.WEIGHTING_SOLID_ANGLE)
    cut_thetas = config_value(config, "cut_thetas_deg", "number list", [])

    if "coverage_grid" in config:
        pattern_set = pattern.resample(pattern_set, _build_grid(config, "coverage_grid"))
    cov.direction_weights(pattern_set.grid, weighting)  # fail before the kernel runs
    gain_map = cov.max_gain_over_plan(pattern_set, plan)
    result = cov.coverage_cdf(gain_map, weighting=weighting)
    percentiles = {format_float(p): cov.percentile_gain(result, p) for p in levels}
    cuts = [(theta, _extract_cut(gain_map, theta)) for theta in cut_thetas]

    out = _output_dir(config)
    cov.save_gainmap_csv(gain_map, os.path.join(out, "gain_map.csv"))
    cov.save_cdf_csv(result, os.path.join(out, "cdf.csv"))
    write_json(
        os.path.join(out, "summary.json"),
        {
            "realizations": plan.realization_count,
            "bits": plan.bits,
            "grid_points": len(gain_map.grid),
            "grid_kind": gain_map.grid.kind,
            "weighting": weighting,
            "peak_gain_db": result.peak_gain_db,
            "median_gain_db": cov.percentile_gain(result, 0.5),
            "percentile_gain_db": percentiles,
        },
    )
    svgplot.line_plot(
        os.path.join(out, "cdf.svg"),
        "coverage",
        result.gain_db,
        result.cdf,
        title="Spherical coverage",
        xlabel="max realized gain [dB]",
        ylabel="CDF",
    )
    for theta, (phis, gains_db) in cuts:
        svgplot.line_plot(
            os.path.join(out, f"cut_theta_{theta:g}.svg"),
            f"theta={theta:g}",
            phis,
            gains_db,
            title="Max realized gain cut",
            xlabel="phi [deg]",
            ylabel="gain [dB]",
        )
    return EXIT_OK


def _extract_cut(gain_map, theta_deg):
    if not gain_map.grid.is_regular:
        raise ConfigError("cut_thetas_deg requires a regular coverage grid")
    ring_thetas, rings = regular_ring_structure(gain_map.grid)
    match = np.nonzero(np.isclose(ring_thetas, theta_deg, rtol=0.0, atol=1e-9))[0]
    if match.size == 0:
        raise ConfigError(f"cut_thetas_deg: no theta ring at {theta_deg} degrees")
    idx = rings[match[0]]
    gain_db = gain_map.gain_db()
    return gain_map.grid.phi_deg[idx], gain_db[idx]


def cmd_compare(config) -> int:
    result_a = cov.load_cdf_csv(_input_file(config, "cdf_a"))
    result_b = cov.load_cdf_csv(_input_file(config, "cdf_b"))
    levels = _levels(config)
    deltas = cov.compare_cdfs(result_a, result_b, levels)
    rows = [
        (p, cov.percentile_gain(result_a, p), cov.percentile_gain(result_b, p), d)
        for p, d in zip(levels, deltas)
    ]
    out = _output_dir(config)
    write_csv(
        os.path.join(out, "compare.csv"),
        ["level", "gain_a_db", "gain_b_db", "delta_db"],
        list(zip(*rows)),
    )
    write_json(
        os.path.join(out, "compare.json"),
        {
            "levels": {format_float(p): {"a_db": a, "b_db": b, "delta_db": d}
                       for p, a, b, d in rows},
            "peak_delta_db": result_a.peak_gain_db - result_b.peak_gain_db,
        },
    )
    return EXIT_OK


def cmd_reflect(config) -> int:
    from . import materials

    stack = _stack(config)
    freqs = _frequencies(config)
    incidence = config_value(config, "incidence_deg", "number", 0.0)
    polarization = config_value(config, "polarization", "str", materials.POL_TE)
    extrapolate = config_value(config, "extrapolate", "bool", False)
    rows = []
    for f in freqs:
        gamma = materials.layered_reflection(
            stack, f, incidence, polarization, extrapolate=extrapolate
        )
        rows.append((f, gamma.real, gamma.imag, materials.reflection_db(gamma)))
    out = _output_dir(config)
    write_csv(
        os.path.join(out, "reflection.csv"),
        ["frequency_ghz", "re_gamma", "im_gamma", "gamma_db"],
        list(zip(*rows)),
    )
    return EXIT_OK


# subcommand: (function, the override flags it reads)
_COMMANDS = {
    "grid": (cmd_grid, ("--grid-points",)),
    "deembed": (cmd_deembed, ()),
    "synth": (cmd_synth, ("--bits",)),
    "coverage": (cmd_coverage, ("--bits", "--grid-points", "--levels")),
    "compare": (cmd_compare, ("--levels",)),
    "reflect": (cmd_reflect, ()),
}


def _parse_levels_flag(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}") from None


_OVERRIDE_FLAGS = {
    "--bits": (int, "override phase-shifter bit depth"),
    "--grid-points": (int, "override: use a uniform-sphere grid with this target count"),
    "--levels": (_parse_levels_flag, "override percentile levels, comma separated"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraycov",
        description="Phased-array spherical-coverage evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        for flag in flags:
            kind, text = _OVERRIDE_FLAGS[flag]
            p.add_argument(flag, type=kind, help=text)
    return parser


def _apply_overrides(config, args):
    if getattr(args, "bits", None) is not None:
        config["plan"] = {**config_value(config, "plan", "object", {}), "bits": args.bits}
    if getattr(args, "grid_points", None) is not None:
        key = "grid" if args.command == "grid" else "coverage_grid"
        config[key] = {"kind": "uniform-sphere", "points": args.grid_points}
    if getattr(args, "levels", None) is not None:
        config["levels"] = args.levels


def main(argv=None) -> int:
    if argv is None:
        # Run as the program. The interpreter's final collections would
        # walk every object still alive, nearly all of them numpy's and
        # arraycov's module-level cycles, whose memory the OS takes back
        # anyway: 30-40 ms of a coverage run's exit on a 2-core x86 box.
        # Freezing them from an exit hook skips that; a caller that passes
        # argv keeps its GC.
        atexit.unregister(gc.freeze)  # one hook, however often main runs
        atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        _apply_overrides(config, args)
        return _COMMANDS[args.command][0](config)
    except Exception as exc:
        for types, code, label in EXIT_CODES:
            if isinstance(exc, types):
                print(f"arraycov: {label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
