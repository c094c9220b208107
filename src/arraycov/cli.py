"""Batch command-line front end.

One subcommand per pipeline stage (grid, deembed, synth, coverage,
compare, reflect), all driven by a single JSON config file plus a few
override flags. Outputs are deterministic: identical inputs and config
produce byte-identical files, so runs can be diffed.

Exit codes: 0 success, 2 configuration error, 3 input-data parse
error, 4 numeric/estimation error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import coverage as cov
from . import deembed, materials, pattern, svgplot, synth
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
from .ioutil import format_float, write_csv, write_json
from .kernels import synthesize_fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

DEFAULT_LEVELS = (0.1, 0.5)


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


def _require(config, key):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _input_file(config, key):
    path = _require(config, key)
    if not isinstance(path, str) or not os.path.isfile(path):
        raise ConfigError(f"config key {key!r} must name an existing file, got {path!r}")
    return path


def _output_dir(config):
    out = _require(config, "output_dir")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"output_dir must be a non-empty path, got {out!r}")
    os.makedirs(out, exist_ok=True)
    return out


def _build_grid(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"grid spec must be an object with a kind, got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "regular":
            return make_regular_grid(
                _require(spec, "theta_step_deg"), _require(spec, "phi_step_deg")
            )
        if kind == "uniform-sphere":
            return make_uniform_sphere_grid(_require(spec, "points"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown grid kind {kind!r}")


def _levels(config):
    levels = config.get("levels", list(DEFAULT_LEVELS))
    if not isinstance(levels, list) or not levels:
        raise ConfigError(f"levels must be a non-empty list, got {levels!r}")
    out = []
    for p in levels:
        p = float(p)
        if not (0.0 < p < 1.0):
            raise ConfigError(f"percentile levels must be in (0, 1), got {p}")
        out.append(p)
    return out


def _windows(config, feeds):
    spec = _require(config, "windows")
    if not isinstance(spec, dict):
        raise ConfigError("windows must map feed labels to window objects")
    default_hw = float(config.get("window_halfwidth_deg", deembed.DEFAULT_WINDOW_HALFWIDTH_DEG))
    windows = {}
    for feed in feeds:
        if feed not in spec:
            raise ConfigError(f"no beam window configured for feed {feed!r}")
        entry = spec[feed]
        if not isinstance(entry, dict) or "center_theta_deg" not in entry:
            raise ConfigError(f"window for feed {feed!r} needs center_theta_deg")
        try:
            center = Direction(
                float(entry["center_theta_deg"]),
                float(entry.get("center_phi_deg", 0.0)),
            )
            windows[feed] = deembed.BeamWindow(
                center, float(entry.get("half_width_deg", default_hw))
            )
        except ValueError as exc:
            raise ConfigError(f"window for feed {feed!r}: {exc}") from exc
    return windows


def _material(ref, what):
    if isinstance(ref, str):
        try:
            return materials.builtin_material(ref)
        except KeyError:
            raise ConfigError(f"{what}: no builtin material {ref!r}") from None
    if isinstance(ref, dict) and "path" in ref:
        path = ref["path"]
        if not os.path.isfile(path):
            raise ConfigError(f"{what}: material file not found: {path}")
        return materials.load_material_csv(path, name=ref.get("name"))
    raise ConfigError(f"{what} must be a builtin name or an object with a path")


def _stack(config):
    spec = _require(config, "stack")
    if not isinstance(spec, dict) or "layers" not in spec or not spec["layers"]:
        raise ConfigError("stack must be an object with a non-empty layers list")
    layers = []
    for i, entry in enumerate(spec["layers"]):
        if not isinstance(entry, dict) or "material" not in entry:
            raise ConfigError(f"stack layer {i} needs material and thickness_mm")
        try:
            layers.append(
                materials.Layer(
                    _material(entry["material"], f"stack layer {i}"),
                    float(_require(entry, "thickness_mm")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"stack layer {i}: {exc}") from exc
    return materials.LayerStack(
        tuple(layers),
        incident=_material(spec.get("incident", "air"), "stack incident medium"),
        substrate=_material(spec.get("substrate", "air"), "stack substrate"),
    )


def _frequencies(config):
    spec = _require(config, "frequencies_ghz")
    if isinstance(spec, list) and spec:
        return [float(f) for f in spec]
    if isinstance(spec, dict):
        start = float(_require(spec, "start"))
        stop = float(_require(spec, "stop"))
        step = float(_require(spec, "step"))
        if step <= 0.0 or stop < start:
            raise ConfigError(f"bad frequency sweep: start={start} stop={stop} step={step}")
        count = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(count)]
    raise ConfigError("frequencies_ghz must be a list or a start/stop/step object")


def _load_pattern_input(config):
    path = _input_file(config, "pattern")
    pattern_set = pattern.load_pattern_csv(path)
    if "loss_table" in config:
        table = deembed.load_loss_csv(_input_file(config, "loss_table"))
        try:
            pattern_set = deembed.apply_losses(pattern_set, table)
        except KeyError as exc:
            raise ConfigError(
                f"loss table does not cover the pattern feeds: {exc}"
            ) from exc
    return pattern_set


def cmd_grid(config) -> int:
    grid = _build_grid(_require(config, "grid"))
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
    simulated = pattern.load_pattern_csv(_input_file(config, "simulated"))
    measured = pattern.load_pattern_csv(_input_file(config, "measured"))
    windows = _windows(config, simulated.feeds)
    floor_db = float(config.get("floor_db", deembed.DEFAULT_FLOOR_DB))
    table = deembed.estimate_losses(
        simulated,
        measured,
        windows,
        floor_db=floor_db,
        linear_mean=bool(config.get("linear_mean", False)),
    )
    out = _output_dir(config)
    deembed.save_loss_csv(table, os.path.join(out, "losses.csv"))
    return EXIT_OK


def _plan(config, pattern_set):
    return synth.plan_from_config(_require(config, "plan"), pattern_set.feeds)


def cmd_synth(config) -> int:
    pattern_set = _load_pattern_input(config)
    plan = _plan(config, pattern_set)
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
    if config.get("dump_realizations", False):
        _dump_realizations(pattern_set, plan, os.path.join(out, "realizations.csv"))
    return EXIT_OK


def _dump_realizations(pattern_set, plan, path) -> None:
    # pattern CSV shape with the feed column renamed; meant for small plans
    rids, fields = [], []
    for spec in plan.sub_arrays:
        elem = pattern_set.gains[list(spec.feed_indices)]
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
    weighting = config.get("weighting", cov.WEIGHTING_SOLID_ANGLE)

    if "coverage_grid" in config:
        grid = _build_grid(config["coverage_grid"])
        if not grid.same_directions(pattern_set.grid):
            pattern_set = pattern.resample(pattern_set, grid)
    gain_map = cov.max_gain_over_plan(pattern_set, plan)
    try:
        result = cov.coverage_cdf(gain_map, weighting=weighting)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    percentiles = {format_float(p): cov.percentile_gain(result, p) for p in levels}

    cut_thetas = config.get("cut_thetas_deg", [])
    cuts = []
    for theta in cut_thetas:
        cuts.append((float(theta), _extract_cut(gain_map, float(theta))))

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
        [("coverage", result.gain_db, result.cdf)],
        title="Spherical coverage",
        xlabel="max realized gain [dB]",
        ylabel="CDF",
    )
    for theta, (phis, gains_db) in cuts:
        svgplot.line_plot(
            os.path.join(out, f"cut_theta_{theta:g}.svg"),
            [(f"theta={theta:g}", phis, gains_db)],
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
        raise ConfigError(f"no theta ring at {theta_deg} degrees")
    idx = rings[match[0]]
    gain_db = gain_map.gain_db()
    return gain_map.grid.phi_deg[idx], gain_db[idx]


def cmd_compare(config) -> int:
    result_a = cov.load_cdf_csv(_input_file(config, "cdf_a"))
    result_b = cov.load_cdf_csv(_input_file(config, "cdf_b"))
    levels = _levels(config)
    rows = []
    for p in levels:
        a = cov.percentile_gain(result_a, p)
        b = cov.percentile_gain(result_b, p)
        rows.append((p, a, b, a - b))
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
    stack = _stack(config)
    freqs = _frequencies(config)
    incidence = float(config.get("incidence_deg", 0.0))
    polarization = config.get("polarization", materials.POL_TE)
    extrapolate = bool(config.get("extrapolate", False))
    rows = []
    for f in freqs:
        try:
            gamma = materials.layered_reflection(
                stack, f, incidence, polarization, extrapolate=extrapolate
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows.append((f, gamma.real, gamma.imag, materials.reflection_db(gamma)))
    out = _output_dir(config)
    write_csv(
        os.path.join(out, "reflection.csv"),
        ["frequency_ghz", "re_gamma", "im_gamma", "gamma_db"],
        list(zip(*rows)),
    )
    return EXIT_OK


_COMMANDS = {
    "grid": cmd_grid,
    "deembed": cmd_deembed,
    "synth": cmd_synth,
    "coverage": cmd_coverage,
    "compare": cmd_compare,
    "reflect": cmd_reflect,
}


def _parse_levels_flag(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraycov",
        description="Phased-array spherical-coverage evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--bits", type=int, help="override phase-shifter bit depth")
        p.add_argument(
            "--grid-points",
            type=int,
            help="override: use a uniform-sphere grid with this target count",
        )
        p.add_argument(
            "--levels",
            type=_parse_levels_flag,
            help="override percentile levels, comma separated",
        )
    return parser


def _apply_overrides(config, args):
    if args.bits is not None:
        plan = config.setdefault("plan", {})
        if not isinstance(plan, dict):
            raise ConfigError("plan config must be an object")
        plan["bits"] = args.bits
    if args.grid_points is not None:
        spec = {"kind": "uniform-sphere", "points": args.grid_points}
        if args.command == "grid":
            config["grid"] = spec
        else:
            config["coverage_grid"] = spec
    if args.levels is not None:
        config["levels"] = args.levels


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        _apply_overrides(config, args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"arraycov: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"arraycov: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EstimationError, MaterialRangeError, ArithmeticError) as exc:
        print(f"arraycov: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CapacityError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"arraycov: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
