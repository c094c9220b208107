import atexit
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from arraycov import cli, patterncache
from arraycov.cli import main
from arraycov.coverage import CDF_CSV_HEADER, load_cdf_csv
from arraycov.deembed import LOSS_CSV_HEADER, load_loss_csv
from arraycov.errors import ParseError
from arraycov.grid import GRID_CSV_HEADER, load_grid_csv, make_regular_grid
from arraycov.ioutil import write_json
from arraycov.materials import MATERIAL_CSV_HEADER, load_material_csv
from arraycov.pattern import (
    PATTERN_CSV_HEADER,
    ElementPatternSet,
    load_pattern_csv,
    save_pattern_csv,
)

GRID = make_regular_grid(30.0, 90.0)


def smooth_pattern(feeds, seed=0):
    rng = np.random.default_rng(seed)
    n = len(GRID)
    base = 1.0 + 0.2 * np.cos(np.radians(GRID.theta_deg))
    gains = np.empty((len(feeds), n, 2), dtype=np.complex128)
    for i in range(len(feeds)):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, 2)))
        gains[i] = base[:, None] * phase
    return ElementPatternSet(GRID, tuple(feeds), gains)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    write_json(path, payload)
    return str(path)


def pattern_file(tmp_path, pset, name="pattern.csv"):
    path = tmp_path / name
    save_pattern_csv(pset, path)
    return str(path)


def test_grid_command(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "grid": {"kind": "regular", "theta_step_deg": 30.0, "phi_step_deg": 90.0},
            "output_dir": str(out),
        },
    )
    assert main(["grid", "--config", cfg]) == 0
    meta = json.loads((out / "grid.json").read_text())
    assert meta["kind"] == "regular"
    assert meta["points"] == len(GRID)
    assert meta["weight_sum_sr"] == pytest.approx(4 * math.pi)
    assert (out / "grid.csv").exists()


def test_deembed_command(tmp_path):
    losses = {"p1": 10.7, "p2": 10.4}
    sim = smooth_pattern(list(losses), seed=1)
    meas_gains = np.array(
        [sim.gains[i] * 10 ** (-losses[f] / 20) for i, f in enumerate(sim.feeds)]
    )
    meas = ElementPatternSet(GRID, sim.feeds, meas_gains)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "simulated": pattern_file(tmp_path, sim, "sim.csv"),
            "measured": pattern_file(tmp_path, meas, "meas.csv"),
            "windows": {
                f: {"center_theta_deg": 90.0, "center_phi_deg": 0.0} for f in losses
            },
            "output_dir": str(out),
        },
    )
    assert main(["deembed", "--config", cfg]) == 0
    rows = (out / "losses.csv").read_text().splitlines()
    assert rows[0] == "feed,loss_db,window_halfwidth_deg"
    got = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    for feed, expected in losses.items():
        assert got[feed] == pytest.approx(expected, abs=1e-9)


def coverage_config(tmp_path, out, extra=None, feeds=("f0", "f1"), seed=2):
    pset = smooth_pattern(list(feeds), seed=seed)
    payload = {
        "pattern": pattern_file(tmp_path, pset, "elements.csv"),
        "plan": {
            "bits": 2,
            "sub_arrays": [{"label": "s", "feeds": list(feeds)}],
        },
        "output_dir": str(out),
    }
    if extra:
        payload.update(extra)
    return write_config(tmp_path, payload)


def test_synth_command(tmp_path):
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"dump_realizations": True})
    assert main(["synth", "--config", cfg]) == 0
    manifest = json.loads((out / "realizations.json").read_text())
    assert manifest["bits"] == 2
    assert manifest["total"] == 4  # 2 elements, 2 bits: 2^(2*1)
    assert manifest["sub_arrays"][0]["feeds"] == ["f0", "f1"]
    lines = (out / "realizations.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * len(GRID)
    assert lines[1].startswith("s/0,")


def test_coverage_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"cut_thetas_deg": [90.0]})
    assert main(["coverage", "--config", cfg]) == 0
    for name in ("gain_map.csv", "cdf.csv", "summary.json", "cdf.svg",
                 "cut_theta_90.svg"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["realizations"] == 4
    assert summary["bits"] == 2
    assert summary["grid_points"] == len(GRID)
    assert summary["weighting"] == "solid-angle"
    assert set(summary["percentile_gain_db"]) == {"0.1", "0.5"}
    assert summary["median_gain_db"] <= summary["peak_gain_db"]


def test_coverage_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = coverage_config(tmp_path, out_a)
    assert main(["coverage", "--config", cfg_a]) == 0
    cfg_b = write_config(
        tmp_path,
        {**json.loads(Path(cfg_a).read_text()), "output_dir": str(out_b)},
        name="config_b.json",
    )
    assert main(["coverage", "--config", cfg_b]) == 0
    for name in ("gain_map.csv", "cdf.csv", "cdf.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa == sb


def test_pole_cut_charts_its_one_point_deterministically(tmp_path):
    # the theta=0 ring is one direction, so both axes of its chart have
    # an empty range
    charts = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = coverage_config(tmp_path, out, extra={"cut_thetas_deg": [0.0]})
        assert main(["coverage", "--config", cfg]) == 0
        charts.append((out / "cut_theta_0.svg").read_bytes())
    assert charts[0] == charts[1]
    assert b'<polyline points="343.00,204.00" ' in charts[0]


def test_coverage_bytes_do_not_depend_on_blas_threads(tmp_path):
    # c10's layout at a coarser grid: 8 feeds, 4 overlapping sub-arrays, 3 bits
    grid = make_regular_grid(2.0, 10.0)
    feeds = tuple(f"f{i}" for i in range(8))
    rng = np.random.default_rng(100)
    shape = (len(feeds), len(grid), 2)
    pset = ElementPatternSet(
        grid, feeds, rng.normal(size=shape) + 1j * rng.normal(size=shape)
    )
    groups = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)]
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text(
        "feed,loss_db,window_halfwidth_deg\n"
        + "".join(f"{f},{10.0 + i / 4},60.0\n" for i, f in enumerate(feeds))
    )
    base = {
        "pattern": pattern_file(tmp_path, pset),
        "loss_table": str(loss_path),
        "plan": {
            "bits": 3,
            "sub_arrays": [
                {"label": f"s{i}", "feeds": [feeds[j] for j in g]}
                for i, g in enumerate(groups)
            ],
        },
        "cut_thetas_deg": [90.0],
    }
    envs = {n: {**os.environ, "OPENBLAS_NUM_THREADS": n} for n in ("1", "2")}
    outputs = []
    for tag, env in envs.items():
        out = tmp_path / tag
        cfg = write_config(tmp_path, {**base, "output_dir": str(out)}, name=f"{tag}.json")
        proc = subprocess.run(
            [sys.executable, "-m", "arraycov.cli", "coverage", "--config", cfg],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    one, two = outputs
    assert sorted(one) == sorted(two)
    assert "gain_map.csv" in one and "cut_theta_90.svg" in one
    for name in one:
        assert one[name] == two[name], f"{name} differs between thread counts"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_child(code, env=None):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_arraycov_loads_no_numpy():
    # the command line sets the BLAS thread count before numpy loads
    code = (
        "import sys, arraycov; "
        "print('numpy' in sys.modules, arraycov.GainMap.__module__)"
    )
    assert run_child(code) == ["False", "arraycov.coverage"]


def test_every_public_name_resolves_to_its_module_object(monkeypatch):
    # the README's `from arraycov import ...` goes through the lazy lookup
    import arraycov

    for name in arraycov.__all__:
        monkeypatch.delitem(vars(arraycov), name, raising=False)
        module = importlib.import_module(f"arraycov.{arraycov._MODULE_OF[name]}")
        assert getattr(arraycov, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="has no attribute 'absent'"):
        arraycov.absent


@pytest.mark.parametrize("preset", [None, *BLAS_THREAD_VARS])
def test_cli_runs_one_blas_thread_unless_a_count_is_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset:
        env[preset] = "2"
    code = (
        "import os, arraycov.cli; "
        f"print(*(os.environ.get(k, '-') for k in {BLAS_THREAD_VARS!r}))"
    )
    expected = ["1" if preset is None else "-", "-", "-"]
    if preset:
        expected[BLAS_THREAD_VARS.index(preset)] = "2"
    assert run_child(code, env) == expected


def test_coverage_applies_loss_table(tmp_path):
    loss_db = 6.0
    out_plain = tmp_path / "plain"
    cfg_plain = coverage_config(
        tmp_path, out_plain, feeds=("f0",),
        extra={"plan": {"bits": 1, "sub_arrays": [{"label": "s", "feeds": ["f0"]}]}},
    )
    assert main(["coverage", "--config", cfg_plain]) == 0
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text(f"feed,loss_db,window_halfwidth_deg\nf0,{loss_db},60\n")
    out_boost = tmp_path / "boost"
    cfg_boost = write_config(
        tmp_path,
        {
            **json.loads(Path(cfg_plain).read_text()),
            "loss_table": str(loss_path),
            "output_dir": str(out_boost),
        },
        name="config_boost.json",
    )
    assert main(["coverage", "--config", cfg_boost]) == 0
    plain = json.loads((out_plain / "summary.json").read_text())
    boost = json.loads((out_boost / "summary.json").read_text())
    assert boost["peak_gain_db"] - plain["peak_gain_db"] == pytest.approx(
        loss_db, abs=1e-9
    )


def test_coverage_grid_resample(tmp_path):
    out = tmp_path / "out"
    cfg = coverage_config(
        tmp_path,
        out,
        extra={
            "coverage_grid": {
                "kind": "regular",
                "theta_step_deg": 15.0,
                "phi_step_deg": 45.0,
            }
        },
    )
    assert main(["coverage", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid_points"] == len(make_regular_grid(15.0, 45.0))


def test_levels_override(tmp_path):
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"levels": [0.2, 0.8]})
    assert main(["coverage", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["percentile_gain_db"]) == {"0.2", "0.8"}


def test_compare_command(tmp_path):
    out = tmp_path / "cov"
    cfg = coverage_config(tmp_path, out)
    assert main(["coverage", "--config", cfg]) == 0
    out_cmp = tmp_path / "cmp"
    cfg_cmp = write_config(
        tmp_path,
        {
            "cdf_a": str(out / "cdf.csv"),
            "cdf_b": str(out / "cdf.csv"),
            "levels": [0.1, 0.5, 0.9],
            "output_dir": str(out_cmp),
        },
        name="compare.json",
    )
    assert main(["compare", "--config", cfg_cmp]) == 0
    rows = (out_cmp / "compare.csv").read_text().splitlines()
    assert rows[0] == "level,gain_a_db,gain_b_db,delta_db"
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row.split(",")[3]) == 0.0
    report = json.loads((out_cmp / "compare.json").read_text())
    assert report["peak_delta_db"] == 0.0


def test_reflect_film(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "stack": {"layers": [{"material": "ldpe_film", "thickness_mm": 0.1}]},
            "frequencies_ghz": [28.0],
            "output_dir": str(out),
        },
    )
    assert main(["reflect", "--config", cfg]) == 0
    rows = (out / "reflection.csv").read_text().splitlines()
    assert rows[0] == "frequency_ghz,re_gamma,im_gamma,gamma_db"
    level = float(rows[1].split(",")[3])
    assert level == pytest.approx(-28.4, abs=0.3)


def test_reflect_reads_a_material_file(tmp_path):
    # a {"path", "name"} reference to a copy of a builtin gives its bytes
    film = tmp_path / "film.csv"
    film.write_text("frequency_ghz,eps_real,eps_imag\n28.0,2.3,0.0\n")
    for name, material in [("builtin", "ldpe_film"), ("file", {"path": str(film)})]:
        cfg = write_config(
            tmp_path,
            {
                "stack": {"layers": [{"material": material, "thickness_mm": 0.1}]},
                "frequencies_ghz": [28.0],
                "output_dir": str(tmp_path / name),
            },
        )
        assert main(["reflect", "--config", cfg]) == 0
    builtin = (tmp_path / "builtin" / "reflection.csv").read_bytes()
    assert (tmp_path / "file" / "reflection.csv").read_bytes() == builtin


def test_reflect_vacuum_slab_writes_negative_infinity(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "stack": {"layers": [{"material": "air", "thickness_mm": 1.0}]},
            "frequencies_ghz": [28.0],
            "output_dir": str(out),
        },
    )
    assert main(["reflect", "--config", cfg]) == 0
    rows = (out / "reflection.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "-inf"


def test_reflect_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "stack": {"layers": [{"material": "ldpe_film", "thickness_mm": 0.1}]},
            "frequencies_ghz": {"start": 26.0, "stop": 30.0, "step": 2.0},
            "output_dir": str(out),
        },
    )
    assert main(["reflect", "--config", cfg]) == 0
    rows = (out / "reflection.csv").read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [26.0, 28.0, 30.0]


@pytest.mark.parametrize(
    "sweep",
    [
        {"start": -1e308, "stop": 1e308, "step": 1e308},
        {"start": 26.0, "stop": 30.0, "step": 4e-6},
    ],
    ids=["span_overflows", "tiny_step"],
)
def test_oversized_frequency_sweep_exits_2(tmp_path, capsys, sweep):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "stack": {"layers": [{"material": "ldpe_film", "thickness_mm": 0.1}]},
            "frequencies_ghz": sweep,
            "output_dir": str(out),
        },
    )
    # the tiny step's 1e6-point list is never built
    tracemalloc.start()
    try:
        assert main(["reflect", "--config", cfg]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert "configuration error: frequencies_ghz sweep" in err
    assert f"more than {cli.MAX_SWEEP_POINTS} points" in err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    assert main(["grid", "--config", str(tmp_path / "absent.json")]) == 2


def test_bad_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["grid", "--config", str(path)]) == 2


def test_missing_required_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
    assert main(["grid", "--config", cfg]) == 2


def test_missing_input_exits_2_without_partial_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "pattern": str(tmp_path / "absent.csv"),
            "plan": {"bits": 2, "sub_arrays": [{"label": "s", "feeds": ["f0"]}]},
            "output_dir": str(out),
        },
    )
    assert main(["coverage", "--config", cfg]) == 2
    assert not out.exists()


def test_malformed_pattern_exits_3(tmp_path):
    pset = smooth_pattern(["f0"], seed=3)
    path = tmp_path / "pattern.csv"
    save_pattern_csv(pset, path)
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[3] = "nan"
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "pattern": str(path),
            "plan": {"bits": 2, "sub_arrays": [{"label": "s", "feeds": ["f0"]}]},
            "output_dir": str(out),
        },
    )
    assert main(["coverage", "--config", cfg]) == 3
    assert not out.exists()


def test_non_numeric_pattern_cell_exits_3_naming_row(tmp_path, capsys):
    path = tmp_path / "pattern.csv"
    save_pattern_csv(smooth_pattern(["f0"], seed=3), path)
    lines = path.read_text().splitlines()
    parts = lines[4].split(",")
    parts[5] = "abc"
    lines[4] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    cfg = write_config(
        tmp_path,
        {
            "pattern": str(path),
            "plan": {"bits": 2, "sub_arrays": [{"label": "s", "feeds": ["f0"]}]},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["coverage", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "non-numeric value" in err
    assert "row 5" in err


def test_non_utf8_pattern_exits_3(tmp_path, capsys):
    path = tmp_path / "pattern.csv"
    save_pattern_csv(smooth_pattern(["f0"], seed=3), path)
    lines = path.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b"f0", b"f\xff0", 1)
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "pattern": str(path),
            "plan": {"bits": 2, "sub_arrays": [{"label": "s", "feeds": ["f0"]}]},
            "output_dir": str(out),
        },
    )
    assert main(["coverage", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "parse error: not utf-8 text" in err
    assert "row 6" in err
    assert not out.exists()


def test_infinite_loss_exits_3_naming_the_loss_table(tmp_path, capsys):
    # a nan window once loaded silently, and a nan loss failed with no row
    loss_path = tmp_path / "losses.csv"
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"loss_table": str(loss_path)})
    for bad_row in ("f1,inf,60.0", "f1,nan,60.0", "f1,1.0,nan"):
        loss_path.write_text(f"feed,loss_db,window_halfwidth_deg\nf0,1.0,60.0\n{bad_row}\n")
        assert main(["coverage", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"parse error: non-finite value ({loss_path}, row 3)" in err
        assert not out.exists()


def test_oversized_loss_table_field_exits_3_naming_row(tmp_path, capsys):
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text(
        "feed,loss_db,window_halfwidth_deg\n"
        "f0,1.0,60.0\n"
        f"\"{'x' * 140000}\",1.0,60.0\n"
    )
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"loss_table": str(loss_path)})
    assert main(["coverage", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "parse error: malformed CSV: field larger than field limit" in err
    assert "row 3" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "reader, header",
    [
        (load_pattern_csv, ",".join(PATTERN_CSV_HEADER)),
        (load_loss_csv, ",".join(LOSS_CSV_HEADER)),
        (load_grid_csv, ",".join(GRID_CSV_HEADER)),
        (load_cdf_csv, ",".join(CDF_CSV_HEADER)),
        (load_material_csv, ",".join(MATERIAL_CSV_HEADER)),
    ],
)
def test_every_csv_reader_raises_parse_error(tmp_path, reader, header):
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(header.encode() + b"\n1,2,3\n\xff\xfe,1\n")
    with pytest.raises(ParseError) as info:
        reader(undecodable)
    assert info.value.row == 3
    oversized = tmp_path / "oversized.csv"
    oversized.write_text(f"{header}\n\"{'9' * 140000}\",1\n")
    with pytest.raises(ParseError) as info:
        reader(oversized)
    assert info.value.row == 2


def test_empty_beam_window_exits_4(tmp_path):
    sim = smooth_pattern(["f0"], seed=4)
    dead = ElementPatternSet(GRID, ("f0",), sim.gains * 1e-9)
    cfg = write_config(
        tmp_path,
        {
            "simulated": pattern_file(tmp_path, sim, "sim.csv"),
            "measured": pattern_file(tmp_path, dead, "meas.csv"),
            "windows": {"f0": {"center_theta_deg": 90.0}},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["deembed", "--config", cfg]) == 4


def test_capacity_blowup_exits_2(tmp_path):
    feeds = [f"f{i}" for i in range(5)]
    out = tmp_path / "out"
    cfg = coverage_config(
        tmp_path,
        out,
        feeds=tuple(feeds),
        extra={"plan": {"bits": 6, "sub_arrays": [{"label": "s", "feeds": feeds}]}},
    )
    # 2^(6*4) weights blows past the enumeration cap
    assert main(["synth", "--config", cfg]) == 2
    assert main(["coverage", "--config", cfg]) == 2
    assert not out.exists()


def test_bad_weighting_exits_2_before_the_kernel(tmp_path, monkeypatch, capsys):
    def kernel(*args):
        raise AssertionError("max_gain_over_plan ran")

    monkeypatch.setattr(cli.cov, "max_gain_over_plan", kernel)
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"weighting": "foo"})
    assert main(["coverage", "--config", cfg]) == 2
    assert "configuration error: unknown weighting 'foo'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_material_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "stack": {"layers": [{"material": "kryptonite", "thickness_mm": 1.0}]},
            "frequencies_ghz": [28.0],
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["reflect", "--config", cfg]) == 2


def test_bad_window_center_exits_2(tmp_path):
    sim = smooth_pattern(["f0"], seed=5)
    cfg = write_config(
        tmp_path,
        {
            "simulated": pattern_file(tmp_path, sim, "sim.csv"),
            "measured": pattern_file(tmp_path, sim, "meas.csv"),
            "windows": {"f0": {"center_theta_deg": 200.0}},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["deembed", "--config", cfg]) == 2


def runnable_config(tmp_path, command):
    """A config, without output_dir, on which command exits 0."""
    if command == "grid":
        return {"grid": {"kind": "regular", "theta_step_deg": 30, "phi_step_deg": 90}}
    if command == "reflect":
        return {"stack": {"layers": [{"material": "ldpe_film", "thickness_mm": 0.1}]},
                "frequencies_ghz": [28.0]}
    if command == "deembed":
        sim = smooth_pattern(["f0"], seed=6)
        return {"simulated": pattern_file(tmp_path, sim, "sim.csv"),
                "measured": pattern_file(tmp_path, sim, "meas.csv"),
                "windows": {"f0": {"center_theta_deg": 90.0}}}
    return {"pattern": pattern_file(tmp_path, smooth_pattern(["a", "b"])),
            "plan": {"bits": 2, "sub_arrays": [{"label": "s", "feeds": ["a", "b"]}]}}


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("grid", ("grid", "theta_step_deg"), "1"),
        ("reflect", ("stack", "layers", 0, "thickness_mm"), None),
        ("reflect", ("frequencies_ghz",), [None]),
        ("reflect", ("incidence_deg",), None),
        ("coverage", ("plan", "bits"), 2.5),
        ("coverage", ("plan", "bits"), True),
        ("deembed", ("linear_mean",), "false"),
        ("reflect", ("extrapolate",), "false"),
        ("synth", ("dump_realizations",), "false"),
        ("coverage", ("cut_thetas_deg",), "90"),
        ("synth", ("plan", "sub_arrays", 0, "feeds"), "ab"),
        ("reflect", ("frequencies_ghz",), [math.nan]),
        ("deembed", ("floor_db",), math.nan),
        ("reflect", ("stack", "layers", 0, "thickness_mm"), 10**400),
    ],
    ids=["theta_step_str", "thickness_null", "frequency_null", "incidence_null",
         "bits_float", "bits_bool", "linear_mean_str", "extrapolate_str",
         "dump_realizations_str", "cut_thetas_str", "feeds_str", "frequency_nan",
         "floor_db_nan", "thickness_401_digits"],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, path, value):
    config = runnable_config(tmp_path, command)
    cfg_ok = write_config(tmp_path, {**config, "output_dir": str(tmp_path / "ok")}, "ok.json")
    assert main([command, "--config", cfg_ok]) == 0
    container = config
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, {**config, "output_dir": str(out)})]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(path[-1]) in err
    assert "Traceback" not in err
    assert not out.exists()


def _loss_table_of_feed_a(tmp_path):
    path = tmp_path / "losses.csv"
    path.write_text("feed,loss_db,window_halfwidth_deg\na,3.0,20.0\n")
    return {"loss_table": str(path)}


# id: (command, changes to its runnable config, what stderr must name);
# None for changes writes a config whose root is a list
CONFIG_ERRORS = {
    "root_not_object": ("grid", None, "config root"),
    "empty_output_dir": ("grid", {"output_dir": ""}, "output_dir"),
    "unknown_grid_kind": ("grid", {"grid": {"kind": "hexagonal"}}, "grid kind"),
    "empty_levels": ("coverage", {"levels": []}, "levels"),
    "level_out_of_range": ("coverage", {"levels": [0.5, 1.0]}, "levels"),
    "empty_stack": ("reflect", {"stack": {"layers": []}}, "stack layers"),
    "bad_stack_layer": (
        "reflect",
        {"stack": {"layers": [{"material": "ldpe_film", "thickness_mm": -1.0}]}},
        "stack layer 0",
    ),
    "material_file_not_found": (
        "reflect",
        lambda tmp_path: {
            "stack": {"layers": [{"material": {"path": str(tmp_path / "absent.csv")},
                                  "thickness_mm": 0.1}]}
        },
        "stack layer 0: material file not found",
    ),
    "empty_frequencies": ("reflect", {"frequencies_ghz": []}, "frequencies_ghz"),
    "backward_sweep": (
        "reflect",
        {"frequencies_ghz": {"start": 30.0, "stop": 26.0, "step": 1.0}},
        "frequencies_ghz",
    ),
    "loss_table_misses_a_feed": ("coverage", _loss_table_of_feed_a, "loss_table"),
    "no_beam_window": ("deembed", {"windows": {}}, "feed 'f0'"),
    "cut_on_uniform_grid": (
        "coverage",
        {"coverage_grid": {"kind": "uniform-sphere", "points": 40}, "cut_thetas_deg": [90]},
        "cut_thetas_deg",
    ),
    "cut_theta_without_ring": ("coverage", {"cut_thetas_deg": [45]}, "cut_thetas_deg"),
    "overflowing_step": (
        "grid",
        {"grid": {"kind": "regular", "theta_step_deg": 1e-308, "phi_step_deg": 10}},
        "theta_step_deg",
    ),
    "grid_over_the_cap": (
        "grid",
        {"grid": {"kind": "uniform-sphere", "points": 10**18}},
        "target_count must be at most",
    ),
}


@pytest.mark.parametrize(
    "command, changes, named", list(CONFIG_ERRORS.values()), ids=list(CONFIG_ERRORS)
)
def test_config_error_exits_2_naming_the_key(tmp_path, capsys, command, changes, named):
    out = tmp_path / "out"
    config = {**runnable_config(tmp_path, command), "output_dir": str(out)}
    cfg_ok = write_config(tmp_path, {**config, "output_dir": str(tmp_path / "ok")}, "ok.json")
    assert main([command, "--config", cfg_ok]) == 0
    if changes is None:
        config = [config]
    else:
        config.update(changes(tmp_path) if callable(changes) else changes)
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


def test_import_cli_loads_no_materials():
    # only reflect reads a material
    code = "import sys, arraycov.cli; print('arraycov.materials' in sys.modules)"
    assert run_child(code) == ["False"]


def test_import_cli_loads_no_deembed():
    # only deembed and a coverage or synth run with a loss_table use it
    code = "import sys, arraycov.cli; print('arraycov.deembed' in sys.modules)"
    assert run_child(code) == ["False"]


@pytest.mark.parametrize(
    "extra",
    [{"cut_thetas_deg": [90.0]}, {"coverage_grid": {"kind": "uniform-sphere", "points": 40}}],
    ids=["cut", "resampled"],
)
def test_coverage_run_loads_no_numpy_ma(tmp_path, extra):
    # a plain np.unique imports numpy.ma, whose import keeps about 1 MiB
    # of heap and takes about 18 ms; the coverage path calls none
    feeds = ("f0", "f1", "f2", "f3")
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text(
        "feed,loss_db,window_halfwidth_deg\n" + "".join(f"{f},10.5,60.0\n" for f in feeds)
    )
    plan = {"bits": 3, "sub_arrays": [{"label": "s", "feeds": list(feeds)}]}
    cfg = coverage_config(
        tmp_path,
        tmp_path / "out",
        extra={"plan": plan, "loss_table": str(loss_path), **extra},
        feeds=feeds,
    )
    code = (
        "import sys; from arraycov.cli import main; "
        f"print(main(['coverage', '--config', {cfg!r}]), 'numpy.ma' in sys.modules)"
    )
    assert run_child(code) == ["0", "False"]


def test_coverage_run_opens_only_the_files_its_config_names(tmp_path):
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text("feed,loss_db,window_halfwidth_deg\nf0,2.5,60\nf1,-1.25,60\n")
    out = tmp_path / "out"
    cfg = coverage_config(tmp_path, out, extra={"loss_table": str(loss_path)})
    (tmp_path / "elements.json").write_text('{"frequency_ghz": 28.0}')
    code = (
        "import json, os, sys\n"
        "opened = []\n"
        "def audit(event, args):\n"
        "    if event == 'open' and isinstance(args[0], (str, bytes, os.PathLike)):\n"
        "        opened.append(os.path.abspath(os.fsdecode(args[0])))\n"
        "sys.addaudithook(audit)\n"
        "from arraycov.cli import main\n"
        f"status = main(['coverage', '--config', {cfg!r}])\n"
        "print(json.dumps([status, os.getpid(), opened]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, pid, opened = json.loads(proc.stdout)
    assert status == 0
    inside = {
        os.path.relpath(p, tmp_path) for p in opened if p.startswith(str(tmp_path) + os.sep)
    }
    outputs = {os.path.join("out", name) for name in os.listdir(out)}
    assert inside == {
        "config.json",
        "elements.csv",
        "losses.csv",
        PATTERN_CACHE,
        f"{PATTERN_CACHE}.{pid}",
        *outputs,
    }


@pytest.mark.parametrize(
    "command, flag, value",
    [(command, flag, value) for command in cli._COMMANDS
     for flag, value in (("--bits", "3"), ("--grid-points", "40"), ("--levels", "0.5"))],
)
def test_override_flag_a_subcommand_does_not_read_exits_2(
    tmp_path, capsys, command, flag, value
):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**runnable_config(tmp_path, command), "output_dir": str(out)})
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_perfbench_trace_targets_resolve(monkeypatch):
    # a wrapped name that is gone only drops its per-layer metrics from a
    # benchmark run, so check here that each one still resolves
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced = importlib.import_module("traced")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in traced.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


@pytest.mark.parametrize("under", [False, True])
def test_unusable_output_dir_exits_2(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    cfg = write_config(
        tmp_path, {"grid": {"kind": "uniform-sphere", "points": 40}, "output_dir": str(out)}
    )
    assert main(["grid", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot create output_dir {str(out)!r}" in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "payload",
    [
        '{"frequency_ghz": null}',
        "[1, 2]",
        '{"frequency_ghz": "abc"}',
        '{"frequency_ghz": 1e999}',
        '{"frequency_ghz": ' + "9" * 5000 + "}",
        '{"frequency_ghz": 39.0, "convention": "realized-gain-embedded"}',
    ],
    ids=["null", "array", "string", "infinite", "int_over_digit_limit", "valid"],
)
def test_json_beside_the_pattern_is_not_read(tmp_path, payload):
    # <stem>.json beside a pattern CSV is no input: no config key names it
    cfg = coverage_config(tmp_path, tmp_path / "out")
    plain = run_coverage(cfg)
    (tmp_path / "elements.json").write_text(payload)
    assert run_coverage(cfg) == plain
    (tmp_path / PATTERN_CACHE).unlink()
    assert run_coverage(cfg) == plain


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "grid": {"kind": "uniform-sphere", "points": 40},
            "output_dir": str(out),
        },
    )
    proc = subprocess.run(
        [sys.executable, "-m", "arraycov.cli", "grid", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "grid.csv").exists()


# registered before main, so that it runs after every exit hook main adds
_FREEZE_PROBE = (
    "import atexit, gc, sys; from arraycov.cli import main; "
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
    "sys.exit(main())"
)


def test_program_run_freezes_gc_at_exit(tmp_path):
    # run as the program, a coverage run freezes what is still alive at
    # exit, and writes the bytes an in-process run writes
    extra = {"cut_thetas_deg": [90.0]}
    child, inproc = tmp_path / "child", tmp_path / "inproc"
    cfg = coverage_config(tmp_path, child, extra=extra)
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, "coverage", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["frozen", "True"]
    assert main(["coverage", "--config", coverage_config(tmp_path, inproc, extra=extra)]) == 0
    written = sorted(p.name for p in child.iterdir())
    assert written == sorted(p.name for p in inproc.iterdir())
    assert "cut_theta_90.svg" in written
    for name in written:
        assert (child / name).read_bytes() == (inproc / name).read_bytes(), name


def test_exit_hook_only_for_the_program_and_once(tmp_path, monkeypatch):
    hooks = []
    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(atexit, "unregister", lambda f: hooks.remove(f) if f in hooks else None)
    cfg = write_config(
        tmp_path,
        {"grid": {"kind": "uniform-sphere", "points": 40}, "output_dir": str(tmp_path / "out")},
    )
    assert main(["grid", "--config", cfg]) == 0
    assert hooks == []
    monkeypatch.setattr(sys, "argv", ["arraycov", "grid", "--config", cfg])
    assert main() == 0
    assert main() == 0
    assert hooks == [gc.freeze]


# the cache entry of coverage_config's pattern CSV
PATTERN_CACHE = ".elements.csv.arraycov-cache"


def run_coverage(cfg):
    """The output files of one coverage run that exits 0, by name."""
    assert main(["coverage", "--config", cfg]) == 0
    out = Path(json.loads(Path(cfg).read_text())["output_dir"])
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_second_coverage_run_reads_the_pattern_cache(tmp_path, monkeypatch, forbid_parse):
    cfg = coverage_config(tmp_path, tmp_path / "out", extra={"cut_thetas_deg": [90.0]})
    with monkeypatch.context() as m:
        m.setattr(patterncache, "_key", lambda path: None)
        uncached = run_coverage(cfg)
    assert not (tmp_path / PATTERN_CACHE).exists()
    miss = run_coverage(cfg)
    assert (tmp_path / PATTERN_CACHE).exists()
    forbid_parse()
    assert run_coverage(cfg) == miss == uncached
    assert "cut_theta_90.svg" in miss


def test_deembed_reads_both_patterns_from_the_cache(tmp_path, forbid_parse):
    sim = smooth_pattern(["p1", "p2"], seed=1)
    meas = ElementPatternSet(GRID, sim.feeds, sim.gains * 0.3)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "simulated": pattern_file(tmp_path, sim, "sim.csv"),
            "measured": pattern_file(tmp_path, meas, "meas.csv"),
            "windows": {f: {"center_theta_deg": 90.0, "center_phi_deg": 0.0} for f in sim.feeds},
            "output_dir": str(out),
        },
    )
    assert main(["deembed", "--config", cfg]) == 0
    losses = (out / "losses.csv").read_bytes()
    assert (tmp_path / ".sim.csv.arraycov-cache").exists()
    assert (tmp_path / ".meas.csv.arraycov-cache").exists()
    forbid_parse()
    assert main(["deembed", "--config", cfg]) == 0
    assert (out / "losses.csv").read_bytes() == losses


def test_pattern_edit_is_parsed_again(tmp_path, count_parses):
    cfg = coverage_config(tmp_path, tmp_path / "out")
    first = run_coverage(cfg)
    # one digit of the first data row's re_gtheta, so the length stays
    csv_path = tmp_path / "elements.csv"
    data = bytearray(csv_path.read_bytes())
    at = data.index(b"\n") + 1
    for _ in range(3):
        at = data.index(b",", at) + 1
    at += data[at : at + 1] == b"-"
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    csv_path.write_bytes(bytes(data))
    parses = count_parses()
    edited = run_coverage(cfg)
    assert parses == [str(csv_path)]
    assert edited["gain_map.csv"] != first["gain_map.csv"]
    assert run_coverage(cfg) == edited
    assert parses == [str(csv_path)]


def _damaged_entry(tmp_path, good, damage):
    header, payload = good.split(b"\n", 1)
    if damage == "truncated":
        return good[: len(good) // 2]
    if damage == "header_only":
        return header + b"\n"
    if damage == "garbage_header":
        return b"\xff not a header\n" + payload
    if damage == "overflowing_steps":
        # the right key over steps whose lattice cannot be counted
        fields = json.loads(header)
        fields["steps"] = [1e-320, 90.0]
        return json.dumps(fields).encode() + b"\n" + payload
    if damage == "foreign_key":
        # the entry of another pattern file
        other = tmp_path / "other"
        other.mkdir()
        load_pattern_csv(pattern_file(other, smooth_pattern(["f0", "f1"], seed=9)))
        return (other / ".pattern.csv.arraycov-cache").read_bytes()
    # the right key over gains of one direction less, or over their
    # real parts, which have the shape of the gains
    gains = np.load(io.BytesIO(payload))
    buffer = io.BytesIO()
    np.save(buffer, gains[:, :-1] if damage == "wrong_shape" else gains.real)
    return header + b"\n" + buffer.getvalue()


@pytest.mark.parametrize(
    "damage",
    [
        "truncated",
        "header_only",
        "garbage_header",
        "overflowing_steps",
        "foreign_key",
        "wrong_shape",
        "wrong_dtype",
    ],
)
def test_bad_pattern_cache_entry_is_a_miss(tmp_path, count_parses, damage):
    cfg = coverage_config(tmp_path, tmp_path / "out")
    first = run_coverage(cfg)
    entry = tmp_path / PATTERN_CACHE
    good = entry.read_bytes()
    entry.write_bytes(_damaged_entry(tmp_path, good, damage))
    parses = count_parses()
    assert run_coverage(cfg) == first
    assert parses == [str(tmp_path / "elements.csv")]
    assert entry.read_bytes() == good


def test_malformed_pattern_leaves_no_cache_entry(tmp_path):
    cfg = coverage_config(tmp_path, tmp_path / "out")
    csv_path = tmp_path / "elements.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b"f1,", b"f1,nan,", 1))
    for _ in range(2):
        assert main(["coverage", "--config", cfg]) == 3
    assert not (tmp_path / PATTERN_CACHE).exists()


def test_failed_cache_write_is_skipped(tmp_path, monkeypatch):
    # a chmod would not stop a write as root; the move into place fails
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    cfg = coverage_config(tmp_path, tmp_path / "out")
    with monkeypatch.context() as m:
        m.setattr(os, "replace", refuse)
        unwritten = run_coverage(cfg)
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".")]
    assert run_coverage(cfg) == unwritten
    assert (tmp_path / PATTERN_CACHE).exists()


def test_deembedded_coverage_run_reads_and_leaves_unscaled_gains(tmp_path, forbid_parse):
    # the run scales the loaded gains in place; the entry its miss writes
    # keeps the CSV's gains, and a hit writes the miss's bytes
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text("feed,loss_db,window_halfwidth_deg\nf0,2.5,60\nf1,-1.25,60\n")
    cfg = coverage_config(tmp_path, tmp_path / "out", extra={"loss_table": str(loss_path)})
    saved = load_pattern_csv(tmp_path / "elements.csv")
    os.remove(tmp_path / PATTERN_CACHE)
    miss = run_coverage(cfg)
    forbid_parse()
    hit = load_pattern_csv(tmp_path / "elements.csv")
    assert np.array_equal(hit.gains.view(np.int64), saved.gains.view(np.int64))
    assert run_coverage(cfg) == miss


def test_deembedded_coverage_run_loads_no_dataclasses(tmp_path):
    # building dataclasses took about 1 ms each at every run's start-up
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text("feed,loss_db,window_halfwidth_deg\nf0,1.5,60\nf1,0.5,60\n")
    cfg = coverage_config(tmp_path, tmp_path / "out", extra={"loss_table": str(loss_path)})
    code = (
        "import sys; from arraycov.cli import main; "
        f"print(main(['coverage', '--config', {cfg!r}]), 'dataclasses' in sys.modules)"
    )
    assert run_child(code) == ["0", "False"]


def test_unmapped_exception_is_raised(tmp_path, monkeypatch):
    # no EXIT_CODES row maps it, so main neither reports nor hides it
    def crash(path):
        raise RuntimeError("not a user error")

    monkeypatch.setattr(cli, "_load_config", crash)
    with pytest.raises(RuntimeError, match="not a user error"):
        main(["grid", "--config", str(tmp_path / "config.json")])


def test_cached_coverage_run_loads_no_hashlib(tmp_path):
    # hashlib loads OpenSSL's libcrypto, about 3.5 MiB of resident memory
    cfg = coverage_config(tmp_path, tmp_path / "out")
    code = (
        "import sys; from arraycov.cli import main; "
        f"print(main(['coverage', '--config', {cfg!r}]), "
        f"main(['coverage', '--config', {cfg!r}]), 'hashlib' in sys.modules)"
    )
    assert run_child(code) == ["0", "0", "False"]
    assert (tmp_path / PATTERN_CACHE).exists()
