import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycov import svgplot
from arraycov.svgplot import line_plot


# the point-by-point writer that the array path replaced, kept as the oracle
def old_finite_points(x, y):
    pts = zip(map(float, x), map(float, y))
    return [(xv, yv) for xv, yv in pts if math.isfinite(xv) and math.isfinite(yv)]


def old_bounds(values):
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def old_ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def old_fmt(v):
    return f"{v:.6g}"


def reference_line_plot(path, label, x, y, title, xlabel, ylabel):
    """line_plot as it was written point by point with f-strings."""
    pts = old_finite_points(x, y)
    if pts:
        x_lo, x_hi = old_bounds([p[0] for p in pts])
        y_lo, y_hi = old_bounds([p[1] for p in pts])
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def sx(v):
        return svgplot._MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return svgplot._MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svgplot._WIDTH}" height="{svgplot._HEIGHT}" '
        f'viewBox="0 0 {svgplot._WIDTH} {svgplot._HEIGHT}">',
        f'<rect width="{svgplot._WIDTH}" height="{svgplot._HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="12" fill="#222222">',
        f'<text x="{svgplot._WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        # frame and ticks
        f'<rect x="{svgplot._MARGIN_L:.1f}" y="{svgplot._MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#888888"/>',
    ]
    for tx in old_ticks(x_lo, x_hi):
        px = sx(tx)
        lines += [
            f'<line x1="{px:.2f}" y1="{svgplot._MARGIN_T + plot_h:.1f}" x2="{px:.2f}" '
            f'y2="{svgplot._MARGIN_T + plot_h + 5:.1f}" stroke="#888888"/>',
            f'<text x="{px:.2f}" y="{svgplot._MARGIN_T + plot_h + 18:.1f}" '
            f'text-anchor="middle">{old_fmt(tx)}</text>',
        ]
    for ty in old_ticks(y_lo, y_hi):
        py = sy(ty)
        lines += [
            f'<line x1="{svgplot._MARGIN_L - 5:.1f}" y1="{py:.2f}" x2="{svgplot._MARGIN_L:.1f}" '
            f'y2="{py:.2f}" stroke="#888888"/>',
            f'<text x="{svgplot._MARGIN_L - 8:.1f}" y="{py + 4:.2f}" '
            f'text-anchor="end">{old_fmt(ty)}</text>',
        ]
    lines += [
        f'<text x="{svgplot._MARGIN_L + plot_w / 2:.1f}" y="{svgplot._HEIGHT - 10:.1f}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{svgplot._MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {svgplot._MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    if pts:
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{svgplot._COLOR}" '
            'stroke-width="1.5"/>'
        )
    ly = svgplot._MARGIN_T + 14
    lx = svgplot._MARGIN_L + plot_w - 130
    lines += [
        f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 18:.1f}" '
        f'y2="{ly - 4:.1f}" stroke="{svgplot._COLOR}" stroke-width="1.5"/>',
        f'<text x="{lx + 24:.1f}" y="{ly:.1f}">{label}</text>',
        "</g>",
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_chart_without_finite_points_has_axes_and_legend_only(tmp_path):
    charts = []
    for name in ("a.svg", "b.svg"):
        line_plot(tmp_path / name, "empty", [0.0, math.nan], [math.inf, 1.0], "t", "x", "y")
        charts.append((tmp_path / name).read_text())
    assert charts[0] == charts[1]
    assert "<polyline" not in charts[0]
    assert '<text x="518.0" y="48.0">empty</text>' in charts[0]
    # the empty range falls back to [0, 1] on both axes
    assert 'text-anchor="middle">0.5</text>' in charts[0]
    assert 'text-anchor="end">0.75</text>' in charts[0]


def assert_same_chart(tmp_path, x, y):
    line_plot(tmp_path / "new.svg", "curve", x, y, "t", "x", "y")
    reference_line_plot(tmp_path / "old.svg", "curve", x, y, "t", "x", "y")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def tie_abscissas():
    """x values on [0, 1] (with the two ends) whose mapped coordinate is
    exactly n + k/8 for odd k: a tie that %.2f rounds to even."""
    x_lo, x_hi = -0.05, 1.05
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    hits = []
    for n in range(63, 600):
        for k in (1, 3, 5, 7):
            t = n + k / 8
            v = x_lo + (t - svgplot._MARGIN_L) / plot_w * (x_hi - x_lo)
            if svgplot._MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w == t and 0.0 < v < 1.0:
                hits.append(v)
    return [0.0, 1.0] + hits


CASES = {
    "no_points": ([], []),
    "one_point": ([3.0], [0.25]),
    "one_finite_point": ([3.0, math.nan, 1.0], [0.25, 1.0, math.inf]),
    "non_finite_dropped": (
        [-math.inf, 0.0, 1.0, math.nan, 2.0, 3.0],
        [0.0, 0.1, math.inf, 0.5, -math.inf, 1.0],
    ),
    "negative_zero": ([-0.0, 0.0, -0.0, 1.0], [0.0, -0.0, -0.0, -0.0]),
    "all_negative_zero": ([-0.0, -0.0], [-0.0, 0.0]),
    "equal_values": ([5.0, 5.0, 5.0], [-2.0, -2.0, -2.0]),
    "near_float_max": ([-1.7e308, 1.7e308], [0.0, 1.0]),
    "tiny": ([5e-324, 1e-320], [-5e-324, 0.0]),
}


@pytest.mark.parametrize("x, y", list(CASES.values()), ids=list(CASES))
def test_chart_bytes_match_the_point_by_point_writer(tmp_path, x, y):
    assert_same_chart(tmp_path, x, y)
    assert_same_chart(tmp_path, np.array(x, dtype=float), np.array(y, dtype=float))


def test_rounding_ties_match_the_point_by_point_writer(tmp_path):
    x = tie_abscissas()
    assert len(x) > 50
    assert_same_chart(tmp_path, x, np.linspace(0.0, 1.0, len(x)))


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.inf, -0.0]),
            st.floats(-1e3, 1e3) | st.sampled_from([math.nan, -math.inf, -0.0]),
        ),
        max_size=60,
    )
)
def test_random_charts_match_the_point_by_point_writer(tmp_path_factory, points):
    x, y = [p[0] for p in points], [p[1] for p in points]
    assert_same_chart(tmp_path_factory.mktemp("svg"), x, y)
