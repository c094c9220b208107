import math

from arraycov.svgplot import line_plot


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
