"""Minimal deterministic SVG line plots.

Output is a pure function of the data: fixed styling, no timestamps,
coordinates rounded to a fixed precision. Good enough for CDF curves
and pattern cuts; not a plotting library.
"""

import numpy as np

_COLOR = "#1f6fb2"

_WIDTH = 640
_HEIGHT = 420

_MARGIN_L = 62.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


def _finite_points(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _bounds(values):
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(v):
    return f"{v:.6g}"


def line_plot(path, label, x, y, title, xlabel, ylabel):
    """Write an SVG chart of one labelled polyline on a 640x420 canvas.

    Non-finite points are dropped. With no point left, the chart has
    axes on [0, 1] and a legend entry but no line.
    """
    xs, ys = _finite_points(x, y)
    if xs.size:
        x_lo, x_hi = _bounds(xs)
        y_lo, y_hi = _bounds(ys)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="12" fill="#222222">',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        # frame and ticks
        f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#888888"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        lines += [
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h:.1f}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.1f}" stroke="#888888"/>',
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18:.1f}" '
            f'text-anchor="middle">{_fmt(tx)}</text>',
        ]
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        lines += [
            f'<line x1="{_MARGIN_L - 5:.1f}" y1="{py:.2f}" x2="{_MARGIN_L:.1f}" '
            f'y2="{py:.2f}" stroke="#888888"/>',
            f'<text x="{_MARGIN_L - 8:.1f}" y="{py + 4:.2f}" '
            f'text-anchor="end">{_fmt(ty)}</text>',
        ]
    lines += [
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10:.1f}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    if xs.size:
        # the closures' operations in their order, on every point at once;
        # float arithmetic overflows to inf with no warning, so numpy's too
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.column_stack([sx(xs), sy(ys)]).ravel().tolist()
        coords = " ".join(["%.2f,%.2f"] * xs.size) % tuple(points)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{_COLOR}" '
            'stroke-width="1.5"/>'
        )
    ly = _MARGIN_T + 14
    lx = _MARGIN_L + plot_w - 130
    lines += [
        f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 18:.1f}" '
        f'y2="{ly - 4:.1f}" stroke="{_COLOR}" stroke-width="1.5"/>',
        f'<text x="{lx + 24:.1f}" y="{ly:.1f}">{label}</text>',
        "</g>",
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
