"""Deterministic SVG rendering of the rank-ordered p-value plot.

SVG keeps the figure textual and diffable: identical plots serialize to
identical bytes, so rendered output can be golden-tested without an image
toolchain.
"""

from __future__ import annotations

import numpy as np

from metaudit.effect_audit import PValuePlot
from metaudit.statkernel import _check_real

WIDTH = 800
HEIGHT = 600

_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 30.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 60.0

_POINT_COLOR = "#2b6cb0"
_REFERENCE_COLOR = "#718096"
_ALPHA_COLOR = "#c53030"
_AXIS_COLOR = "#1a202c"

POINT_RADIUS = 4


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_pvalue_plot(plot: PValuePlot, alpha: float = 0.05) -> str:
    """Render the plot as a standalone 800x600 SVG document.

    One circle per plotted p-value, a dashed segment for the uniform
    reference line from (1, 1/(n+1)) to (n, n/(n+1)), and a solid
    horizontal rule at the significance screen, which needs a real alpha in
    (0, 1) to stay on the canvas; any other alpha raises ValueError.
    """
    _check_real("alpha", alpha, between=(0, 1))
    n = plot.n
    if not n:
        raise ValueError("cannot render an empty p-value plot (n = 0)")
    x0, x1 = _MARGIN_LEFT, WIDTH - _MARGIN_RIGHT
    y0, y1 = HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def px(rank):
        # Ranks live on [0.5, n + 0.5] so single-point plots stay centered.
        # A rank array maps elementwise through the same IEEE operations.
        return x0 + (rank - 0.5) / n * (x1 - x0)

    def py(p):
        return y0 + p * (y1 - y0)

    # The one template of every <line> and of every <text>.  A <text> takes
    # its x and y as text, because the rotated axis label's x is a bare "20".
    def line(xa, ya, xb, yb, color=_AXIS_COLOR, width="1", extra=""):
        return (f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                f'stroke="{color}" stroke-width="{width}"{extra}/>')

    def text(x, y, anchor, size, label, extra=""):
        return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
                f'font-size="{size}" fill="{_AXIS_COLOR}"{extra}>{label}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        # Axes.
        line(x0, y0, x1, y0),
        line(x0, y0, x0, y1),
    ]

    # Y ticks every 0.2.
    for i in range(6):
        p = i / 5
        y = py(p)
        parts += line(x0 - 5, y, x0, y), text(_fmt(x0 - 10), _fmt(y + 4), "end", 12, f"{p:.1f}")

    # X ticks on integer ranks, thinned when crowded.
    step = max(1, (n + 19) // 20)
    for rank in sorted({1, n, *range(step, n + 1, step)}):
        x = px(rank)
        parts += line(x, y0, x, y0 + 5), text(_fmt(x), _fmt(y0 + 20), "middle", 12, rank)

    # Axis labels.
    y_mid = _fmt((y0 + y1) / 2)
    parts += (
        text(_fmt((x0 + x1) / 2), _fmt(HEIGHT - 15), "middle", 14, "rank"),
        text("20", y_mid, "middle", 14, "p-value", f' transform="rotate(-90 20 {y_mid})"'),
        # Significance screen.
        line(x0, py(alpha), x1, py(alpha), _ALPHA_COLOR),
        # Uniform reference, dashed from (1, 1/(n+1)) to (n, n/(n+1)).
        line(px(1), py(1 / (n + 1)), px(n), py(n / (n + 1)), _REFERENCE_COLOR, "1.5",
             ' stroke-dasharray="6 4"'),
    )

    circle = f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS}" fill="{_POINT_COLOR}"/>'
    parts += map(circle.__mod__, zip(px(np.arange(1, n + 1)).tolist(), py(plot.p).tolist()))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
