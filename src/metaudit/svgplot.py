"""Deterministic SVG rendering of the rank-ordered p-value plot.

SVG keeps the figure textual and diffable: identical plots serialize to
identical bytes, so rendered output can be golden-tested without an image
toolchain.
"""

from __future__ import annotations

import numpy as np

from metaudit.effect_audit import PValuePlot

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
    horizontal rule at the significance screen, which needs alpha in (0, 1)
    to stay on the canvas.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    n = plot.n
    if not n:
        raise ValueError("cannot render an empty p-value plot (n = 0)")
    x0, x1 = _MARGIN_LEFT, WIDTH - _MARGIN_RIGHT
    y0, y1 = HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def px(rank: float) -> float:
        # Ranks live on [0.5, n + 0.5] so single-point plots stay centered.
        return x0 + (rank - 0.5) / n * (x1 - x0)

    def py(p: float) -> float:
        return y0 + p * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # Axes.
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )

    # Y ticks every 0.2.
    for i in range(6):
        p = i / 5
        y = py(p)
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(y)}" x2="{_fmt(x0)}" y2="{_fmt(y)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 10)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}">{p:.1f}</text>'
        )

    # X ticks on integer ranks, thinned when crowded.
    step = max(1, (n + 19) // 20)
    for rank in range(1, n + 1):
        if rank != 1 and rank != n and rank % step:
            continue
        x = px(rank)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" y2="{_fmt(y0 + 5)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="{_AXIS_COLOR}">{rank}</text>'
        )

    # Axis labels.
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 15)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="{_AXIS_COLOR}">rank</text>'
    )
    parts.append(
        f'<text x="20" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" fill="{_AXIS_COLOR}" '
        f'transform="rotate(-90 20 {_fmt((y0 + y1) / 2)})">p-value</text>'
    )

    # Significance screen.
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(py(alpha))}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(py(alpha))}" stroke="{_ALPHA_COLOR}" stroke-width="1"/>'
    )

    # Uniform reference, dashed from (1, 1/(n+1)) to (n, n/(n+1)).
    parts.append(
        f'<line x1="{_fmt(px(1))}" y1="{_fmt(py(1 / (n + 1)))}" '
        f'x2="{_fmt(px(n))}" y2="{_fmt(py(n / (n + 1)))}" '
        f'stroke="{_REFERENCE_COLOR}" stroke-width="1.5" stroke-dasharray="6 4"/>'
    )

    # px and py over the columns: NumPy makes the same IEEE operations.
    cx = x0 + (np.arange(1, n + 1) - 0.5) / n * (x1 - x0)
    cy = y0 + plot.p * (y1 - y0)
    circle = f'<circle cx="%.2f" cy="%.2f" r="{POINT_RADIUS}" fill="{_POINT_COLOR}"/>'
    parts += map(circle.__mod__, zip(cx.tolist(), cy.tolist()))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
