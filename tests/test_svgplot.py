"""Structural tests for the SVG p-value plot renderer."""

import math
import re

import numpy as np
import pytest

from metaudit.effect_audit import PValuePlot, build_pvalue_plot, record_from_statistic
from metaudit.svgplot import render_pvalue_plot


def plot_of(n: int):
    records = [
        record_from_statistic(f"s{i:02d}", 0.2 * i, 0.1) for i in range(1, n + 1)
    ]
    return build_pvalue_plot(records)


class TestRenderPValuePlot:
    def test_one_circle_per_point(self):
        svg = render_pvalue_plot(plot_of(3))
        assert svg.count("<circle") == 3
        svg = render_pvalue_plot(plot_of(12))
        assert svg.count("<circle") == 12

    def test_single_dashed_reference_line(self):
        svg = render_pvalue_plot(plot_of(5))
        assert svg.count("stroke-dasharray") == 1

    def test_fixed_viewport(self):
        svg = render_pvalue_plot(plot_of(4))
        assert 'width="800"' in svg
        assert 'height="600"' in svg
        assert 'viewBox="0 0 800 600"' in svg

    def test_axis_labels(self):
        svg = render_pvalue_plot(plot_of(4))
        assert ">rank</text>" in svg
        assert ">p-value</text>" in svg

    def test_coordinates_use_two_decimals(self):
        svg = render_pvalue_plot(plot_of(7))
        for match in re.finditer(r'c[xy]="([^"]+)"', svg):
            assert re.fullmatch(r"-?\d+\.\d{2}", match.group(1)), match.group(1)

    def test_alpha_rule_present(self):
        # The 0.05 screen sits at y = 540 - 0.05 * 510 = 514.5.
        svg = render_pvalue_plot(plot_of(4), alpha=0.05)
        assert svg.count('y1="514.50" x2="770.00" y2="514.50"') == 1

    def test_deterministic(self):
        plot = plot_of(9)
        assert render_pvalue_plot(plot) == render_pvalue_plot(plot)

    def test_single_point_stays_inside_plot_area(self):
        svg = render_pvalue_plot(plot_of(1))
        match = re.search(r'<circle cx="([\d.]+)"', svg)
        assert 70 <= float(match.group(1)) <= 770

    def test_reference_endpoints_match_contract(self):
        plot = plot_of(4)
        svg = render_pvalue_plot(plot)
        # Reference runs from (1, 1/5) to (4, 4/5): y = 540 - p * 510.
        assert 'y1="438.00"' in svg
        assert 'y2="132.00"' in svg

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        # alpha = 1.5 once drew the screen at y = -225, off the canvas.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            render_pvalue_plot(plot_of(4), alpha=alpha)

    @pytest.mark.parametrize("alpha", ["0.5", None, True])
    def test_rejects_alpha_that_is_not_a_real(self, alpha):
        # A str or None once escaped as a bare TypeError from the range test.
        with pytest.raises(ValueError, match=f"^alpha must be a real number, got {re.escape(repr(alpha))}$"):
            render_pvalue_plot(plot_of(4), alpha=alpha)

    def test_rejects_an_empty_plot(self):
        # Once a ZeroDivisionError from placing rank 1 on an axis of n = 0 ranks.
        with pytest.raises(ValueError, match="empty p-value plot"):
            render_pvalue_plot(PValuePlot(0, np.array([]), []))

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 41, 400, 2000])
    def test_x_ticks_are_one_the_multiples_of_the_step_and_n(self, n):
        step = max(1, math.ceil(n / 20))
        expected = [rank for rank in range(1, n + 1) if rank in (1, n) or rank % step == 0]
        svg = render_pvalue_plot(PValuePlot(0, np.linspace(0.0, 1.0, n)))
        labels = [int(label) for label in re.findall(r'font-size="12"[^>]*>(\d+)</text>', svg)]
        assert labels == expected
        assert svg.count('y2="545.00"') == len(expected)  # one tick mark per label
