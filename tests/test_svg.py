"""Tests for the hand-emitted SVG rendering helpers.

The SVG layer is a convenience rendering of the canonical CSV outputs,
so the contract under test is structural: deterministic output, valid
XML, correct element counts, escaping, and input validation.  A few
pixel-anchor checks pin the coordinate transform exactly.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairplug.errors import ValidationError
from fairplug.svg import _fmt, _nice_ticks, line_plot_svg, region_plot_svg, write_svg


def line(x=(1.0, 2.0, 3.0, 4.0), y=(0.5, 0.25, 0.12, 0.06), band=None, name="regret", **kw):
    """``line_plot_svg`` with a zero-width band unless one is given."""
    x, y = np.array(x), np.array(y)
    kw = {"title": "t", "x_label": "x", "y_label": "y", **kw}
    return line_plot_svg(name, x, y, (y, y) if band is None else band, **kw)


class TestFloatFormatting:
    def test_six_significant_digits(self):
        assert _fmt(0.123456789) == "0.123457"

    def test_integers_render_without_decimal(self):
        assert _fmt(3.0) == "3"
        assert _fmt(1000.0) == "1000"

    def test_negative_zero_collapses_to_zero(self):
        assert _fmt(-0.0) == "0"
        assert _fmt(-1e-300) != "0"  # only exact -0 is rewritten


class TestNiceTicks:
    def test_unit_interval(self):
        ticks = _nice_ticks(0.0, 1.0)
        assert ticks == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_symmetric_interval_contains_exact_zero(self):
        ticks = _nice_ticks(-1.0, 1.0)
        assert ticks == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert 0.0 in ticks

    def test_accumulated_rounding_snaps_to_zero(self):
        # first tick is -3 * 0.1 = -0.30000000000000004; three increments
        # of 0.1 land at -2.8e-17, which must be snapped to exactly 0.0.
        ticks = _nice_ticks(-0.35, 0.15)
        assert ticks[3] == 0.0

    def test_degenerate_range_returns_single_tick(self):
        assert _nice_ticks(2.0, 2.0) == [2.0]
        assert _nice_ticks(5.0, 1.0) == [5.0]

    def test_non_finite_range_rejected(self):
        with pytest.raises(ValidationError):
            _nice_ticks(0.0, math.inf)
        with pytest.raises(ValidationError):
            _nice_ticks(math.nan, 1.0)

    @given(
        low=st.floats(min_value=-1e6, max_value=1e6),
        span=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_tick_properties(self, low, span):
        high = low + span
        ticks = _nice_ticks(low, high)
        assert 2 <= len(ticks) <= 7
        assert all(b > a for a, b in zip(ticks, ticks[1:]))
        tol = 1e-6 * span
        assert ticks[0] >= low - tol
        assert ticks[-1] <= high + tol
        # spacing is uniform and drawn from the 1/2/2.5/5 decade family
        diffs = np.diff(ticks)
        step = float(np.median(diffs))
        assert np.allclose(diffs, step, rtol=1e-6, atol=1e-9 * span)
        mantissa = step / 10.0 ** math.floor(math.log10(step))
        assert any(
            math.isclose(mantissa, m, rel_tol=1e-6) for m in (1.0, 2.0, 2.5, 5.0, 10.0)
        )


class TestLinePlot:
    def test_output_is_valid_xml(self):
        root = ET.fromstring(line(x_label="n", y_label="r"))
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "640"
        assert root.attrib["height"] == "420"
        assert root.attrib["viewBox"] == "0 0 640 420"

    def test_deterministic(self):
        assert line() == line()

    def test_coordinate_anchors(self):
        # with the fixed margins, x: [0, 1] -> [62, 622] and y: [0, 1]
        # maps to [372, 36] (inverted), so the polyline is pinned exactly
        svg = line(x=[0.0, 1.0], y=[0.0, 1.0])
        assert 'points="62.0,372.0 622.0,36.0"' in svg
        assert svg.count("<polyline ") == 1

    def test_bands_rendered_as_polygons(self):
        y = np.array([0.5, 0.25, 0.12, 0.06])
        svg = line(y=y, band=(y - 0.05, y + 0.05))
        assert svg.count("<polygon ") == 1
        assert 'fill-opacity="0.22"' in svg

    def test_named_series_gets_legend_entry(self):
        assert ">regret</text>" in line()

    def test_title_and_labels_escaped(self):
        svg = line(title="a<b & c", x_label="n>0", name="m<1")
        assert "a&lt;b &amp; c" in svg
        assert "n&gt;0" in svg
        assert "m&lt;1" in svg
        assert "a<b" not in svg

    def test_log_axis_emits_decade_ticks(self):
        svg = line(x=[1.0, 10.0, 100.0, 1000.0], y=[4.0, 3.0, 2.0, 1.0], x_log=True)
        for label in (">1</text>", ">10</text>", ">100</text>", ">1000</text>"):
            assert label in svg

    def test_log_axis_rejects_non_positive_x(self):
        with pytest.raises(ValidationError, match="log-scale"):
            line(x=[0.0, 10.0], y=[1.0, 2.0], x_log=True)

    def test_constant_y_padded_not_degenerate(self):
        ET.fromstring(line(x=[0.0, 1.0], y=[0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="bad"):
            line(x=[1.0, 2.0], y=[1.0], name="bad")
        y = np.array([1.0, 2.0])
        with pytest.raises(ValidationError, match="band"):
            line(x=[1.0, 2.0], y=y, band=(y[:1], y))

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(ValidationError):
            line(x=np.zeros((2, 2)), y=np.zeros((2, 2)))

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            line(x=[0.0, 1.0], y=[0.0, np.nan])
        with pytest.raises(ValidationError, match="finite"):
            line(x=[0.0, np.inf], y=[0.0, 1.0])

    def test_non_finite_band_rejected(self):
        y = np.array([0.5, 0.25, 0.12, 0.06])
        with pytest.raises(ValidationError, match="finite"):
            line(y=y, band=(y, np.full_like(y, np.inf)))


class TestRegionPlot:
    def setup_method(self):
        self.axis = np.linspace(0.0, 1.0, 5)
        self.mask = np.zeros((5, 5), dtype=bool)
        self.mask[1, 2] = True
        self.mask[3, 3] = True
        self.mask[4, 0] = True

    def test_output_is_valid_xml_and_deterministic(self):
        args = (self.axis, self.mask, [(0.0, 0.2), (1.0, 0.8)])
        first = region_plot_svg(*args, title="region")
        second = region_plot_svg(*args, title="region")
        assert first == second
        root = ET.fromstring(first)
        assert root.attrib["width"] == "480"
        # height = size + title padding (36) - plain padding (20)
        assert root.attrib["height"] == "496"

    def test_one_shaded_cell_per_margin_point(self):
        svg = region_plot_svg(self.axis, self.mask, [], title="t")
        assert svg.count("#cbd5e1") == 3

    def test_boundary_polyline_pinned(self):
        # size 480, pad 20/36: u: [0, 1] -> [20, 460], v: [0, 1] -> [476, 36]
        svg = region_plot_svg(self.axis, self.mask, [(0.0, 0.0), (1.0, 1.0)], title="t")
        assert 'points="20.0,476.0 460.0,36.0"' in svg

    def test_no_boundary_points_no_polyline(self):
        svg = region_plot_svg(self.axis, self.mask, [], title="t")
        assert "<polyline" not in svg

    def test_annotation_rendered_and_escaped(self):
        svg = region_plot_svg(
            self.axis, self.mask, [], title="t", annotation="eps < 0.1 & more"
        )
        assert "eps &lt; 0.1 &amp; more" in svg

    def test_empty_annotation_omitted(self):
        svg = region_plot_svg(self.axis, self.mask, [], title="t")
        assert 'fill="#334155"' not in svg

    def test_mask_shape_must_match_axis(self):
        with pytest.raises(ValidationError, match="in_margin"):
            region_plot_svg(self.axis, self.mask[:4], [], title="t")

    def test_single_point_axis_rejected(self):
        with pytest.raises(ValidationError, match="in_margin"):
            region_plot_svg(np.array([0.5]), np.zeros((1, 1), dtype=bool), [], title="t")


class TestWriteSvg:
    def test_round_trip(self, tmp_path):
        svg = line()
        target = tmp_path / "plot.svg"
        write_svg(svg, target)
        assert target.read_text(encoding="utf-8") == svg

    def test_accepts_string_path(self, tmp_path):
        target = tmp_path / "other.svg"
        write_svg("<svg/>", str(target))
        assert target.read_text(encoding="utf-8") == "<svg/>"
