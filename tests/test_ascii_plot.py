"""Unit tests for the text-plot helpers."""

from __future__ import annotations

import pytest

from repro.analysis.ascii_plot import sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_monotone_series_monotone_glyphs(self):
        s = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert len(s) == 8
        assert list(s) == sorted(s, key="▁▂▃▄▅▆▇█".index)

    def test_extremes(self):
        s = sparkline([0.0, 10.0])
        assert s[0] == "▁" and s[1] == "█"
