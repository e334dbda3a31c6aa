"""ASCII chart rendering."""

import pytest

from repro.analysis.charts import ascii_chart


class TestAsciiChart:
    def test_basic_shape(self):
        chart = ascii_chart([0, 1, 2, 3], [0, 1, 4, 9], width=20, height=5)
        lines = chart.splitlines()
        # height grid rows + axis + x labels
        assert len(lines) == 5 + 2
        assert "*" in chart

    def test_extremes_plotted_at_corners(self):
        chart = ascii_chart([0, 10], [0, 100], width=10, height=4)
        lines = chart.splitlines()
        assert lines[0].rstrip().endswith("*")  # max y at right edge, top row
        assert "*" in lines[3]  # min y on the bottom grid row

    def test_labels_rendered(self):
        chart = ascii_chart([0, 1], [0, 1], y_label="bits", x_label="ciphertexts")
        assert chart.startswith("bits")
        assert chart.rstrip().endswith("ciphertexts")

    def test_axis_annotations(self):
        chart = ascii_chart([5, 25], [2, 8], width=12, height=4)
        assert "8" in chart and "2" in chart
        assert "5" in chart and "25" in chart

    def test_constant_y_does_not_crash(self):
        chart = ascii_chart([0, 1, 2], [7, 7, 7], width=10, height=3)
        assert "*" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([1], [1, 2])
        with pytest.raises(ValueError):
            ascii_chart([], [])
        with pytest.raises(ValueError):
            ascii_chart([1], [1], width=2)
