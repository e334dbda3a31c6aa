"""Analysis helpers: statistics and table rendering."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import binomial_ci, mean_and_ci, summarize_rates
from repro.analysis.tabulate import format_table, write_results


class TestBinomialCI:
    def test_contains_point_estimate(self):
        low, high = binomial_ci(7, 10)
        assert low <= 0.7 <= high

    def test_bounds_clamped(self):
        low, _ = binomial_ci(0, 10)
        _, high = binomial_ci(10, 10)
        assert low == 0.0
        assert high == 1.0

    def test_zero_successes_interval_nonzero(self):
        """Wilson interval stays informative at the boundary."""
        low, high = binomial_ci(0, 10)
        assert high > 0.0

    def test_narrows_with_trials(self):
        low10, high10 = binomial_ci(5, 10)
        low1000, high1000 = binomial_ci(500, 1000)
        assert (high1000 - low1000) < (high10 - low10)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_ci(1, 0)
        with pytest.raises(ValueError):
            binomial_ci(5, 3)

    @given(
        trials=st.integers(min_value=1, max_value=500),
        successes=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=50)
    def test_always_ordered(self, trials, successes):
        if successes > trials:
            return
        low, high = binomial_ci(successes, trials)
        assert 0.0 <= low <= high <= 1.0


class TestMeanCI:
    def test_single_value(self):
        mean, half = mean_and_ci([3.0])
        assert mean == 3.0 and half == 0.0

    def test_mean(self):
        mean, _ = mean_and_ci([1.0, 2.0, 3.0])
        assert mean == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_and_ci([])


class TestRateSummary:
    def test_str(self):
        summary = summarize_rates(9, 10)
        assert "90.00%" in str(summary)
        assert "9/10" in str(summary)


class TestFormatTable:
    def test_aligned_output(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_title(self):
        text = format_table(["a"], [[1]], title="T1")
        assert text.startswith("T1\n==")

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestWriteResults:
    def test_writes_file(self, capsys):
        path = write_results("selftest", "hello table")
        try:
            with open(path, encoding="utf-8") as handle:
                content = handle.read()
            assert "hello table" in content
            assert "selftest" in content
            assert "hello table" in capsys.readouterr().out
        finally:
            os.unlink(path)

