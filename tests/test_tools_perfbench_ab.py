"""The gain verdict of ``tools/perfbench_ab.py`` on synthetic samples.

Only the pure :func:`verdict` is exercised; no benchmark pass is run.
The module is imported by file path, as ``tests/test_lint_exceptions.py``
imports ``tools/astlint.py``.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "perfbench_ab.py"
_spec = importlib.util.spec_from_file_location("perfbench_ab", _TOOL)
perfbench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_ab)
verdict = perfbench_ab.verdict

BASE = [1092.0, 1088.0, 1100.0, 1095.0, 1090.0, 1097.0, 1093.0, 1089.0, 1099.0, 1091.0]


class TestVerdict:
    def test_clear_drop_in_a_lower_is_better_metric_is_a_gain(self):
        change = [777.0 + i % 3 for i in range(10)]
        summary = verdict(BASE, change, "lower")
        assert summary["wins"] == 10 and summary["pairs"] == 10
        assert summary["margin"] > summary["base_iqr"]
        assert summary["gain"]

    def test_nine_of_ten_pairs_is_enough(self):
        change = [777.0] * 9 + [1200.0]
        summary = verdict(BASE, change, "lower")
        assert summary["wins"] == 9
        assert summary["gain"]

    def test_eight_of_ten_pairs_is_not(self):
        change = [777.0] * 8 + [1200.0, 1200.0]
        summary = verdict(BASE, change, "lower")
        assert summary["wins"] == 8
        assert not summary["gain"]

    def test_ties_count_for_neither_side(self):
        summary = verdict(BASE, list(BASE), "lower")
        assert summary["wins"] == 0
        assert summary["margin"] == 0.0
        assert not summary["gain"]

    def test_winning_every_pair_inside_the_base_spread_is_no_gain(self):
        # Each pair won by 1 MiB, but the medians differ by less than the
        # base's interquartile range.
        change = [b - 1.0 for b in BASE]
        summary = verdict(BASE, change, "lower")
        assert summary["wins"] == 10
        assert 0 < summary["margin"] < summary["base_iqr"]
        assert not summary["gain"]

    def test_higher_is_better_flips_the_direction(self):
        base = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
        faster = [2 * b for b in base]
        assert verdict(base, faster, "higher")["gain"]
        assert not verdict(base, faster, "lower")["gain"]
        assert verdict(base, faster, "lower")["wins"] == 0

    def test_quartiles_and_medians_are_reported(self):
        summary = verdict([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 1.0, 1.0], "lower")
        assert summary["base"] == [2.0, 3.0, 4.0]
        assert summary["change"] == [1.0, 1.0, 1.0]
        assert summary["base_iqr"] == 2.0

    @pytest.mark.parametrize(
        "base, change, better",
        [([], [], "lower"), ([1.0], [1.0, 2.0], "lower"), ([1.0], [1.0], "up")],
    )
    def test_malformed_input_raises(self, base, change, better):
        with pytest.raises(ValueError):
            verdict(base, change, better)
