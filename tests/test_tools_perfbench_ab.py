"""The gain verdict of ``tools/perfbench_ab.py`` on synthetic samples.

Only the pure :func:`verdict` (gain verdict and worse-than-bound flag)
is exercised; no benchmark pass is run.
The module is imported by file path, as ``tests/test_lint_exceptions.py``
imports ``tools/astlint.py``.
"""

import importlib.util
import json
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

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            verdict(BASE, BASE, "lower", -0.1)


class TestWorseThanBound:
    """``worse``: the change's median is past the bound, as a base fraction."""

    def test_regression_inside_the_bound_is_not_worse(self):
        # +4 % on a metric with a 24 % bound.
        summary = verdict([10.0] * 5, [10.4] * 5, "lower", 0.24)
        assert not summary["worse"]
        assert not summary["gain"]

    def test_regression_past_the_bound_is_worse(self):
        summary = verdict([10.0] * 5, [12.5] * 5, "lower", 0.24)
        assert summary["worse"]

    def test_exactly_at_the_bound_is_not_worse(self):
        summary = verdict([100.0] * 4, [125.0] * 4, "lower", 0.25)
        assert not summary["worse"]

    def test_higher_is_better_metrics_are_worse_when_they_drop(self):
        base = [1.6377] * 5
        assert verdict(base, [1.50] * 5, "higher", 0.05)["worse"]
        assert not verdict(base, [1.60] * 5, "higher", 0.05)["worse"]
        assert not verdict(base, [2.00] * 5, "higher", 0.05)["worse"]

    def test_a_gain_is_never_worse(self):
        change = [777.0 + i % 3 for i in range(10)]
        summary = verdict(BASE, change, "lower", 0.15)
        assert summary["gain"] and not summary["worse"]

    def test_the_default_bound_flags_any_regression(self):
        assert verdict([10.0] * 3, [10.01] * 3, "lower")["worse"]
        assert not verdict([10.0] * 3, [10.0] * 3, "lower")["worse"]

    def test_medians_not_single_pairs_decide(self):
        # One wild change sample out of five leaves the median in bound.
        change = [10.1, 10.2, 10.0, 30.0, 10.1]
        assert not verdict([10.0] * 5, change, "lower", 0.15)["worse"]


class TestRace:
    """Failed passes are counted and their pairs left out (no pass is run)."""

    METRICS = [{"name": "ref_wall_s", "unit": "s", "better": "lower", "bound": 0.24}]

    def _result(self, value, failed=0, correct=True):
        return {
            "failed": failed,
            "correct": correct,
            "metrics": {"ref_wall_s": {"value": value}},
        }

    def test_failed_passes_drop_their_pairs_and_are_counted(self, monkeypatch, capsys):
        passes = iter([
            self._result(5.0), self._result(4.0),  # pair 1: base, change
            self._result(4.1), None,  # pair 2: change first, base crashed
            self._result(5.1), self._result(4.2, failed=1),  # pair 3
            self._result(4.0, correct=False), self._result(5.0),  # pair 4
            self._result(5.2), self._result(4.1),  # pair 5
        ])
        monkeypatch.setattr(perfbench_ab, "run_pass", lambda *args: next(passes))
        sides = {"base": "b", "change": "c"}
        failed = perfbench_ab.race(sides, "fig5-cold", 5, 7, self.METRICS)
        assert failed == 3
        out = capsys.readouterr().out
        samples = json.loads(out.strip().splitlines()[-1])["samples"]
        assert samples["ref_wall_s"] == {"base": [5.0, 5.2], "change": [4.0, 4.1]}
        assert "won 2/2" in out


class TestRecord:
    """``--record DIR``: one JSON report per workload (no pass is run)."""

    @staticmethod
    def _result(scale):
        values = {
            "setup_s": 0.4 * scale,
            "ref_wall_s": 1.8 * scale,
            "peak_rss_mb": 600.0 * scale,
            "sim_speedup_geomean": 1.1175,
        }
        return {
            "failed": 0,
            "correct": True,
            "metrics": {k: {"value": v} for k, v in values.items()},
        }

    def test_record_holds_base_host_and_verdicts(self, tmp_path, monkeypatch):
        scales = iter([1.0, 0.6, 0.61, 1.02, 0.98, 0.62, 0.59, 1.01])
        monkeypatch.setattr(
            perfbench_ab, "run_pass", lambda *args: self._result(next(scales))
        )
        monkeypatch.setattr(perfbench_ab, "export", lambda rev, into: None)
        out = tmp_path / "ab"
        argv = ["--base", "HEAD", "--workload", "serve-churn", "--pairs", "4",
                "--seed", "7", "--record", str(out)]
        assert perfbench_ab.main(argv) == 0
        record = json.loads((out / "serve-churn-seed7.json").read_text())
        assert record["workload"] == "serve-churn" and record["seed"] == 7
        assert record["base"]["rev"] == "HEAD"
        assert record["base"]["commit"] == perfbench_ab.resolve("HEAD")
        assert len(record["base"]["commit"]) == 40
        assert record["pairs"] == 4 and record["failed"] == 0
        host = record["host"]
        assert host["nproc"] >= 1 and host["numpy"] and host["python"]
        assert {"load1_start", "load1_end"} <= set(host)
        rss = record["metrics"]["peak_rss_mb"]
        assert rss["bound"] == 0.15 and rss["better"] == "lower"
        assert rss["samples"]["base"] == pytest.approx([600.0, 612.0, 588.0, 606.0])
        assert rss["wins"] == 4 and rss["gain"] and not rss["worse"]
        assert len(rss["base"]) == len(rss["change"]) == 3
        speedup = record["metrics"]["sim_speedup_geomean"]
        assert speedup["wins"] == 0 and not speedup["gain"] and not speedup["worse"]
        assert set(record["metrics"]) == {
            "setup_s", "ref_wall_s", "peak_rss_mb", "sim_speedup_geomean"
        }

    def test_without_record_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(perfbench_ab, "run_pass", lambda *args: self._result(1.0))
        monkeypatch.chdir(tmp_path)
        metrics = [{"name": "ref_wall_s", "unit": "s", "better": "lower", "bound": 0.24}]
        sides = {"base": "b", "change": "c"}
        assert perfbench_ab.race(sides, "fig5-cold", 2, 7, metrics) == 0
        assert list(tmp_path.iterdir()) == []
