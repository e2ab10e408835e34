"""Unit tests for benchmark report rendering."""

from pathlib import Path

import pytest

from repro.bench.report import Series, Table, emit


class TestTable:
    def test_add_row_formats_floats(self):
        t = Table(title="t", columns=["a", "b"])
        t.add_row("x", 1.23456)
        assert t.rows == [["x", "1.235"]]

    def test_add_row_keeps_ints_and_strings(self):
        t = Table(title="t", columns=["a", "b"])
        t.add_row(7, "label")
        assert t.rows == [["7", "label"]]

    def test_wrong_arity_rejected(self):
        t = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_render_aligns_columns(self):
        t = Table(title="demo", columns=["name", "value"])
        t.add_row("short", 1.0)
        t.add_row("much-longer-name", 2.0)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        # Header and rows share column offsets.
        value_col = lines[1].index("value")
        assert lines[3][value_col - 1] == " "

    def test_render_empty_table(self):
        t = Table(title="empty", columns=["a"])
        assert "== empty ==" in t.render()

    def test_notes_rendered(self):
        t = Table(title="t", columns=["a"], notes=["paper: 42"])
        assert "note: paper: 42" in t.render()


class TestSeries:
    def test_points_sorted_on_render(self):
        s = Series(title="curve", x_label="x", y_label="y")
        s.add_point("a", 0.9, 2.0)
        s.add_point("a", 0.1, 1.0)
        text = s.render()
        assert text.index("0.1") < text.index("0.9")

    def test_multiple_labels(self):
        s = Series(title="curve", x_label="x", y_label="y")
        s.add_point("a", 0.5, 1.0)
        s.add_point("b", 0.5, 2.0)
        assert "[a]" in s.render()
        assert "[b]" in s.render()


class TestEmit:
    def test_emit_returns_text_and_saves(self, tmp_path, monkeypatch, capsys):
        t = Table(title="t", columns=["a"])
        t.add_row(1)
        # Redirect the results directory into tmp_path.
        import repro.bench.report as report_mod

        monkeypatch.setattr(
            report_mod, "__file__", str(tmp_path / "src" / "repro" / "bench" / "report.py")
        )
        text = emit(t, "unit.txt")
        assert "== t ==" in text
        assert "== t ==" in capsys.readouterr().out
        saved = tmp_path.parents[0] if False else (tmp_path / "benchmarks" / "results" / "unit.txt")
        assert saved.read_text().startswith("== t ==")

    def test_emit_at_another_scale_keeps_the_default_records(
        self, tmp_path, monkeypatch
    ):
        import repro.bench.report as report_mod

        monkeypatch.setattr(
            report_mod, "__file__", str(tmp_path / "src" / "repro" / "bench" / "report.py")
        )
        results = tmp_path / "benchmarks" / "results"
        t = Table(title="default", columns=["a"])
        t.add_row(1)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2048")
        emit(t, "unit.txt")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "16384")
        small = Table(title="small", columns=["a"])
        small.add_row(2)
        emit(small, "unit.txt")
        assert (results / "unit.txt").read_text().startswith("== default ==")
        assert (results / "scale-16384" / "unit.txt").read_text().startswith(
            "== small =="
        )
        assert sorted(p.name for p in (results / "json").iterdir()) == ["unit.json"]
        assert [p.name for p in (results / "scale-16384" / "json").iterdir()] == [
            "unit.json"
        ]
        assert report_mod.results_dir() == Path("benchmarks", "results", "scale-16384")

    def test_emit_without_filename_only_prints(self, capsys):
        s = Series(title="s", x_label="x", y_label="y")
        emit(s)
        assert "== s ==" in capsys.readouterr().out
