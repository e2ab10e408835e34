"""Plain-text rendering of benchmark tables and figure series.

The harness prints the same rows/series the paper reports; these helpers
keep the formatting consistent and write copies under ``benchmarks/results``
so `EXPERIMENTS.md` can reference stable artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Table:
    """A titled, column-aligned text table."""

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one row; cells are stringified with sensible defaults."""
        formatted = [
            f"{c:.3f}" if isinstance(c, float) else str(c) for c in cells
        ]
        if len(formatted) != len(self.columns):
            raise ValueError(
                f"row has {len(formatted)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(formatted)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows), 1)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class Series:
    """A figure-like family of (x, y) series, one per label."""

    title: str
    x_label: str
    y_label: str
    data: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def add_point(self, label: str, x: float, y: float) -> None:
        self.data.setdefault(label, []).append((x, y))

    def render(self) -> str:
        lines = [f"== {self.title} ==", f"({self.x_label} -> {self.y_label})"]
        for label, points in self.data.items():
            lines.append(f"[{label}]")
            for x, y in sorted(points):
                lines.append(f"  {x:10.4f}  {y:.6g}")
        return "\n".join(lines)


def results_dir() -> Path:
    """Where :func:`emit` saves artifacts, relative to the repository root."""
    from repro.bench.workloads import DEFAULT_BENCH_SCALE, bench_scale

    scale = bench_scale()
    base = Path("benchmarks", "results")
    return base if scale == DEFAULT_BENCH_SCALE else base / f"scale-{scale}"


def emit(artifact: Table | Series, filename: str | None = None) -> str:
    """Print an artifact and optionally save it under benchmarks/results.

    Alongside the text artifact, a machine-readable JSON record is kept
    under ``benchmarks/results/json/`` (see
    :mod:`repro.bench.recorder`) so regression tooling never has to parse
    the rendered tables.  The tracked records are those of the default
    scale; a run at any other ``REPRO_BENCH_SCALE`` writes under
    ``benchmarks/results/scale-<N>/`` instead (git-ignored), so a quick
    small-scale reproduce never overwrites them.
    """
    text = artifact.render()
    print("\n" + text)
    if filename:
        out_dir = Path(__file__).resolve().parents[3] / results_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text + "\n", encoding="utf-8")
        _record_json(artifact, filename.rsplit(".", 1)[0], out_dir / "json")
    return text


def _record_json(artifact: Table | Series, experiment: str, directory: Path) -> None:
    from repro.bench.recorder import ResultRecord, ResultStore
    from repro.bench.workloads import bench_scale

    store = ResultStore(directory)
    if isinstance(artifact, Table):
        record = ResultRecord.from_table(experiment, artifact, scale=bench_scale())
    else:
        record = ResultRecord.from_series(experiment, artifact, scale=bench_scale())
    store.save(record)
