"""AST lint (tier-1 face of ``tools/astlint.py``).

Five checks over every source file under ``src/``:

- no silent exception swallowing — a bare ``except:`` or an ``except
  Exception: pass`` turns an injected fault (or a real bug) into
  silence, defeating the chaos matrix and the consistency audits;
- no bare ``print()`` outside the report surface (``cli.py`` and the
  bench report/regression output) — library code signals through the
  observability plane, not stdout;
- no fire-and-forget ``create_task(...)`` — a dropped task handle can
  be garbage-collected mid-flight and its exceptions vanish, the async
  twin of a silent except (the serving layer stores its dispatcher
  task for exactly this reason);
- no assigned-but-unused locals (``_``-prefixed names allowlisted) —
  dead assignments are stale refactor remnants;
- instrumentation names follow the taxonomy — every literal name fed
  to ``inc``/``gauge``/``observe``/``span``/``instant``/``emit``/
  ``submission`` is lowercase dotted ``family.name`` with the family
  registered in ``repro.obs.naming.FAMILIES``.

The logic lives in ``tools/astlint.py`` so ``make lint`` and this test
enforce exactly the same rules; the module is imported by file path
because ``tools/`` is deliberately not a package.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "astlint.py"
_spec = importlib.util.spec_from_file_location("astlint", _TOOL)
astlint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(astlint)


def test_lint_tool_exists_and_sees_sources():
    files = sorted(astlint.SRC.rglob("*.py"))
    assert files, f"no sources found under {astlint.SRC}"


def test_sources_contain_no_silent_handlers():
    problems = []
    for path in sorted(astlint.SRC.rglob("*.py")):
        problems.extend(astlint.silent_handler_violations(path))
    assert not problems, (
        "silent exception handlers in src/ (catch something specific, or "
        "handle/re-raise):\n  " + "\n  ".join(problems)
    )


def test_sources_contain_no_bare_prints():
    problems = []
    for path in sorted(astlint.SRC.rglob("*.py")):
        problems.extend(astlint.print_violations(path))
    assert not problems, (
        "bare print() outside the report surface (use repro.obs, or add "
        "the file to astlint.PRINT_ALLOWED if it *is* report output):\n  "
        + "\n  ".join(problems)
    )


def test_print_allowlist_is_tight():
    """Every allowlisted file exists — no stale entries accumulating."""
    repro_root = astlint.SRC / "repro"
    missing = [
        entry
        for entry in astlint.PRINT_ALLOWED
        if not (repro_root / entry).exists()
    ]
    assert not missing, f"PRINT_ALLOWED entries without a file: {missing}"


def test_sources_contain_no_fire_and_forget_tasks():
    problems = []
    for path in sorted(astlint.SRC.rglob("*.py")):
        problems.extend(astlint.fire_and_forget_task_violations(path))
    assert not problems, (
        "fire-and-forget create_task() in src/ (store the handle or "
        "await it):\n  " + "\n  ".join(problems)
    )


def test_fire_and_forget_check_flags_dropped_handles(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import asyncio\n"
        "async def bad():\n"
        "    asyncio.create_task(work())\n"      # dropped handle: flagged
        "async def bad_loop(loop):\n"
        "    loop.create_task(work())\n"         # loop method too
        "async def ok():\n"
        "    t = asyncio.create_task(work())\n"  # stored: fine
        "    await t\n"
        "async def ok_awaited():\n"
        "    await asyncio.create_task(work())\n"  # awaited inline: fine
        "def ok_other():\n"
        "    create_graph(work())\n"             # different callee: fine
    )
    problems = astlint.fire_and_forget_task_violations(sample)
    assert len(problems) == 2, problems
    assert ":3:" in problems[0] and ":5:" in problems[1]


def test_sources_contain_no_unused_locals():
    problems = []
    for path in sorted(astlint.SRC.rglob("*.py")):
        problems.extend(astlint.unused_local_violations(path))
    assert not problems, (
        "locals assigned but never used in src/ (drop them or prefix "
        "with `_`):\n  " + "\n  ".join(problems)
    )


def test_unused_local_check_flags_dead_assignment(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(x):\n"
        "    system = x.system\n"       # dead: never read again
        "    _scratch = x.other\n"      # allowlisted by prefix
        "    a, b = x.pair\n"           # tuple unpacking: not checked
        "    y = 1\n"
        "    y += 1\n"                  # augmented assign counts as a use
        "    total = 0\n"
        "    def inner():\n"
        "        return total\n"        # closure read counts as a use
        "    return inner() + y + b\n"
    )
    problems = astlint.unused_local_violations(sample)
    assert len(problems) == 1, problems
    assert "`system`" in problems[0] and ":2:" in problems[0]


def test_unused_local_check_respects_global_declarations(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "state = None\n"
        "def setup(value):\n"
        "    global state\n"
        "    state = value\n"
    )
    assert astlint.unused_local_violations(sample) == []


def test_sources_follow_instrumentation_taxonomy():
    problems = []
    for path in sorted(astlint.SRC.rglob("*.py")):
        problems.extend(astlint.naming_violations(path))
    assert not problems, (
        "instrumentation names off the taxonomy (lowercase dotted "
        "family.name, family registered in repro.obs.naming.FAMILIES):\n  "
        + "\n  ".join(problems)
    )


def test_naming_families_table_is_sorted_and_shaped():
    """The registry itself obeys the shape it enforces."""
    families = list(astlint._naming().FAMILIES)
    assert families == sorted(families)
    for family in families:
        assert astlint._naming().check_name(f"{family}.sample") is None


def test_naming_check_flags_bad_instrumentation_names(tmp_path, monkeypatch):
    astlint._naming()  # prime the taxonomy before SRC is repointed
    monkeypatch.setattr(astlint, "SRC", tmp_path)
    sample = tmp_path / "repro" / "mod.py"
    sample.parent.mkdir()
    sample.write_text(
        "def f(registry, name):\n"
        "    registry.inc('bogus.counter')\n"     # unregistered family
        "    registry.inc('Serve.Admit')\n"       # not lowercase dotted
        "    registry.inc('serve')\n"             # missing the .name part
        "    registry.inc('serve.admitted')\n"    # registered: fine
        "    registry.inc(f'cache.{name}')\n"     # pinned known family: fine
        "    registry.inc(f'wat.{name}')\n"       # pinned unknown family
        "    registry.inc(name)\n"                # fully dynamic: fine
        "    registry.lookup('Not.A.Metric')\n"   # other callee: fine
    )
    problems = astlint.naming_violations(sample)
    assert len(problems) == 4, problems
    assert ":2:" in problems[0] and "bogus" in problems[0]
    assert ":3:" in problems[1]
    assert ":4:" in problems[2]
    assert ":7:" in problems[3] and "wat" in problems[3]
    report = tmp_path / "repro" / "cli.py"  # report surface is exempt
    report.write_text("def f(bus):\n    bus.emit('whatever text')\n")
    assert astlint.naming_violations(report) == []
