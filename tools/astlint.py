"""AST lint over ``src/repro``: exception hygiene and output discipline.

Five checks, all pure ``ast`` walks (no third-party linter):

- **No silent exception swallowing.**  A bare ``except:`` (which also
  catches ``KeyboardInterrupt``/``SystemExit``) or an ``except
  Exception: pass`` turns an injected fault — or a real bug — into
  silence, defeating the chaos matrix and the consistency audits.
  Broad catches that *handle* (retry, roll back, wrap and re-raise)
  are fine; catching everything and doing nothing is not.

- **No bare ``print()`` outside the report surface.**  Library code
  must signal through the observability plane (:mod:`repro.obs`) so
  runs stay quiet, parseable, and deterministic; only the CLI and the
  bench report/regression output are allowed to write to stdout.

- **No fire-and-forget ``asyncio.create_task``.**  A task whose handle
  is neither stored nor awaited can be garbage-collected mid-flight,
  and its exceptions vanish into the loop's default handler — the
  serving layer (:mod:`repro.serve`) exists to make failures *typed*,
  so an untracked task is the same bug as a silent ``except``.  Store
  the handle (the service keeps its dispatcher task on ``self``) or
  await it.

- **No assigned-but-unused locals.**  A plain ``name = ...`` inside a
  function whose name is never read again is dead weight at best and a
  stale refactor remnant at worst (the kind that hides a dropped side
  effect).  Names starting with ``_`` are allowlisted — that prefix is
  the idiom for "intentionally discarded".  Only simple single-name
  assignments are checked; tuple unpacking and loop targets routinely
  discard legitimately.

- **Instrumentation names follow the taxonomy.**  Every literal name
  passed to ``inc``/``gauge``/``observe``/``span``/``instant``/
  ``emit`` must be a lowercase dotted ``family.name``
  whose family is registered in :data:`repro.obs.naming.FAMILIES` —
  one table, one shape, so dashboards never have to union spelling
  variants.  F-string names are pinned by their leading literal family
  prefix; fully dynamic names pass (nothing checkable statically).
  The report-surface files in :data:`PRINT_ALLOWED` are exempt — their
  ``emit`` is the artifact writer, not the event bus.

Run standalone (``make lint`` / ``python tools/astlint.py``) or through
the tier-1 test ``tests/test_lint_exceptions.py``, which imports this
module by path and asserts all checks come back clean.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BROAD_NAMES = {"Exception", "BaseException"}

#: Files (relative to ``src/repro``) whose job *is* terminal output.
PRINT_ALLOWED = {
    "cli.py",
    "bench/report.py",
}

def _rel(path: Path) -> Path:
    """``path`` relative to the source root, or as-is outside it."""
    try:
        return path.relative_to(SRC)
    except ValueError:
        return path


def _broad_names(node: ast.expr | None) -> bool:
    """Whether an except clause's type includes Exception/BaseException."""
    if node is None:  # bare except
        return True
    if isinstance(node, ast.Name):
        return node.id in BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(_broad_names(el) for el in node.elts)
    return False


def _is_silent(body: list[ast.stmt]) -> bool:
    """A handler body that does nothing: only pass/``...`` statements."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a bare docstring or `...`
        return False
    return True


def silent_handler_violations(path: Path) -> list[str]:
    """Silent broad exception handlers in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        where = f"{_rel(path)}:{node.lineno}"
        if node.type is None:
            problems.append(f"{where}: bare `except:`")
        elif _broad_names(node.type) and _is_silent(node.body):
            problems.append(f"{where}: `except Exception` with empty body")
    return problems


def print_violations(path: Path) -> list[str]:
    """Bare ``print()`` calls in one file, unless it is report surface."""
    repro_root = SRC / "repro"
    try:
        relative = path.relative_to(repro_root).as_posix()
    except ValueError:
        return []  # outside the package (namespace stubs etc.)
    if relative in PRINT_ALLOWED:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            problems.append(
                f"{_rel(path)}:{node.lineno}: bare print() — "
                "emit through repro.obs or return text to the CLI"
            )
    return problems


def _is_create_task_call(node: ast.expr) -> bool:
    """Whether an expression is a ``create_task(...)`` call.

    Matches both the module function (``asyncio.create_task``) and the
    loop method (``loop.create_task``) by attribute name, plus a bare
    ``create_task`` name import.
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "create_task"
    if isinstance(func, ast.Name):
        return func.id == "create_task"
    return False


def fire_and_forget_task_violations(path: Path) -> list[str]:
    """``create_task(...)`` calls whose handle is silently dropped.

    An ``ast.Expr`` statement wrapping the call means the returned task
    object is discarded on the spot: nothing can await it, cancel it,
    or observe its exception, and CPython is free to collect it while
    it is still running.  ``await create_task(...)`` is not flagged —
    there the statement's value is the ``Await`` node, not the call.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and _is_create_task_call(node.value):
            problems.append(
                f"{_rel(path)}:{node.lineno}: fire-and-forget "
                "create_task() — store the task handle or await it"
            )
    return problems


def _own_scope_nodes(func: ast.AST):
    """The nodes of one function's own scope (nested scopes excluded)."""
    for child in ast.iter_child_nodes(func):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield child
        yield from _own_scope_nodes(child)


def unused_local_violations(path: Path) -> list[str]:
    """Locals assigned once via a simple name and never read afterwards.

    Uses are counted over the *whole* function subtree (closures reading
    an outer local are uses), while assignments are only collected from
    the function's own scope, so an inner function's locals are never
    misattributed to its parent.  ``global``/``nonlocal`` names and
    ``_``-prefixed names are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, int] = {}
        escaping: set[str] = set()
        for node in _own_scope_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                escaping.update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    assigned.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    assigned.setdefault(target.id, node.lineno)
        if not assigned:
            continue
        used: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Load, ast.Del)
            ):
                used.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                used.add(node.target.id)
        for name, lineno in sorted(assigned.items(), key=lambda kv: kv[1]):
            if name in used or name in escaping:
                continue
            problems.append(
                f"{_rel(path)}:{lineno}: local `{name}` assigned "
                "but never used — drop it or prefix with `_`"
            )
    return problems


#: Call names whose literal first argument is an instrumentation name.
METRIC_NAME_CALLS = {"inc", "gauge", "observe", "span", "instant", "emit"}

_NAMING = None


def _naming():
    """The taxonomy module, loaded by file path (no package import).

    ``tools/astlint.py`` runs standalone without ``src`` on the path,
    and importing the ``repro.obs`` package would pull in the whole
    observability plane just to read one table — so load ``naming.py``
    directly; it only depends on ``re``.
    """
    global _NAMING
    if _NAMING is None:
        import importlib.util

        source = SRC / "repro" / "obs" / "naming.py"
        spec = importlib.util.spec_from_file_location("_astlint_naming", source)
        _NAMING = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_NAMING)
    return _NAMING


def naming_violations(path: Path) -> list[str]:
    """Taxonomy-breaking instrumentation names in one source file."""
    repro_root = SRC / "repro"
    try:
        relative = path.relative_to(repro_root).as_posix()
    except ValueError:
        return []
    if relative in PRINT_ALLOWED:
        return []
    naming = _naming()
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            call_name = func.attr
        elif isinstance(func, ast.Name):
            call_name = func.id
        else:
            continue
        if call_name not in METRIC_NAME_CALLS:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            problem = naming.check_name(first.value)
        elif (
            isinstance(first, ast.JoinedStr)
            and first.values
            and isinstance(first.values[0], ast.Constant)
            and isinstance(first.values[0].value, str)
        ):
            problem = naming.check_family_prefix(str(first.values[0].value))
        else:
            continue
        if problem:
            problems.append(f"{_rel(path)}:{node.lineno}: {problem}")
    return problems


def run_lint(root: Path = SRC) -> list[str]:
    """All violations under ``root``, sorted by file and line."""
    files = sorted(root.rglob("*.py"))
    if not files:
        return [f"no sources found under {root}"]
    problems: list[str] = []
    for path in files:
        problems.extend(silent_handler_violations(path))
        problems.extend(print_violations(path))
        problems.extend(fire_and_forget_task_violations(path))
        problems.extend(unused_local_violations(path))
        problems.extend(naming_violations(path))
    return problems


def main() -> int:
    problems = run_lint()
    if problems:
        print(f"astlint: {len(problems)} violation(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("astlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
