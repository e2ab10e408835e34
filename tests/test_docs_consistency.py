"""Documentation consistency checks.

Docs drift; these tests pin the claims that are cheap to verify
mechanically: every module named in DESIGN.md imports, the README's
quickstart snippet runs, every example is a runnable script with a
docstring and a main(), and the CLI help lists what the README promises.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def iter_repro_modules():
    src = REPO / "src" / "repro"
    for path in src.rglob("*.py"):
        rel = path.relative_to(src.parent)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith("__init__"):
            module = module[: -len(".__init__")]
        yield module


class TestModuleInventory:
    def test_every_source_module_imports(self):
        for module in iter_repro_modules():
            importlib.import_module(module)

    def test_design_md_module_references_exist(self):
        text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for match in re.finditer(r"`repro[./][\w./]+`", text):
            ref = match.group(0).strip("`")
            module = ref.replace("/", ".").removesuffix(".py")
            importlib.import_module(module.split("::")[0])

    def test_every_module_has_docstring(self):
        for module in iter_repro_modules():
            mod = importlib.import_module(module)
            assert mod.__doc__, f"{module} lacks a module docstring"


class TestReadme:
    def test_quickstart_snippet_runs(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README lost its python quickstart block"
        snippet = blocks[0].replace('scale=2048', 'scale=16384')
        namespace: dict = {}
        exec(compile(snippet, "<readme>", "exec"), namespace)  # noqa: S102

    def test_all_listed_examples_exist(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        for match in re.finditer(r"python (examples/[\w_]+\.py)", text):
            assert (REPO / match.group(1)).exists(), match.group(1)

    def test_docs_files_exist(self):
        for name in ("architecture.md", "api.md", "faq.md"):
            assert (REPO / "docs" / name).exists()


class TestExamples:
    @pytest.mark.parametrize(
        "path", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_shape(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name}: missing docstring"
        assert "Run with" in ast.get_docstring(tree) or "Run with" in path.read_text(
            encoding="utf-8"
        ), f"{path.name}: docstring should say how to run it"
        names = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, f"{path.name}: no main()"

    def test_at_least_eight_examples(self):
        assert len(list((REPO / "examples").glob("*.py"))) >= 8


class TestCliDocumentation:
    def test_readme_cli_commands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.dest == "command"
        )
        available = set(sub.choices)
        for cmd in ("run", "datasets", "sweep", "migrate", "reproduce", "summary"):
            assert cmd in available

    def test_documented_commands_and_flags_exist(self):
        """Every ``repro`` command line in the docs parses against the CLI.

        A mention is ``python -m repro.cli CMD [SUB]`` or an inline
        `` `repro CMD [SUB]` ``.  CMD must be a registered subcommand; a
        nested parser (``store``) also checks SUB, where ``ls|rm|stat``
        names several.  Every ``--flag`` between the mention and the
        next one on the same line must be an option of that parser.
        """
        from repro.cli import build_parser

        docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        docs += [str(p.relative_to(REPO)) for p in sorted((REPO / "docs").glob("*.md"))]
        mention = re.compile(r"python -m repro\.cli\s+|`repro\s+")
        flag = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
        root = build_parser()
        problems = []
        for doc in docs:
            lines = (REPO / doc).read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, 1):
                starts = [m.end() for m in mention.finditer(line)]
                for start, end in zip(starts, starts[1:] + [len(line)]):
                    segment = line[start:end]
                    where = f"{doc}:{lineno}: {segment.strip()!r}"
                    tokens = segment.replace("`", " ").split()
                    parsers, problem = _resolve(root, tokens)
                    if problem:
                        problems.append(f"{where}: {problem}")
                        continue
                    for option in flag.findall(segment):
                        if any(option not in p._option_string_actions for p in parsers):
                            problems.append(f"{where}: no option {option}")
        assert not problems, "\n".join(problems)


def _subcommands(parser) -> dict:
    """A parser's subcommand table (empty when it takes none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _resolve(root, tokens) -> tuple[list, str]:
    """The parser(s) a documented ``CMD [SUB[|SUB...]]`` names."""
    if not tokens:
        return [], "no subcommand"
    command = _subcommands(root).get(tokens[0])
    if command is None:
        return [], f"unknown subcommand {tokens[0]!r}"
    verbs = _subcommands(command)
    if not verbs or len(tokens) < 2 or tokens[1].startswith("-"):
        return [command], ""
    names = re.split(r"[|/]", tokens[1])
    unknown = [name for name in names if name not in verbs]
    if unknown:
        return [], f"unknown {tokens[0]} verb(s) {unknown}"
    return [verbs[name] for name in names], ""


def _source_strings() -> tuple[set[str], set[str]]:
    """Every string literal under ``src/``, and every f-string's leading literal."""
    literals: set[str] = set()
    prefixes: set[str] = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and isinstance(head.value, str):
                    prefixes.add(head.value)
    return literals, prefixes


class TestEnvKnobs:
    def test_documented_env_vars_are_read_by_the_source(self):
        """A ``REPRO_*`` name in the docs must be a string literal in ``src/``.

        Docstrings and comments do not count: a knob is read only where
        its name is a value the code passes to the environment lookup.
        """
        read, _ = _source_strings()
        unread = [
            f"{doc}: {name}"
            for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
            for name in sorted(
                set(re.findall(r"REPRO_[A-Z_]+", (REPO / doc).read_text("utf-8")))
            )
            if name not in read
        ]
        assert not unread, f"documented knobs nothing reads: {unread}"


class TestMetricNames:
    def test_documented_metrics_are_named_by_the_source(self):
        """A backticked ``<family>.<name>`` in the docs must be emitted by ``src/``.

        ``<family>`` is a key of :data:`repro.obs.naming.FAMILIES`.  The
        full name must be a string literal under ``src/``, or start with
        the leading literal of an f-string that pins its family (the
        ``traffic.{tier}...`` shape).  Docstrings do not count: a whole
        docstring is never equal to one name.
        """
        from repro.obs.naming import FAMILIES

        literals, prefixes = _source_strings()
        dynamic = {
            prefix
            for prefix in prefixes
            if "." in prefix and prefix.split(".", 1)[0] in FAMILIES
        }
        name = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+)`")
        missing = [
            f"{doc}: {metric}"
            for doc in ("README.md", "DESIGN.md")
            for metric in sorted(
                set(name.findall((REPO / doc).read_text("utf-8")))
            )
            if metric.split(".", 1)[0] in FAMILIES
            and metric not in literals
            and not any(metric.startswith(prefix) for prefix in dynamic)
        ]
        assert not missing, f"documented names nothing emits: {missing}"
