# Convenience targets; GNU make, no external dependencies.

PYTHON ?= python

.PHONY: install test lint bench perfbench perfbench-ab chaos reproduce examples clean loc

install:
	$(PYTHON) -m pip install -e '.[test]' --no-build-isolation || \
	  echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth"

# Tier-1: every path under pyproject's testpaths (tests/ and perfbench/tests).
test:
	$(PYTHON) -m pytest

# AST lint: no silent exception handlers, no bare print() outside the
# report surface.  The same checks run under tier-1 via
# tests/test_lint_exceptions.py.
lint:
	$(PYTHON) tools/astlint.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository's one benchmark (see BENCHMARK.json): one short pass of
# each workload.  Every pass checks its cell and job digests against
# perfbench/digests.json; a mismatch or a failed job fails the target.
PERFBENCH_WORKLOADS = fig5-cold grids-store-2 serve-churn

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
	  out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 7 --seconds 1 --trace 0) || exit 1; \
	  echo "$$out"; \
	  echo "$$out" | tail -n 1 | $(PYTHON) -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])' || exit 1; \
	done

# A/B of one workload: BASE (exported with git archive into a temporary
# directory) against the working tree, in alternating untraced pairs,
# with each end-to-end metric's medians, quartiles, pairs won and gain
# verdict (tools/perfbench_ab.py).
BASE ?= HEAD~1
WORKLOAD ?= fig5-cold
PAIRS ?= 10
SEED ?= 7

perfbench-ab:
	$(PYTHON) tools/perfbench_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Fault-injection seed matrix: every injected fault must be survived
# with results bit-identical to a fault-free run (see DESIGN.md).
chaos:
	$(PYTHON) -m pytest tests/ -m chaos
	$(PYTHON) -m repro.cli chaos

# Regenerate the paper's tables/figures without pytest.
reproduce:
	$(PYTHON) -m repro.cli reproduce

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# Line counts, plus the two numbers each ROADMAP re-anchor records: Python
# lines in src/ and distinct REPRO_* string literals (env knobs) in src/.
loc:
	find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
	@echo "src python lines: $$(find src -name '*.py' | xargs cat | wc -l)"
	@echo "src REPRO_* names: $$(grep -rhoE "[\"']REPRO_[A-Z0-9_]+[\"']" src --include='*.py' | tr -d "\"'" | sort -u | wc -l)"

# Untracked caches only: benchmarks/results holds committed artifacts.
clean:
	rm -rf .pytest_cache .hypothesis .perfbench-scratch
	find . -name __pycache__ -type d -exec rm -rf {} +
