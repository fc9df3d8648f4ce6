# Convenience targets for the FBS reproduction.

PYTHON ?= python3

# Run against the source tree directly (the ROADMAP tier-1 command);
# no editable install needed.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test loc lint obs-check smoke traces-sweep bench pairs crossovers figures budget-smoke examples reports reports-check clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest -x -q

# src/ line counts per package, largest first, over every file git
# would track that is in the working tree (a module not yet `git add`-ed
# counts, one deleted but not yet staged does not): physical lines, then
# lines counted as code (no blank, comment-only or docstring lines) --
# the numbers behind ROADMAP's "least code" aim (CI appends them to the
# test job's summary).
loc:
	@$(PYTHON) tools/loc.py

# fbslint: whole-program key taint (FBS001), the one check running code
# cannot make (a run sees only the paths it takes; EXPERIMENTS.md
# "fbslint keeps key taint").  Exit codes: 0 clean, 1 findings, 2
# usage/analysis error.  For local use; CI asserts it in tier-1
# (tests/analysis/test_cli.py::TestExitCodes::test_whole_tree_is_clean).
lint:
	$(PYTHON) -m repro.analysis src

# Observability docs coverage (every event + metric documented) and
# link checks.  For local use; CI asserts it in tier-1
# (tests/obs/test_cli.py::test_check_docs_passes_on_this_repo).  That
# a trace folds to the live registry is tests/obs/test_registry.py::TestFold.
obs-check:
	$(PYTHON) -m repro.obs check-docs --root .

# Same seed, same bytes: every report producer (the resilience, load,
# transport, gateway and traces smoke runs, fbslint, obs summarize)
# under two PYTHONHASHSEED values, the second with every wall clock
# 10^6 s ahead, the blocking-call audit hook on and key canaries
# recorded -- exit status (invariant violations, merge exactness, lost
# exchanges, ledger mismatches, Figure 11/13 gates: CLI exit 1) and
# stdout bytes must agree, and no recorded key may appear in that
# side's outputs.  Part of tier-1; this target runs it alone.
smoke:
	$(PYTHON) -m pytest -q tests/test_report_determinism.py

# Regenerate the checked-in full-profile report (nightly tier, ~2 min).
traces-sweep:
	$(PYTHON) benchmarks/bench_traces.py --json BENCH_traces.json

# The cost budget (BENCHMARK.json, benchmarks/budget/), the one place a
# cost is measured: six workloads in interleaved windows, then their
# traced ladders.
bench:
	$(PYTHON) benchmarks/budget/run.py --out /tmp/FBS_budget.json

# Parent against change, alternating budget runs from two trees, one
# Markdown row per workload and metric (medians, quartiles, ratio, pairs
# won).  PARENT is a fresh copy of the parent commit, e.g.
#   mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
# WORKLOAD empty means all six.
PAIRS ?= 6
SECONDS ?= 12
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=DIR [WORKLOAD=W] [PAIRS=N] [SECONDS=S]"; exit 2; }
	$(PYTHON) tools/pairs.py --parent $(PARENT) $(if $(WORKLOAD),--workload $(WORKLOAD)) --pairs $(PAIRS) --seconds $(SECONDS)

# Lane against scalar per stage and width, alternating windows, best of
# nine: the sweep behind SINGLE_LANE_MIN_BLOCKS, CBC_ENCRYPT_MIN_LANES
# and the MAC stages' n >= 2, then the DES lane pass by width beside its
# numpy calls a round (EXPERIMENTS.md "Single-lane crossover", "Lane
# crossovers by stage", "DES lane pass"; ~1 min).
crossovers:
	$(PYTHON) tools/crossover.py

# The same at smoke length, then the manifest/schema and
# count-repeatability tests.  Gates outputs, not speed.
budget-smoke:
	$(PYTHON) benchmarks/budget/run.py --smoke
	$(PYTHON) -m pytest -q benchmarks/budget/test_budget_smoke.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

# The paper's figures, ablations and security matrix on the simulated
# testbed (the pytest-benchmark scripts behind EXPERIMENTS.md).
figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate benchmarks/reports/*.txt (the EXPERIMENTS.md inputs).
reports: figures
	@ls -1 benchmarks/reports/

# The reports a change to the simulated testbed can move must
# regenerate byte-identically (per-PR and nightly): the security matrix (every
# cell checked against the knowledge closure of tests/spec/knowledge.py, the
# check tier-1 also runs as tests/attacks/test_grid.py), Figure 8 and the
# ablations.
# ablation_confounder.txt prints wall-clock microseconds and is exempt.
reports-check:
	$(PYTHON) -m pytest -q benchmarks/bench_security_matrix.py benchmarks/bench_fig08_throughput.py benchmarks/bench_ablations.py --benchmark-only
	git diff --exit-code -- benchmarks/reports ':!benchmarks/reports/ablation_confounder.txt'

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis
