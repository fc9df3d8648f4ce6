# Convenience targets for the FBS reproduction.

PYTHON ?= python3

# Run against the source tree directly (the ROADMAP tier-1 command);
# no editable install needed.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test loc lint lint-docs obs-check resilience-smoke load-smoke transport-smoke gateway-smoke traces-smoke traces-sweep bench figures budget-smoke examples reports reports-check clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest -x -q

# src/ line counts per package, largest first, over every file git
# would track (a module not yet `git add`-ed counts too): the number
# behind ROADMAP's "least code" aim (CI appends it to the test job's
# summary).
loc:
	@git ls-files --cached --others --exclude-standard 'src/repro/*.py' | xargs wc -l | awk '$$2 != "total" { n = split($$2, part, "/"); pkg = (n > 3) ? part[3] : "(top level)"; lines[pkg] += $$1; total += $$1 } END { for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg; printf "%7d  total\n", total }' | sort -k1,1nr -k2

# fbslint: the whole-program protocol-invariant analyzer (ten rules,
# FBS001-FBS012, interprocedural). Exit codes: 0 clean, 1 findings,
# 2 usage/analysis error.  For local use; CI asserts it in tier-1
# (tests/analysis/test_cli.py::TestExitCodes::test_whole_tree_is_clean).
lint:
	$(PYTHON) -m repro.analysis src

# Verify the DESIGN.md "Enforced invariants" table matches the rule
# registry (regenerate with `python -m repro.analysis --write-docs`).
# For local use; CI asserts it in tier-1
# (tests/analysis/test_v2_features.py::TestDocsSync::test_repo_docs_are_in_sync).
lint-docs:
	$(PYTHON) -m repro.analysis --check-docs

# Observability: end-to-end trace/registry/cache parity selftest plus
# docs coverage (every event + metric documented) and link checks.
# For local use; CI asserts both in tier-1 (tests/obs/test_cli.py::
# test_selftest_passes and ::test_check_docs_passes_on_this_repo).
obs-check:
	$(PYTHON) -m repro.obs --selftest
	$(PYTHON) -m repro.obs check-docs --root .

# Fault-injection campaign (CI tier): run the seeded smoke matrix
# twice; fail on any invariant violation (CLI exit 1) or on report
# nondeterminism (cmp).
resilience-smoke:
	$(PYTHON) -m repro.resilience --smoke --seed 0 --out /tmp/FBS_resilience_a.json
	$(PYTHON) -m repro.resilience --smoke --seed 0 --out /tmp/FBS_resilience_b.json
	cmp /tmp/FBS_resilience_a.json /tmp/FBS_resilience_b.json

# Sharded load engine (CI tier): run the 2-worker smoke twice; fail on
# report nondeterminism (cmp), on any ledger/merge-exactness violation
# (CLI exit 1 -- --smoke runs the workers-vs-single merge check), or if
# the aggregate goodput somehow dips below the best single shard.
load-smoke:
	$(PYTHON) -m repro.load --smoke --workers 2 --seed 0 --out /tmp/FBS_load_smoke_a.json
	$(PYTHON) -m repro.load --smoke --workers 2 --seed 0 --out /tmp/FBS_load_smoke_b.json
	cmp /tmp/FBS_load_smoke_a.json /tmp/FBS_load_smoke_b.json
	$(PYTHON) -c 'import json; r = json.load(open("/tmp/FBS_load_smoke_a.json")); agg = r["aggregate"]["goodput_dps"]; best = max(w["goodput_dps"] for w in r["workers"]); assert agg >= best, (agg, best); print("load-smoke: aggregate %.1f dps >= best shard %.1f dps; merge %s" % (agg, best, r["merge_check"]["result"]))'

# Real-socket transport (CI tier): run the UDP echo demo twice over
# loopback; fail on any lost exchange (CLI exit 1) or on report
# nondeterminism (cmp -- the report is ledger-only, so a lossless run
# is byte-stable even on real sockets).
transport-smoke:
	$(PYTHON) -m repro.transport --demo udp-echo --out /tmp/FBS_transport_a.json
	$(PYTHON) -m repro.transport --demo udp-echo --out /tmp/FBS_transport_b.json
	cmp /tmp/FBS_transport_a.json /tmp/FBS_transport_b.json

# Multi-tenant gateway (CI tier): drive the seeded workload twice with
# capacity eviction in play (--max-tenants below --tenants); fail on any
# ledger/registry inconsistency (CLI exit 1) or on report
# nondeterminism (cmp -- the report is ledger-only and byte-stable).
gateway-smoke:
	$(PYTHON) -m repro.gateway --tenants 6 --flows 2 --rounds 6 --max-tenants 4 --seed 0 --out /tmp/FBS_gateway_a.json
	$(PYTHON) -m repro.gateway --tenants 6 --flows 2 --rounds 6 --max-tenants 4 --seed 0 --out /tmp/FBS_gateway_b.json
	cmp /tmp/FBS_gateway_a.json /tmp/FBS_gateway_b.json

# Heavy-tailed trace sweep (CI tier): run the smoke THRESHOLD/cache
# grid twice; fail on any Figure 11/13 gate (CLI exit 1) or on report
# nondeterminism (cmp).
traces-smoke:
	$(PYTHON) -m repro.traces sweep --profile smoke --seed 0 --out /tmp/BENCH_traces_a.json
	$(PYTHON) -m repro.traces sweep --profile smoke --seed 0 --out /tmp/BENCH_traces_b.json
	cmp /tmp/BENCH_traces_a.json /tmp/BENCH_traces_b.json

# Regenerate the checked-in full-profile report (nightly tier, ~2 min).
traces-sweep:
	$(PYTHON) benchmarks/bench_traces.py --json BENCH_traces.json

# The cost budget (BENCHMARK.json, benchmarks/budget/), the one place a
# cost is measured: six workloads in interleaved windows, then their
# traced ladders.
bench:
	$(PYTHON) benchmarks/budget/run.py --out /tmp/FBS_budget.json

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
# regenerate byte-identically (per-PR and nightly): the security matrix (with
# its seven cell assertions), Figure 8 and the ablations.
# ablation_confounder.txt prints wall-clock microseconds and is exempt.
reports-check:
	$(PYTHON) -m pytest -q benchmarks/bench_security_matrix.py benchmarks/bench_fig08_throughput.py benchmarks/bench_ablations.py --benchmark-only
	git diff --exit-code -- benchmarks/reports ':!benchmarks/reports/ablation_confounder.txt'

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis
