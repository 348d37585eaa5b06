PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast claims sweep campaign faults profile trace fidelity \
	golden golden-refresh reliability ftl tenants perfbench

# Tier-1 verification: the full unit/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# Skip tests marked `slow` (the heavy benchmark sweeps).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# The paper's claims: every benchmarks/test_*.py (Fig. 2-6, Table I and
# the five ablations) at its default size, about 140 s.  Without -x, so
# one run reports every claim that no longer holds.
claims:
	$(PYTHON) -m pytest -q benchmarks/test_*.py

# Simulator benchmark smoke: the perfbench harness self-test, then one
# gated run of each of the four workloads against the committed
# references, plus the two fast-chain workloads at a second seed (17),
# as CI does (see perfbench/README.md for the full benchmark).
perfbench:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload fig3_sw_cycle --seed 0 \
		--seconds 12 --trace 0
	$(PYTHON) perfbench/run.py --workload campaign_grid --seed 0 \
		--seconds 12 --trace 0
	$(PYTHON) perfbench/run.py --workload ftl_dftl_steady --seed 0 \
		--seconds 2 --trace 0
	$(PYTHON) perfbench/run.py --workload tenants_mix_fast --seed 0 \
		--seconds 2 --trace 0
	$(PYTHON) perfbench/run.py --workload ftl_dftl_steady --seed 17 \
		--seconds 2 --trace 0
	$(PYTHON) perfbench/run.py --workload tenants_mix_fast --seed 17 \
		--seconds 2 --trace 0

# Fault-injection determinism check: the seeded campaign must produce
# byte-identical JSON across two runs (and across worker counts).
faults:
	$(PYTHON) -m repro faults --json --workers 1 > /tmp/repro-faults-a.json
	$(PYTHON) -m repro faults --json --workers 4 > /tmp/repro-faults-b.json
	cmp /tmp/repro-faults-a.json /tmp/repro-faults-b.json
	@echo "faults campaign deterministic across worker counts"

# Observability smoke: run a tiny profiled workload, export a Chrome
# trace and validate it against the trace_event format rules.
profile:
	$(PYTHON) -m repro profile --workload SR --commands 120 \
		--trace-out /tmp/repro-profile-trace.json
	$(PYTHON) tools/validate_trace.py /tmp/repro-profile-trace.json
	@echo "profile smoke OK (trace validates)"

# Sweep-engine tier: serial/parallel identity, the result cache, and
# serial == 4 workers == warm-cache rerun on the Fig. 3 grid (the warm
# rerun simulates nothing).
sweep:
	$(PYTHON) -m pytest -x -q tests/core/test_sweep_determinism.py \
		tests/core/test_sweep_cache.py \
		tests/core/test_fig3_grid.py::test_sweep_modes_agree

# Campaign-engine tier: two workers on the golden fig3 points, one
# SIGKILLed while it holds a lease, resume to the golden payloads; then
# adaptive exploration of the fig3 grid reaches the exhaustive frontier
# within half the grid at cycle fidelity.
campaign:
	$(PYTHON) -m pytest -x -q \
		tests/core/test_fig3_grid.py::test_golden_crash_resume_matches_golden \
		tests/core/test_fig3_grid.py::test_adaptive_reaches_exhaustive_frontier

# Reliability-campaign determinism check: the Monte-Carlo campaign must
# produce byte-identical JSON across worker counts (fresh directories so
# neither run serves the other's cache).
reliability:
	rm -rf /tmp/repro-rel-w1 /tmp/repro-rel-w4
	$(PYTHON) -m repro reliability run /tmp/repro-rel-w1 --workers 1 \
		--replicas 8 --fractions 1.0 --commands 48 --json --quiet \
		> /tmp/repro-rel-a.json
	$(PYTHON) -m repro reliability run /tmp/repro-rel-w4 --workers 4 \
		--replicas 8 --fractions 1.0 --commands 48 --json --quiet \
		> /tmp/repro-rel-b.json
	cmp /tmp/repro-rel-a.json /tmp/repro-rel-b.json
	@echo "reliability campaign deterministic across worker counts"

# FTL scheme-zoo smoke: list the registered schemes, sweep three of them
# across a DRAM budget on the bundled trace (analytic WAF cross-check
# included) and require byte-identical JSON across worker counts.
ftl:
	$(PYTHON) -m repro ftl schemes
	$(PYTHON) -m repro ftl sweep --schemes pagemap,groupmap,dftl \
		--dram-budgets 8192 --commands 60 --workers 1 --json \
		> /tmp/repro-ftl-a.json
	$(PYTHON) -m repro ftl sweep --schemes pagemap,groupmap,dftl \
		--dram-budgets 8192 --commands 60 --workers 4 --json \
		> /tmp/repro-ftl-b.json
	cmp /tmp/repro-ftl-a.json /tmp/repro-ftl-b.json
	@echo "ftl sweep deterministic across worker counts"

# Multi-tenant serving smoke: run a 3-tenant mix, print the pairwise
# interference report, and require the tenant-count x policy sweep to be
# byte-identical across worker counts.
tenants:
	$(PYTHON) -m repro tenants run --tenants 3 --policy wrr
	$(PYTHON) -m repro tenants report --tenants 2
	$(PYTHON) -m repro tenants sweep --counts 1,2 --workers 1 --json \
		> /tmp/repro-tenants-a.json
	$(PYTHON) -m repro tenants sweep --counts 1,2 --workers 4 --json \
		> /tmp/repro-tenants-b.json
	cmp /tmp/repro-tenants-a.json /tmp/repro-tenants-b.json
	@echo "tenant sweep deterministic across worker counts"

# Trace-ingestion smoke: characterize, replay and format-convert the
# bundled sample trace end to end through the CLI, then sweep it across
# two design points and require its --json stdout to parse as one JSON
# document.
trace:
	$(PYTHON) -m repro trace characterize examples/sample_msr.csv
	$(PYTHON) -m repro trace replay examples/sample_msr.csv
	$(PYTHON) -m repro trace convert examples/sample_msr.csv \
		/tmp/repro-sample.trace --to native
	$(PYTHON) -m repro trace characterize /tmp/repro-sample.trace --json \
		> /dev/null
	$(PYTHON) -m repro trace sweep examples/sample_msr.csv --configs C1,C6 \
		--commands 60 --workers 1 --json > /tmp/repro-trace-sweep.json
	$(PYTHON) -c 'import json, sys; json.load(sys.stdin)' \
		< /tmp/repro-trace-sweep.json
	@echo "trace smoke OK (characterize + replay + convert + sweep --json)"

# Fidelity-dial benchmark: calibrate the fast paths, replay the sample
# trace at both fidelity levels, enforce the ceiling on the fast replay's
# cost at the reference host speed (median of 10, normalized by
# perfbench/hostspeed.py) and the <=5% error bounds; refreshes
# BENCH_fidelity.json.
fidelity:
	$(PYTHON) benchmarks/bench_fidelity.py

# Golden-figure regression tier only (also part of `make test`).
golden:
	$(PYTHON) -m pytest -x -q tests/golden

# Re-baseline the golden figures after an *intentional* behavior change;
# review the resulting tests/golden/*.json diff like code.
golden-refresh:
	$(PYTHON) tools/refresh_goldens.py
