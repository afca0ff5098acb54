# Developer entry points for the reproduction repository.

PY ?= python

.PHONY: install test lint campaign-smoke chaos-smoke obs-smoke oracle-check accel-check bench report report-small report-check claims docs examples clean

install:
	pip install -e .[test]

test:
	PYTHONPATH=src $(PY) -m pytest tests/ -q
	$(MAKE) campaign-smoke

# Style gate (ruff, when installed) + kernel static analyzer over every
# registered workload. The analyzer exits non-zero on any error-severity
# finding; ruff degrades to a notice in environments without it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping Python style checks"; \
	fi
	PYTHONPATH=src $(PY) -m repro.staticanalysis

# End-to-end campaign-engine self-test: run a tiny resumable EPR, gate
# and rtl-avf campaign, simulate an interrupt, resume each, and verify
# the results (EPR counts, gate records, AVF rows and syndromes) and the
# ledger's accel totals match an uninterrupted run (and that the EPR
# golden-run cache hit rate exceeds 90% and a resume with empty in-memory
# caches recomputes no golden run or trace).
campaign-smoke:
	PYTHONPATH=src $(PY) -m repro.campaign smoke

# Resilience self-test: re-run the campaign smoke under injected worker
# kills/hangs, torn writes, bit flips and ENOSPC; verify + repair the
# damaged store, resume, and assert the aggregate equals a fault-free
# run (docs/RESILIENCE.md).
chaos-smoke:
	PYTHONPATH=src $(PY) -m repro.campaign chaos-smoke

# Observability self-test: trace a tiny EPR campaign, export the chrome
# trace, and verify the trace schema and the trace against the ledger
# (one engine.unit span per stored unit; epr.inject spans == ledger
# items - accel.collapsed).
obs-smoke:
	PYTHONPATH=src $(PY) -m repro.obs smoke

# Reference-path anchor: recompute each benchmark workload's accel=False
# outcomes and exit 1 unless they match the frozen perfbench/oracle.json
# (the --no-accel setting shares its replay loop with the shortcuts, so
# this stored file is its code-independent check).
oracle-check:
	for w in gate-units epr-short epr-hang; do \
		PYTHONPATH=src $(PY) perfbench/run.py --workload $$w --oracle check \
			|| exit 1; \
	done

# Shortcut anchor: run the accelerated benchmark workloads (the one hang
# detector's loop watch proves epr-hang's lenet/mxm IAL and IOC hangs
# exact cycles and hands its lenet/IMS count-up loops to the affine
# fast-forward; epr-short's inert IAL descriptors take the inert shortcut,
# gate-units the dynamic fault dropping,
# stimuli dedup, packed golden run and per-stimulus classification;
# docs/PERFORMANCE.md) and
# exit 1 unless each last JSON line reports "correct": true, i.e. every
# accelerated outcome matched the frozen perfbench/oracle.json item by
# item.
accel-check:
	for w in epr-hang epr-short gate-units; do \
		PYTHONPATH=src $(PY) perfbench/run.py --workload $$w --seconds 1 \
			--trace 0 | tail -n 1 | $(PY) -c "import json, sys; \
	sys.exit(0 if json.load(sys.stdin)['correct'] is True else 1)" \
			|| exit 1; \
	done

# Figure and table regenerations plus the costs perfbench cannot see
# (pooled throughput, the cold-replay speedup, ablations, overhead
# budgets). perfbench/run.py is the one harness that times and gates the
# campaigns (docs/PERFORMANCE.md).
bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only -q

report:
	PYTHONPATH=src $(PY) -m repro.experiments --output experiments_report.txt

report-small:
	PYTHONPATH=src $(PY) -m repro.experiments --preset small --output experiments_report.txt

# Report anchor: regenerate the tiny report (~40 s) and exit 1 unless it
# equals the committed experiments_report.txt, leaving out only the lines
# that report a time: the cost model's measured costs, the hours and
# speedup derived from them, and the wall-time line.
REPORT_TIMES = ^measured .* cost .*\(s\)|\(simulated hours\)|^speedup \(orders of magnitude\)|^\(total wall time

report-check:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PY) -m repro.experiments --output $$tmp/report.txt \
		> /dev/null && \
	grep -Ev '$(REPORT_TIMES)' experiments_report.txt > $$tmp/committed && \
	grep -Ev '$(REPORT_TIMES)' $$tmp/report.txt > $$tmp/fresh && \
	diff -u $$tmp/committed $$tmp/fresh; status=$$?; rm -rf $$tmp; \
	exit $$status

claims:
	PYTHONPATH=src $(PY) -c "from repro.analysis.compare import evaluate_claims; \
	s = evaluate_claims(); open('claims_report.md','w').write(s.render_markdown()); \
	print(f'{s.passed}/{s.total} claims hold')"

docs:
	PYTHONPATH=src $(PY) -c "from repro.isa.manual import write_manual; write_manual()"
	PYTHONPATH=src $(PY) -c "from repro.errormodels.manual import write_manual; write_manual()"

examples:
	for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src $(PY) $$f > /dev/null || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -f .benchmarks -r 2>/dev/null; true
