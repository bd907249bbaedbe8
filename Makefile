PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast bench bench-smoke paper-benchmarks serve service-check snapshot-check api-check

## Tier-1 verification: the full test suite.
test:
	$(PYTHON) -m pytest -x -q tests/

## Quick subset (no hypothesis-heavy modules) for tight edit loops.
test-fast:
	$(PYTHON) -m pytest -x -q tests/ -k "not property_based and not equivalence"

## Full generation-time benchmark (writes BENCH_generation.json),
## including the warm-pool service throughput section.
bench:
	$(PYTHON) scripts/bench_generation.py --serve

## Start the HTTP compilation service (warm-cache worker pool).
serve:
	$(PYTHON) -m repro.frontend --serve

## End-to-end check against a freshly booted HTTP server (what CI runs).
service-check:
	$(PYTHON) scripts/ci_service_check.py --workers 2 --batch 24

## Snapshot warm-boot check: boot, snapshot, restart against the same
## --snapshot-dir, and gate on the restarted pool's plan-cache hit rate.
snapshot-check:
	$(PYTHON) scripts/ci_service_check.py --workers 2 --batch 8 --snapshot

## Public-API surface manifest check (what CI runs).
api-check:
	$(PYTHON) scripts/ci_api_check.py

## CI-sized benchmark (fails on legacy/memoized solution divergence, a
## measurable untraced-hot-path overhead from the observability layer, or
## a warm-serve analytics overhead at/above 3%).
bench-smoke:
	$(PYTHON) scripts/bench_generation.py --smoke --check-trace-overhead 0.03 --check-analytics-overhead 0.03 --check-execute-identity --output bench_smoke.json

## Paper-reproduction benchmark suite (pytest-benchmark).
paper-benchmarks:
	$(PYTHON) -m pytest -x -q benchmarks/
