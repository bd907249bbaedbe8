PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast bench paper-benchmarks serve service-check snapshot-check api-check

## Tier-1 verification: every test under tests/, benchmarks/ and perfbench/
## except those marked `measured` (pytest.ini deselects them).
test:
	$(PYTHON) -m pytest -x -q

## Quick subset (no hypothesis-heavy modules) for tight edit loops.
test-fast:
	$(PYTHON) -m pytest -x -q tests/ -k "not property_based and not equivalence"

## Client-observed service benchmark (perfbench/, BENCHMARK.json): one
## run per workload, printing the JSON result line of each.  run.py exits 0
## even when a response is wrong, so the target fails on "correct": false.
bench:
	@for workload in warm_rename cold_long dag_execute; do \
		line=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 20 --trace 0 | tail -n 1); \
		echo "$$line"; \
		echo "$$line" | $(PYTHON) -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] else 1)' || exit 1; \
	done

## Start the HTTP compilation service (warm-cache worker pool).
serve:
	$(PYTHON) -m repro.frontend --serve

## End-to-end check against a freshly booted HTTP server (what CI runs).
service-check:
	$(PYTHON) scripts/ci_service_check.py --workers 2 --batch 24

## Snapshot warm-boot check: boot, snapshot, restart against the same
## --snapshot-dir, and gate on the restarted pool's plan-cache hit rate.
snapshot-check:
	$(PYTHON) scripts/ci_service_check.py --workers 2 --batch 8 --snapshot --min-plan-hit-rate 0.9

## Public-API surface manifest check (what CI runs).
api-check:
	$(PYTHON) scripts/ci_api_check.py

## Paper-reproduction benchmark suite (pytest-benchmark), including the
## `measured` tests that assert on wall-clock durations.
paper-benchmarks:
	$(PYTHON) -m pytest -x -q -m "" benchmarks/
