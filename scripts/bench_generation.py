#!/usr/bin/env python
"""Generation-time benchmark: memoized vs. legacy GMC compilation.

Times the GMC dynamic program (``GMCAlgorithm.solve``) over random
generalized chains of lengths 3-14 under two configurations:

* **memoized** -- the default pipeline: hash-consed expressions, single-pass
  memoized property inference, cached identity keys and kernel costs;
* **legacy** -- the reference pipeline: per-predicate recursive inference
  (``legacy_inference()``), the reference matcher acceptance path that
  re-walks patterns per candidate (``legacy_binding()``), and no hash
  consing (``interning_disabled()``).

Note the legacy configuration still benefits from the always-on caches that
have no toggle (constructor-primed expression hashes/keys, cached matcher
tokens and subject flattening, the kernel-cost cache), so the measured
speedup is a *lower bound* on memoized-vs-seed: those caches only make the
legacy baseline faster, never slower.

A second section benchmarks the **signature-keyed kernel-match cache** and
**DP split pruning** introduced on top of the memoized pipeline, against the
memoized-but-uncached/unpruned configuration (the PR 1 baseline).  For every
chain length it measures:

* the baseline's warm repeated-solve time (match caching disabled, pruning
  off, but inference/interning/kernel-cost caches warm);
* the cached + pruned pipeline cold (first solve, empty match cache) and
  warm (repeated solve, all caches hot) -- the batch/server scenario where
  one process serves many structurally similar chains;
* the match-cache hit rate of the warm pass.

A third, optional section (``--serve``) benchmarks the **compilation
service**: batches of structurally similar chains (renamed copies sharing
one signature) submitted through the warm-cache worker pool of
:mod:`repro.service`, reporting cold/warm batch throughput (requests/sec)
and the pooled warm plan-cache hit rate (the whole-plan cache of
:mod:`repro.persist` answers warm signature-equal traffic above the
solvers) -- the numbers ``GET /stats`` serves in production.

A fourth section benchmarks **snapshot-backed warm boot**
(:mod:`repro.persist.snapshot`): one worker pool compiles a batch cold and
persists its caches on shutdown; a *restarted* pool pointed at the same
``--snapshot-dir`` then serves renamed (signature-equal) copies, and the
section records the restarted pool's first-batch latency and plan-cache
hit rate -- a warm boot answers its very first requests from the snapshot's
plan cache, with kernel sequences asserted identical to the cold solves
(``--check-plan-hit-rate`` gates this in CI).

A fifth section gates **trace overhead** (:mod:`repro.obs`): warm repeated
solves on a never-traced solver vs the same untraced path on a solver that
ran one traced solve first (any instrumentation the traced fill failed to
clean up would slow every later cell), plus the informational traced-on
cost.  ``--check-trace-overhead X`` (CI uses 0.03) fails the run when the
untraced hot path is not measurably free.

A sixth section gates **workload-analytics overhead**
(:mod:`repro.obs.analytics`): warm serve requests through one shared
session, alternating per request between analytics recording (the
always-on default) and ``analytics_disabled()``, reporting the median of
paired per-repeat CPU-time ratios.  ``--check-analytics-overhead X`` (CI
uses 0.03) fails the run when the recording arm exceeds the off arm by
``X`` or more.

For every chain all configurations must produce identical solutions
(optimal cost and parenthesization); the script asserts this and records the
outcome, so the benchmark doubles as an end-to-end equivalence check on the
measured workload.

Results are written to ``BENCH_generation.json`` (override with
``--output``).  Usage::

    PYTHONPATH=src python scripts/bench_generation.py           # full run
    PYTHONPATH=src python scripts/bench_generation.py --smoke   # CI-sized

``--check-speedup X`` exits non-zero when the aggregate speedup on chains of
length >= 10 falls below ``X``; ``--check-hit-rate R`` does the same when
the warm match-cache hit rate on the chain-12 case (or the longest
benchmarked length) falls below ``R`` (both used by CI).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

import re

from repro.algebra import clear_inference_cache, clear_intern_table
from repro.algebra.inference import legacy_inference
from repro.algebra.interning import interning_disabled
from repro.core import GMCAlgorithm
from repro.cost import FlopCount
from repro.experiments.workload import ChainGenerator
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.matching.discrimination_net import legacy_binding
from repro.matching.match_cache import match_caching_disabled
from repro.options import CompileOptions


def make_problems(length: int, count: int, seed: int):
    """Random well-formed chains of exactly *length* factors."""
    generator = ChainGenerator(
        min_length=length,
        max_length=length,
        size_choices=tuple(range(50, 301, 50)),
        vector_probability=0.10,
        square_probability=0.40,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )
    return generator.generate_many(count)


def time_solves(problems, repeats: int, prune: bool = True):
    """Solve every problem *repeats* times on a fresh algorithm.

    Returns (per-problem best times in seconds, solutions of the last pass).
    The metric instance is fresh per call so its kernel-cost cache never
    leaks across configurations.
    """
    algorithm = GMCAlgorithm(CompileOptions(metric=FlopCount(), prune=prune))
    best = [math.inf] * len(problems)
    solutions = [None] * len(problems)
    for _ in range(repeats):
        for index, problem in enumerate(problems):
            start = time.perf_counter()
            solution = algorithm.solve(problem.expression)
            elapsed = time.perf_counter() - start
            if elapsed < best[index]:
                best[index] = elapsed
            solutions[index] = solution
    return best, solutions


def _solutions_differ(reference, candidate) -> bool:
    """True when two solutions of the same chain are not identical."""
    if reference.computable != candidate.computable:
        return True
    if not reference.computable:
        return False
    return not (
        math.isclose(
            float(reference.optimal_cost),
            float(candidate.optimal_cost),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        and reference.parenthesization() == candidate.parenthesization()
    )


def run_match_cache(lengths, chains_per_length, seed, repeats=1):
    """Benchmark the signature-keyed match cache + DP pruning.

    Baseline is the PR 1 pipeline (memoized inference + hash consing) with
    match caching disabled and pruning off; both its timing pass and the
    cached pipeline's warm pass run with warm inference/interning caches, so
    the measured ratio isolates the match cache and the pruning.  Every
    timed pass is run *repeats* times and the best total is kept (cold
    passes re-clear the caches each time), which suppresses scheduler noise
    exactly as ``time_solves`` does for the main section.
    """
    per_length = []
    mismatches = []
    for length in lengths:
        problems = make_problems(length, chains_per_length, seed + length)
        # A private catalog => a private match cache, so hit-rate stats are
        # exact and the process-wide default catalog stays untouched.  The
        # baseline configuration (no match cache, no pruning) is spelled
        # explicitly through CompileOptions rather than the process-global
        # match_caching_disabled() toggle.
        catalog = KernelCatalog(build_default_kernels(), name="bench")
        baseline_options = CompileOptions(
            catalog=catalog, metric=FlopCount(), prune=False, match_cache=False
        )
        cached_options = CompileOptions(catalog=catalog, metric=FlopCount())
        baseline = GMCAlgorithm(baseline_options)
        cached = GMCAlgorithm(cached_options)

        clear_inference_cache()
        clear_intern_table()
        baseline_repeat_s = math.inf
        for problem in problems:  # warm-up pass (inference, interning)
            baseline.solve(problem.expression)
        for _ in range(repeats):
            start = time.perf_counter()
            baseline_solutions = [baseline.solve(p.expression) for p in problems]
            baseline_repeat_s = min(
                baseline_repeat_s, time.perf_counter() - start
            )

        cold_s = math.inf
        for _ in range(repeats):
            # A genuinely cold first solve: every cache empty, including the
            # kernel-cost memo (hence the fresh algorithm/metric per repeat).
            clear_inference_cache()
            clear_intern_table()
            catalog.match_cache.clear()
            cold_algorithm = GMCAlgorithm(
                cached_options.replace(metric=FlopCount())
            )
            start = time.perf_counter()
            cold_solutions = [cold_algorithm.solve(p.expression) for p in problems]
            cold_s = min(cold_s, time.perf_counter() - start)
        for problem in problems:  # warm-up: fill ``cached``'s kernel-cost memo
            cached.solve(problem.expression)
        catalog.match_cache.reset_stats()
        warm_s = math.inf
        for index in range(repeats):
            start = time.perf_counter()
            warm_solutions = [cached.solve(p.expression) for p in problems]
            warm_s = min(warm_s, time.perf_counter() - start)
            if index == 0:
                # Hit rate of the first warm pass, before repeats skew it.
                hit_rate = catalog.match_cache.hit_rate

        for problem, reference, cold, warm in zip(
            problems, baseline_solutions, cold_solutions, warm_solutions
        ):
            if _solutions_differ(reference, cold) or _solutions_differ(reference, warm):
                mismatches.append(str(problem))

        entry = {
            "length": length,
            "chains": len(problems),
            "baseline_repeat_total_s": baseline_repeat_s,
            "cached_cold_total_s": cold_s,
            "cached_warm_total_s": warm_s,
            "warm_hit_rate": hit_rate,
            "warm_speedup_vs_baseline": (
                baseline_repeat_s / warm_s if warm_s > 0 else math.inf
            ),
            "warm_amortization_vs_cold": cold_s / warm_s if warm_s > 0 else math.inf,
        }
        per_length.append(entry)
        print(
            f"length {length:2d}: baseline-repeat {baseline_repeat_s * 1e3:8.2f} ms, "
            f"cached cold {cold_s * 1e3:8.2f} ms, warm {warm_s * 1e3:8.2f} ms, "
            f"hit rate {hit_rate:5.3f}, warm speedup "
            f"{entry['warm_speedup_vs_baseline']:5.2f}x"
        )

    long_entries = [entry for entry in per_length if entry["length"] >= 10]
    long_baseline = sum(e["baseline_repeat_total_s"] for e in long_entries)
    long_warm = sum(e["cached_warm_total_s"] for e in long_entries)
    return {
        "description": (
            "repeated-solve amortization: signature-keyed match cache + DP "
            "pruning (warm) vs the memoized-but-uncached, unpruned PR 1 "
            "baseline; solutions asserted identical across configurations"
        ),
        "per_length": per_length,
        "length_ge_10": {
            "baseline_repeat_total_s": long_baseline,
            "cached_warm_total_s": long_warm,
            "warm_speedup": long_baseline / long_warm if long_warm > 0 else None,
        },
        "solutions_match": not mismatches,
        "mismatches": mismatches,
    }


def run_trace_overhead(lengths, seed, repeats=11, solves_per_sample=20):
    """Gate: the untraced hot path stays measurably free of tracing cost.

    Three solver instances run warm repeated solves of the same chains,
    interleaved within every repeat so scheduler drift hits all arms
    equally (best-of-*repeats* per arm, *solves_per_sample* solves per
    timing sample so sub-millisecond warm solves stay measurable):

    * **baseline** -- tracing disabled, the solver never traced;
    * **post-traced** -- tracing disabled *now*, but the solver ran one
      traced solve first.  A traced fill wraps the loop's per-split
      decision and per-cell commit in timers for that solve only; if they
      ever outlived it, this arm would pay the wrapper cost on every
      subsequent cell and the gate trips;
    * **traced on** -- a live tracer (reported, not gated: per-diagonal
      spans and per-cell timing wrappers are real, opted-in work).

    ``--check-trace-overhead X`` fails the run when the post-traced arm is
    more than ``X`` slower than the baseline (CI uses 0.03: the untraced
    path must stay within 3% -- its only tracing cost is an ``is None``
    test per solve and per diagonal, never per DP cell).
    """
    from repro.obs.trace import Tracer

    per_length = []
    mismatches = []
    arms = ("baseline", "post_traced", "traced_on")
    for length in lengths:
        problem = make_problems(length, 1, seed + 31_000 + length)[0]
        algorithms = {}
        for arm in arms:
            catalog = KernelCatalog(build_default_kernels(), name=f"bench-{arm}")
            algorithms[arm] = GMCAlgorithm(
                CompileOptions(catalog=catalog, metric=FlopCount())
            )
        # Warm-up solve per arm (fills each arm's private caches equally);
        # the post-traced arm's warm-up runs traced, then drops the tracer.
        reference = algorithms["baseline"].solve(problem.expression)
        algorithms["post_traced"].tracer = Tracer()
        traced_solution = algorithms["post_traced"].solve(problem.expression)
        algorithms["post_traced"].tracer = None
        algorithms["traced_on"].tracer = Tracer()
        algorithms["traced_on"].solve(problem.expression)
        if _solutions_differ(reference, traced_solution):
            mismatches.append(f"length {length}")

        best = {arm: math.inf for arm in arms}
        for _ in range(repeats):
            for arm in arms:
                algorithm = algorithms[arm]
                if arm == "traced_on":
                    algorithm.tracer = Tracer()  # fresh tree, bounded memory
                start = time.perf_counter()
                for _ in range(solves_per_sample):
                    algorithm.solve(problem.expression)
                best[arm] = min(best[arm], time.perf_counter() - start)

        entry = {
            "length": length,
            "solves_per_sample": solves_per_sample,
            "baseline_s": best["baseline"],
            "post_traced_s": best["post_traced"],
            "traced_on_s": best["traced_on"],
            "untraced_overhead": (
                best["post_traced"] / best["baseline"] - 1.0
                if best["baseline"] > 0
                else math.inf
            ),
            "traced_on_overhead": (
                best["traced_on"] / best["baseline"] - 1.0
                if best["baseline"] > 0
                else math.inf
            ),
        }
        per_length.append(entry)
        print(
            f"length {length:2d}: baseline {best['baseline'] * 1e3:8.2f} ms, "
            f"post-traced {best['post_traced'] * 1e3:8.2f} ms "
            f"({entry['untraced_overhead'] * 100:+6.2f}%), traced on "
            f"{best['traced_on'] * 1e3:8.2f} ms "
            f"({entry['traced_on_overhead'] * 100:+6.2f}%)"
        )

    baseline_total = sum(entry["baseline_s"] for entry in per_length)
    post_total = sum(entry["post_traced_s"] for entry in per_length)
    traced_total = sum(entry["traced_on_s"] for entry in per_length)
    overall = {
        "baseline_total_s": baseline_total,
        "post_traced_total_s": post_total,
        "traced_on_total_s": traced_total,
        "untraced_overhead": (
            post_total / baseline_total - 1.0 if baseline_total > 0 else math.inf
        ),
        "traced_on_overhead": (
            traced_total / baseline_total - 1.0 if baseline_total > 0 else math.inf
        ),
    }
    print(
        f"trace overhead: untraced {overall['untraced_overhead'] * 100:+6.2f}% "
        f"(gated), traced on {overall['traced_on_overhead'] * 100:+6.2f}% "
        f"(informational)"
    )
    return {
        "description": (
            "tracing stays free when disabled: warm repeated solves on a "
            "never-traced solver vs a solver that ran one traced solve "
            "first (leaked instrumentation would slow every later cell) vs "
            "a live tracer; solutions asserted identical"
        ),
        "repeats": repeats,
        "per_length": per_length,
        "overall": overall,
        "solutions_match": not mismatches,
        "mismatches": mismatches,
    }


def run_analytics_overhead(seed, repeats=15, requests_per_sample=40, length=8):
    """Gate: always-on workload analytics stays within a few percent of off.

    One warm in-process serve session runs a signature-equal request
    stream through :func:`repro.service.api.execute_request`, alternating
    *per request* between workload analytics recording (the always-on
    default) and :func:`repro.obs.analytics.analytics_disabled`.  A single
    shared session is essential: two separate sessions differ by several
    percent on identical work (allocator layout, dict insertion order), a
    bias larger than the effect under test.  Each repeat yields a paired
    on/off CPU-time ratio -- ``time.process_time`` so other tenants'
    scheduler preemption does not count against either arm, the cyclic GC
    paused so collection cadence does not alias with the arm pattern --
    and the reported overhead is the **median** of the per-repeat ratios,
    robust to interference bursts that min-of-samples cannot filter.  The
    warm serve path is where the per-request sketch updates (heavy-hitter
    counter, latency quantile buckets, ring slot) land, so it is the
    worst case for the analytics layer's relative cost.

    ``--check-analytics-overhead X`` fails the run when the analytics-on
    arm is more than ``X`` slower than analytics-off (CI uses 0.03).
    """
    from repro.frontend.compiler import Compiler
    from repro.obs.analytics import analytics_disabled, workload_analytics
    from repro.service.api import CompileRequest, execute_request

    problems = make_problems(length, 3, seed + 47_000)
    sources = [problem_source(problem, "an") for problem in problems]
    requests = [CompileRequest(source=source) for source in sources]
    session = Compiler()

    workload_analytics().reset()
    # Warm-up: fill the plan cache so the timed samples measure the warm
    # serve path (where per-request analytics cost is proportionally
    # largest), not cold DP solves.
    for request in requests:
        response = execute_request(request, compiler=session)
        assert response.ok, response.error

    clock = time.process_time
    passes = max(1, requests_per_sample // len(requests))
    ratios = []
    totals = {"analytics_on": 0.0, "analytics_off": 0.0}
    for repeat in range(repeats):
        on_s = off_s = 0.0
        gc.collect()
        gc.disable()
        try:
            for index in range(passes):
                # Alternate which arm goes first so within-pass drift
                # cancels instead of consistently taxing one arm.
                on_first = (index + repeat) % 2 == 0
                for request in requests:
                    if on_first:
                        start = clock()
                        execute_request(request, compiler=session)
                        on_s += clock() - start
                    with analytics_disabled():
                        start = clock()
                        execute_request(request, compiler=session)
                        off_s += clock() - start
                    if not on_first:
                        start = clock()
                        execute_request(request, compiler=session)
                        on_s += clock() - start
        finally:
            gc.enable()
        totals["analytics_on"] += on_s
        totals["analytics_off"] += off_s
        ratios.append(on_s / off_s - 1.0 if off_s > 0 else math.inf)

    recorded = workload_analytics().state()["requests"]
    workload_analytics().reset()
    overhead = statistics.median(ratios)
    entry = {
        "description": (
            "warm in-process serve CPU time with workload analytics "
            "recording vs inside analytics_disabled(), one shared session, "
            "per-request interleaving, median of paired per-repeat ratios"
        ),
        "length": length,
        "repeats": repeats,
        "requests_per_sample": passes * len(requests),
        "analytics_on_s": totals["analytics_on"],
        "analytics_off_s": totals["analytics_off"],
        "overhead": overhead,
        "repeat_overheads": ratios,
        "requests_recorded": recorded,
    }
    print(
        f"analytics overhead: on {totals['analytics_on'] * 1e3:8.2f} ms, "
        f"off {totals['analytics_off'] * 1e3:8.2f} ms CPU "
        f"({overhead * 100:+6.2f}% median of {repeats} paired repeats, "
        f"{passes * len(requests)} warm requests per arm per repeat)"
    )
    return entry


def problem_source(problem, tag):
    """Render a generated chain as DSL text with per-*tag* operand names.

    Tagged copies of one problem are *structurally similar*: identical
    shapes, properties and equality structure under fresh names -- the
    workload shape the warm-pool service amortizes across.
    """
    lines = []
    for operand in problem.operands:
        properties = ", ".join(sorted(p.value for p in operand.properties))
        lines.append(
            f"Matrix {operand.name}_{tag} ({operand.rows}, {operand.columns}) "
            f"<{properties}>"
        )
    names = sorted((op.name for op in problem.operands), key=len, reverse=True)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    expression = pattern.sub(lambda match: f"{match.group(1)}_{tag}", str(problem.expression))
    lines.append(f"X := {expression}")
    return "\n".join(lines) + "\n"


def run_service(workers, batch_size, rounds, seed, length=8, in_process=False):
    """Benchmark warm-pool batch throughput over structurally similar chains.

    Builds ``batch_size`` base chains of *length* factors, then submits
    ``rounds + 1`` batches of name-renamed (signature-equal) copies through
    a :class:`repro.service.pool.WorkerPool`: the first batch is the cold
    fill, the remaining *rounds* measure warm throughput.  Every response is
    checked against a direct ``compile_source`` reference, and the pooled
    match-cache hit rate over the warm batches is computed from the
    ``stats()`` delta -- the same numbers ``GET /stats`` serves in the HTTP
    front-end.
    """
    from repro.frontend import Compiler
    from repro.service.api import CompileRequest
    from repro.service.pool import create_executor

    problems = make_problems(length, batch_size, seed + 7_000)

    mismatches = []
    # Fork the workers *before* compiling the references: under fork, a
    # child inherits the parent's caches, so warming the parent first would
    # make the "cold" batch secretly warm.  The references reuse one warm
    # Compiler session -- the same class each pool worker holds.
    executor = create_executor(workers=workers, in_process=in_process)
    reference_compiler = Compiler()
    references = [
        list(
            reference_compiler.compile(problem_source(problem, "ref"))
            .assignments[0]
            .kernel_sequence
        )
        for problem in problems
    ]
    try:
        def submit_round(tag):
            requests = [
                CompileRequest(source=problem_source(problem, tag))
                for problem in problems
            ]
            start = time.perf_counter()
            responses = executor.compile_batch(requests)
            elapsed = time.perf_counter() - start
            for problem, reference, response in zip(problems, references, responses):
                if not response.ok or response.assignments[0].kernels != reference:
                    mismatches.append(f"{problem} [{tag}]")
            return elapsed

        cold_s = submit_round("r0")
        stats_cold = executor.stats()["caches"]
        warm_s = sum(submit_round(f"r{index + 1}") for index in range(rounds))
        stats_warm = executor.stats()["caches"]

        def layer_delta(layer):
            hits = stats_warm[layer]["hits"] - stats_cold[layer]["hits"]
            lookups = hits + stats_warm[layer]["misses"] - stats_cold[layer]["misses"]
            return hits, lookups

        # Warm signature-equal traffic is answered by the plan cache (the
        # layer above the solvers); the match cache underneath only sees
        # cold solves, so its warm delta is reported but no longer gated.
        plan_hits, plan_lookups = layer_delta("plan_cache")
        warm_hits, warm_lookups = layer_delta("match_cache")
        warm_requests = batch_size * rounds
        entry = {
            "description": (
                "warm-pool batch throughput over structurally similar chains: "
                "one cold batch fills the caches, subsequent batches of "
                "renamed (signature-equal) copies measure the amortized "
                "service path; kernel sequences asserted identical to direct "
                "compile_source"
            ),
            "mode": "in-process" if executor.workers == 0 else "pool",
            "workers": executor.workers,
            "chain_length": length,
            "batch_size": batch_size,
            "warm_rounds": rounds,
            "cold_batch_s": cold_s,
            "warm_total_s": warm_s,
            "cold_requests_per_s": batch_size / cold_s if cold_s > 0 else math.inf,
            "warm_requests_per_s": (
                warm_requests / warm_s if warm_s > 0 else math.inf
            ),
            "warm_batch_speedup_vs_cold": (
                (cold_s * rounds) / warm_s if warm_s > 0 else math.inf
            ),
            "warm_match_hit_rate": (
                warm_hits / warm_lookups if warm_lookups > 0 else 0.0
            ),
            "warm_plan_hit_rate": (
                plan_hits / plan_lookups if plan_lookups > 0 else 0.0
            ),
            "solutions_match": not mismatches,
            "mismatches": mismatches,
        }
    finally:
        executor.close()
    print(
        f"service ({entry['mode']}, {workers} workers): cold batch "
        f"{cold_s * 1e3:8.2f} ms, warm {entry['warm_requests_per_s']:7.1f} req/s, "
        f"warm plan hit rate {entry['warm_plan_hit_rate']:5.3f}, "
        f"warm-vs-cold speedup {entry['warm_batch_speedup_vs_cold']:5.2f}x"
    )
    return entry


def run_persistence(workers, batch_size, seed, length=8):
    """Benchmark snapshot-backed warm boot: restart the pool, stay warm.

    Pool A compiles *batch_size* chains cold and persists its merged cache
    snapshot on shutdown.  Pool B -- fresh worker processes pointed at the
    same snapshot directory -- then serves renamed (signature-equal) copies:
    its plan-cache hit rate over that first batch is the warm-boot signal
    (1.0 means every request skipped the DP entirely), and every kernel
    sequence is asserted identical to a plan-cache-disabled cold solve.
    """
    import shutil
    import tempfile

    from repro.frontend import Compiler
    from repro.service.api import CompileRequest
    from repro.service.pool import create_executor

    problems = make_problems(length, batch_size, seed + 11_000)
    snapshot_dir = tempfile.mkdtemp(prefix="repro-bench-snapshot-")
    mismatches = []

    def submit(executor, tag):
        requests = [
            CompileRequest(source=problem_source(problem, tag))
            for problem in problems
        ]
        start = time.perf_counter()
        responses = executor.compile_batch(requests)
        return time.perf_counter() - start, responses

    try:
        # Fork the cold pool before compiling references (under fork a child
        # inherits the parent's process-global caches; the per-session plan
        # cache is immune, but timings should stay honest too).
        cold_pool = create_executor(workers=workers, snapshot_dir=snapshot_dir)
        reference_compiler = Compiler(CompileOptions(plan_cache=False))
        references = [
            list(
                reference_compiler.compile(problem_source(problem, "ref"))
                .assignments[0]
                .kernel_sequence
            )
            for problem in problems
        ]
        try:
            cold_boot_s, responses = submit(cold_pool, "cold")
            for problem, reference, response in zip(problems, references, responses):
                if not response.ok or response.assignments[0].kernels != reference:
                    mismatches.append(f"{problem} [cold]")
        finally:
            cold_pool.close()  # persists the merged snapshot

        warm_pool = create_executor(workers=workers, snapshot_dir=snapshot_dir)
        try:
            before = warm_pool.stats()["caches"]["plan_cache"]
            warm_boot_s, responses = submit(warm_pool, "warm")
            after = warm_pool.stats()["caches"]["plan_cache"]
            snapshot_stats = warm_pool.stats().get("snapshot", {})
            workers_loaded = (
                snapshot_stats.get("workers_loaded")
                if isinstance(snapshot_stats, dict)
                else None
            )
            for problem, reference, response in zip(problems, references, responses):
                if not response.ok or response.assignments[0].kernels != reference:
                    mismatches.append(f"{problem} [warm]")
        finally:
            warm_pool.close()

        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        entry = {
            "description": (
                "snapshot-backed warm boot: a restarted worker pool pointed "
                "at the previous pool's snapshot dir serves its first batch "
                "of renamed (signature-equal) chains from the plan cache; "
                "kernel sequences asserted identical to plan-cache-disabled "
                "cold solves"
            ),
            "workers": workers,
            "chain_length": length,
            "batch_size": batch_size,
            "cold_boot_batch_s": cold_boot_s,
            "warm_boot_batch_s": warm_boot_s,
            "warm_boot_speedup_vs_cold": (
                cold_boot_s / warm_boot_s if warm_boot_s > 0 else math.inf
            ),
            "warm_boot_plan_hit_rate": hits / lookups if lookups > 0 else 0.0,
            "warm_boot_workers_loaded": workers_loaded,
            "solutions_match": not mismatches,
            "mismatches": mismatches,
        }
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    print(
        f"warm boot ({workers} workers): cold-boot batch "
        f"{cold_boot_s * 1e3:8.2f} ms, warm-boot batch "
        f"{warm_boot_s * 1e3:8.2f} ms, plan hit rate "
        f"{entry['warm_boot_plan_hit_rate']:5.3f}, speedup "
        f"{entry['warm_boot_speedup_vs_cold']:5.2f}x"
    )
    return entry


def run_jacobian(models, blocks):
    """Benchmark the DAG pipeline on Solverz-style Jacobian traffic.

    :func:`repro.experiments.workload.jacobian_workload` expands a small
    symbolic model into *models* structurally-sibling multi-assignment DAG
    programs (one shared Gram segment plus *blocks* Jacobian blocks each,
    connected by references).  One warm :class:`Compiler` session compiles
    them all; each chain segment consults the plan cache independently, so
    after the first model every sibling segment should hit.  Records the
    segment-level plan-cache hit rate (the ``segments`` telemetry layer) and
    asserts every kernel sequence identical to a plan-cache-disabled
    reference solve (``--check-dag-plan-hit-rate`` gates the rate in CI).
    """
    from repro.core import segment_telemetry
    from repro.experiments.workload import jacobian_workload
    from repro.frontend import Compiler

    problems = jacobian_workload(models=models, blocks=blocks)
    mismatches = []
    reference = Compiler(CompileOptions(plan_cache=False))
    reference_result = reference.compile(problems[0].source)
    reference_gram = reference_result.assignment("G").kernel_sequence
    reference_block = reference_result.assignment(
        problems[0].targets[0]
    ).kernel_sequence

    session = Compiler()
    telemetry = segment_telemetry()
    telemetry.reset_stats()
    start = time.perf_counter()
    results = [session.compile(problems[0].source)]
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    for problem in problems[1:]:
        results.append(session.compile(problem.source))
    warm_s = time.perf_counter() - start
    stats = telemetry.stats()

    for problem, result in zip(problems, results):
        if result.assignment("G").kernel_sequence != reference_gram:
            mismatches.append(f"{problem.identifier}: G")
        for target in problem.targets:
            if result.assignment(target).kernel_sequence != reference_block:
                mismatches.append(f"{problem.identifier}: {target}")

    warm_models = max(len(problems) - 1, 1)
    entry = {
        "description": (
            "Jacobian DAG workload: structurally-sibling multi-assignment "
            "programs (shared Gram segment + per-equation Jacobian blocks, "
            "from symbolic differentiation of a small model) compiled on one "
            "warm session; each chain segment hits the plan cache "
            "independently; kernel sequences asserted identical to a "
            "plan-cache-disabled reference"
        ),
        "models": len(problems),
        "blocks_per_model": blocks,
        "segments_per_model": blocks + 1,
        "cold_model_s": cold_s,
        "warm_models_total_s": warm_s,
        "warm_model_mean_s": warm_s / warm_models,
        "warm_amortization_vs_cold": (
            cold_s * warm_models / warm_s if warm_s > 0 else math.inf
        ),
        "segment_lookups": stats["hits"] + stats["misses"],
        "segment_plan_hits": stats["hits"],
        "segment_plan_hit_rate": stats["hit_rate"],
        "cse_reuses": stats["cse_reuses"],
        "solutions_match": not mismatches,
        "mismatches": mismatches,
    }
    print(
        f"jacobian DAGs ({entry['models']} models x {blocks} blocks): cold "
        f"model {cold_s * 1e3:8.2f} ms, warm mean "
        f"{entry['warm_model_mean_s'] * 1e3:8.2f} ms, segment plan hit rate "
        f"{entry['segment_plan_hit_rate']:5.3f}, amortization "
        f"{entry['warm_amortization_vs_cold']:5.2f}x"
    )
    return entry


#: Programs the execution-tier section runs end to end (name, DSL source).
#: Sized so a run takes milliseconds, shaped so the plans exercise the
#: interesting kernel families: triangular/SPD solves, a pure product chain,
#: and a Kalman-style DAG whose plan uses transposed solve variants.
EXECUTION_PROGRAMS = (
    (
        "solve_chain",
        "Matrix A (300, 300) <spd>\n"
        "Matrix B (300, 200) <full_rank>\n"
        "Matrix C (200, 200) <lower_triangular, non_singular>\n"
        "X := A^-1 * B * C^T\n",
    ),
    (
        "product_chain",
        "Matrix P (120, 400) <full_rank>\n"
        "Matrix Q (400, 80) <full_rank>\n"
        "Matrix R (80, 300) <full_rank>\n"
        "Matrix S (300, 60) <full_rank>\n"
        "Y := P * Q * R * S\n",
    ),
    (
        "kalman_dag",
        "Matrix Hk (50, 90) <full_rank>\n"
        "Matrix Pk (90, 90) <spd>\n"
        "Matrix Bk (50, 40) <full_rank>\n"
        "G := Hk * Pk * Hk^T\n"
        "J := G^-1 * Bk\n"
        "K := Pk * Hk^T * (Hk * Pk^-1 * Hk^T)^-1\n",
    ),
)


def run_execution(seed, repeats=5):
    """Benchmark the execution tier: emitted modules vs the interpreter.

    For every :data:`EXECUTION_PROGRAMS` entry, one warm
    :class:`repro.frontend.Compiler` session compiles the program, the
    ``module`` emitter renders it as a standalone module
    (:mod:`repro.exec.emitter`), and the loader imports it
    (:mod:`repro.exec.loader`).  The section then times the loaded module's
    entrypoint against the interpreted :class:`repro.runtime.Executor` on
    identical seeded operands (min-of-N per engine) and records the one-time
    emit/import cost.  Both engines must agree numerically -- the maximum
    relative error is recorded per program, and ``--check-execute-identity``
    names this section's identity assertion in the CI wiring.
    """
    import numpy as np

    from repro.exec.emitter import plan_signature
    from repro.exec.loader import ModuleLoader
    from repro.frontend import Compiler
    from repro.runtime.executor import Executor
    from repro.runtime.operands import random_environment

    session = Compiler()
    loader = ModuleLoader()
    per_program = []
    mismatches = []
    for name, source in EXECUTION_PROGRAMS:
        result = session.compile(source)
        program = result.stitched_program()
        environment = dict(random_environment(result, seed=seed))

        start = time.perf_counter()
        module_source = result.emit_stitched("module")
        emit_s = time.perf_counter() - start
        start = time.perf_counter()
        loaded = loader.load(module_source, plan_signature(result))
        import_s = time.perf_counter() - start

        module_value = loaded.run(environment)
        interpreter_value = Executor().execute(program, dict(environment))
        scale = max(1.0, float(np.max(np.abs(interpreter_value))))
        max_rel_error = (
            float(np.max(np.abs(module_value - interpreter_value))) / scale
        )
        if max_rel_error > 1e-9:
            mismatches.append(f"{name}: max rel error {max_rel_error:.2e}")

        module_best = math.inf
        interpreter_best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            loaded.run(environment)
            module_best = min(module_best, time.perf_counter() - start)
            start = time.perf_counter()
            Executor().execute(program, dict(environment))
            interpreter_best = min(
                interpreter_best, time.perf_counter() - start
            )

        entry = {
            "program": name,
            "calls": len(program.calls),
            "emit_ms": emit_s * 1e3,
            "import_ms": import_s * 1e3,
            "module_run_ms": module_best * 1e3,
            "interpreter_run_ms": interpreter_best * 1e3,
            "module_vs_interpreter": (
                interpreter_best / module_best if module_best > 0 else math.inf
            ),
            "max_rel_error": max_rel_error,
        }
        per_program.append(entry)
        print(
            f"{name:>14s}: module {entry['module_run_ms']:8.3f} ms, "
            f"interpreter {entry['interpreter_run_ms']:8.3f} ms "
            f"({entry['module_vs_interpreter']:5.2f}x), emit+import "
            f"{(emit_s + import_s) * 1e3:7.2f} ms, max rel err "
            f"{max_rel_error:.2e}"
        )

    module_total = sum(e["module_run_ms"] for e in per_program)
    interpreter_total = sum(e["interpreter_run_ms"] for e in per_program)
    return {
        "description": (
            "execution tier: emitted standalone modules (repro.exec) vs the "
            "interpreted runtime Executor on identical seeded operands; "
            "min-of-N per engine, one-time emit/import cost recorded "
            "separately, engines asserted numerically identical"
        ),
        "config": {"seed": seed, "repeats": repeats},
        "per_program": per_program,
        "overall": {
            "module_total_ms": module_total,
            "interpreter_total_ms": interpreter_total,
            "speedup": (
                interpreter_total / module_total if module_total > 0 else math.inf
            ),
        },
        "module_cache": loader.stats(),
        "solutions_match": not mismatches,
        "mismatches": mismatches,
    }


def run(lengths, chains_per_length, repeats, seed):
    per_length = []
    mismatches = []
    for length in lengths:
        problems = make_problems(length, chains_per_length, seed + length)

        # Legacy configuration: reference inference, reference match binding,
        # no hash consing, no match caching, no split pruning.  The global
        # caches are cleared first so neither mode free-rides on state
        # warmed up by the other.
        clear_inference_cache()
        clear_intern_table()
        with legacy_inference(), interning_disabled(), legacy_binding(), \
                match_caching_disabled():
            legacy_times, legacy_solutions = time_solves(problems, repeats, prune=False)

        clear_inference_cache()
        clear_intern_table()
        memo_times, memo_solutions = time_solves(problems, repeats)

        for problem, legacy, fast in zip(problems, legacy_solutions, memo_solutions):
            same = (
                legacy.computable == fast.computable
                and math.isclose(
                    float(legacy.optimal_cost),
                    float(fast.optimal_cost),
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                )
                if legacy.computable
                else legacy.computable == fast.computable
            )
            if same and legacy.computable:
                same = legacy.parenthesization() == fast.parenthesization()
            if not same:
                mismatches.append(str(problem))

        legacy_total = sum(legacy_times)
        memo_total = sum(memo_times)
        entry = {
            "length": length,
            "chains": len(problems),
            "repeats": repeats,
            "legacy_total_s": legacy_total,
            "memoized_total_s": memo_total,
            "legacy_mean_ms": statistics.mean(legacy_times) * 1e3,
            "memoized_mean_ms": statistics.mean(memo_times) * 1e3,
            "speedup": legacy_total / memo_total if memo_total > 0 else math.inf,
        }
        per_length.append(entry)
        print(
            f"length {length:2d}: legacy {entry['legacy_mean_ms']:8.3f} ms/chain, "
            f"memoized {entry['memoized_mean_ms']:8.3f} ms/chain, "
            f"speedup {entry['speedup']:5.2f}x"
        )

    legacy_total = sum(entry["legacy_total_s"] for entry in per_length)
    memo_total = sum(entry["memoized_total_s"] for entry in per_length)
    long_entries = [entry for entry in per_length if entry["length"] >= 10]
    long_legacy = sum(entry["legacy_total_s"] for entry in long_entries)
    long_memo = sum(entry["memoized_total_s"] for entry in long_entries)
    return {
        "description": (
            "GMC generation time: memoized inference + hash consing vs legacy "
            "reference path (legacy_inference + legacy_binding + "
            "interning_disabled; always-on identity/token/cost caches remain "
            "active in both modes, so the speedup is a lower bound vs the seed)"
        ),
        "config": {
            "lengths": list(lengths),
            "chains_per_length": chains_per_length,
            "repeats": repeats,
            "seed": seed,
            "metric": "flops",
        },
        "per_length": per_length,
        "overall": {
            "legacy_total_s": legacy_total,
            "memoized_total_s": memo_total,
            "speedup": legacy_total / memo_total if memo_total > 0 else math.inf,
        },
        "length_ge_10": {
            "legacy_total_s": long_legacy,
            "memoized_total_s": long_memo,
            "speedup": long_legacy / long_memo if long_memo > 0 else None,
        },
        "solutions_match": not mismatches,
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-length", type=int, default=3)
    parser.add_argument("--max-length", type=int, default=14)
    parser.add_argument("--chains-per-length", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI-sized run (lengths 3-10, 2 chains each, 1 repeat)",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless the length>=10 speedup is at least X",
    )
    parser.add_argument(
        "--check-hit-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero unless the warm match-cache hit rate on the "
            "chain-12 case (or the longest benchmarked length) is at least R"
        ),
    )
    parser.add_argument(
        "--check-warm-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the warm cached repeated-solve speedup over "
            "the uncached baseline on chains >= 10 is at least X"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "also benchmark warm-pool batch throughput through the "
            "compilation service (repro.service worker pool)"
        ),
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="worker processes for the --serve section (default: 2)",
    )
    parser.add_argument(
        "--serve-batch",
        type=int,
        default=8,
        help="requests per service batch (default: 8)",
    )
    parser.add_argument(
        "--serve-rounds",
        type=int,
        default=3,
        help="warm batches measured after the cold fill (default: 3)",
    )
    parser.add_argument(
        "--check-serve-hit-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero unless the pooled warm plan-cache hit rate of "
            "the --serve section is at least R"
        ),
    )
    parser.add_argument(
        "--persist-workers",
        type=int,
        default=2,
        help="worker processes for the warm-boot section (default: 2)",
    )
    parser.add_argument(
        "--persist-batch",
        type=int,
        default=8,
        help="chains per warm-boot batch (default: 8)",
    )
    parser.add_argument(
        "--check-plan-hit-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero unless the restarted (snapshot-loaded) pool's "
            "plan-cache hit rate on its first batch is at least R"
        ),
    )
    parser.add_argument(
        "--jacobian-models",
        type=int,
        default=None,
        help=(
            "model instances for the Jacobian DAG section "
            "(default: 12 with --smoke, 25 otherwise)"
        ),
    )
    parser.add_argument(
        "--jacobian-blocks",
        type=int,
        default=None,
        help=(
            "Jacobian blocks per model for the DAG section "
            "(default: 6 with --smoke, 8 otherwise)"
        ),
    )
    parser.add_argument(
        "--check-dag-plan-hit-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "exit non-zero unless the segment-level plan-cache hit rate of "
            "the Jacobian DAG section is at least R"
        ),
    )
    parser.add_argument(
        "--check-execute-identity",
        action="store_true",
        help=(
            "exit non-zero unless every emitted-module run of the execution "
            "tier section matched the interpreted Executor numerically on "
            "identical operands"
        ),
    )
    parser.add_argument(
        "--check-trace-overhead",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the untraced hot path's overhead vs a "
            "never-traced baseline stays below X (CI uses 0.03: tracing "
            "must be measurably free when disabled)"
        ),
    )
    parser.add_argument(
        "--check-analytics-overhead",
        type=float,
        default=None,
        metavar="X",
        help=(
            "exit non-zero unless the warm serve path with workload "
            "analytics recording stays within X of analytics-off "
            "(CI uses 0.03: the always-on sketches must cost at most a "
            "few percent)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_generation.json",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Lengths reach 12 so the CI hit-rate gate sees the chain-12 case.
        lengths = range(3, 13)
        chains_per_length, repeats = 2, 1
    else:
        lengths = range(args.min_length, args.max_length + 1)
        chains_per_length, repeats = args.chains_per_length, args.repeats
    if not lengths or min(lengths) < 2 or chains_per_length < 1 or repeats < 1:
        parser.error(
            "need max-length >= min-length >= 2, chains-per-length >= 1 and repeats >= 1"
        )

    print("== memoized pipeline vs legacy reference path ==")
    report = run(lengths, chains_per_length, repeats, args.seed)
    print("\n== match cache + DP pruning vs uncached baseline (repeated solves) ==")
    report["match_cache"] = run_match_cache(
        lengths, chains_per_length, args.seed, repeats=repeats
    )
    if args.serve:
        print("\n== compilation service: warm-pool batch throughput ==")
        report["service"] = run_service(
            workers=args.serve_workers,
            batch_size=args.serve_batch,
            rounds=args.serve_rounds,
            seed=args.seed,
        )
    print("\n== snapshot-backed warm boot: restarted pool, first batch ==")
    report["persistence"] = run_persistence(
        workers=args.persist_workers,
        batch_size=args.persist_batch,
        seed=args.seed,
    )
    print("\n== Jacobian DAG workload: per-segment plan-cache amortization ==")
    jacobian_models = args.jacobian_models or (12 if args.smoke else 25)
    jacobian_blocks = args.jacobian_blocks or (6 if args.smoke else 8)
    report["jacobian"] = run_jacobian(jacobian_models, jacobian_blocks)
    print("\n== execution tier: emitted modules vs interpreted Executor ==")
    report["execution"] = run_execution(args.seed, repeats=3 if args.smoke else 5)
    print("\n== trace overhead: untraced hot path vs never-traced baseline ==")
    trace_lengths = (10, 12) if args.smoke else (10, 12, 14)
    report["trace_overhead"] = run_trace_overhead(trace_lengths, args.seed)
    print("\n== analytics overhead: warm serve path, recording on vs off ==")
    report["analytics_overhead"] = run_analytics_overhead(
        args.seed, repeats=9 if args.smoke else 15
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    overall = report["overall"]["speedup"]
    long_speedup = report["length_ge_10"]["speedup"]
    print(f"overall speedup: {overall:.2f}x")
    if long_speedup is not None:
        print(f"length >= 10 speedup: {long_speedup:.2f}x")
    warm_speedup = report["match_cache"]["length_ge_10"]["warm_speedup"]
    if warm_speedup is not None:
        print(f"warm repeated-solve speedup (length >= 10): {warm_speedup:.2f}x")

    if not report["solutions_match"]:
        print("ERROR: legacy and memoized solutions diverged", file=sys.stderr)
        return 1
    if not report["match_cache"]["solutions_match"]:
        print(
            "ERROR: cached/pruned and baseline solutions diverged", file=sys.stderr
        )
        return 1
    if args.check_speedup is not None:
        reference = long_speedup if long_speedup is not None else overall
        if reference < args.check_speedup:
            print(
                f"ERROR: speedup {reference:.2f}x below required "
                f"{args.check_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if args.check_hit_rate is not None:
        entries = report["match_cache"]["per_length"]
        gated = [e for e in entries if e["length"] == 12] or entries[-1:]
        hit_rate = gated[0]["warm_hit_rate"]
        if hit_rate < args.check_hit_rate:
            print(
                f"ERROR: warm match-cache hit rate {hit_rate:.3f} on the "
                f"chain-{gated[0]['length']} case below required "
                f"{args.check_hit_rate:.3f}",
                file=sys.stderr,
            )
            return 1
    if args.check_warm_speedup is not None:
        if warm_speedup is None or warm_speedup < args.check_warm_speedup:
            print(
                f"ERROR: warm repeated-solve speedup "
                f"{warm_speedup if warm_speedup is not None else float('nan'):.2f}x "
                f"below required {args.check_warm_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if args.serve:
        service = report["service"]
        if not service["solutions_match"]:
            print(
                "ERROR: service responses diverged from direct compile_source",
                file=sys.stderr,
            )
            return 1
        if (
            args.check_serve_hit_rate is not None
            and service["warm_plan_hit_rate"] < args.check_serve_hit_rate
        ):
            print(
                f"ERROR: service warm plan-cache hit rate "
                f"{service['warm_plan_hit_rate']:.3f} below required "
                f"{args.check_serve_hit_rate:.3f}",
                file=sys.stderr,
            )
            return 1
    persistence = report["persistence"]
    if not persistence["solutions_match"]:
        print(
            "ERROR: warm-boot responses diverged from cold solves",
            file=sys.stderr,
        )
        return 1
    if (
        args.check_plan_hit_rate is not None
        and persistence["warm_boot_plan_hit_rate"] < args.check_plan_hit_rate
    ):
        print(
            f"ERROR: warm-boot plan-cache hit rate "
            f"{persistence['warm_boot_plan_hit_rate']:.3f} below required "
            f"{args.check_plan_hit_rate:.3f}",
            file=sys.stderr,
        )
        return 1
    jacobian = report["jacobian"]
    if not jacobian["solutions_match"]:
        print(
            "ERROR: Jacobian DAG kernel sequences diverged from the "
            "plan-cache-disabled reference",
            file=sys.stderr,
        )
        return 1
    if (
        args.check_dag_plan_hit_rate is not None
        and jacobian["segment_plan_hit_rate"] < args.check_dag_plan_hit_rate
    ):
        print(
            f"ERROR: Jacobian segment-level plan-cache hit rate "
            f"{jacobian['segment_plan_hit_rate']:.3f} below required "
            f"{args.check_dag_plan_hit_rate:.3f}",
            file=sys.stderr,
        )
        return 1
    execution = report["execution"]
    if not execution["solutions_match"]:
        print(
            "ERROR: emitted-module runs diverged from the interpreted "
            "Executor: " + "; ".join(execution["mismatches"])
            + (
                " (--check-execute-identity)"
                if args.check_execute_identity
                else ""
            ),
            file=sys.stderr,
        )
        return 1
    trace_overhead = report["trace_overhead"]
    if not trace_overhead["solutions_match"]:
        print(
            "ERROR: traced solves diverged from untraced solves",
            file=sys.stderr,
        )
        return 1
    if (
        args.check_trace_overhead is not None
        and trace_overhead["overall"]["untraced_overhead"]
        >= args.check_trace_overhead
    ):
        print(
            f"ERROR: untraced hot-path overhead "
            f"{trace_overhead['overall']['untraced_overhead'] * 100:.2f}% not "
            f"below the required {args.check_trace_overhead * 100:.2f}%",
            file=sys.stderr,
        )
        return 1
    if (
        args.check_analytics_overhead is not None
        and report["analytics_overhead"]["overhead"]
        >= args.check_analytics_overhead
    ):
        print(
            f"ERROR: warm-serve analytics overhead "
            f"{report['analytics_overhead']['overhead'] * 100:.2f}% not "
            f"below the required {args.check_analytics_overhead * 100:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
