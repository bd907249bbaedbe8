"""Client-observed benchmark of the compilation service.

    python3 perfbench/run.py --workload warm_rename --seed 1 --seconds 20 --trace 0

Boots ``python -m repro.frontend --serve --workers 2 --port 0`` from the
checkout's ``src/`` and drives it in a closed loop over keep-alive HTTP.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` sends a fixed number of requests of the
same stream (so ``/stats`` counter deltas repeat exactly at a fixed
seed), then replays that stream in process with spans and reports the
per-layer metrics.  Both check every output (``checks.py``) and stop the
server with SIGINT, failing the run if a worker outlives it.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: The server runs with the caller's environment.  This process times the
#: generated code with one BLAS thread: multi-threaded OpenBLAS on these
#: small operands is about 3x slower and far noisier on a 2-core machine.
SERVER_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# Import the benchmark as a package and the program from the checkout's
# source tree; drop perfbench/ itself from the path so its module names
# cannot shadow anything.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

OUT = ROOT / "perfbench" / "out"

#: Boots per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_BOOTS = 5
#: Requests the ``--trace 1`` run sends (and replays) per workload.
TRACE_REQUESTS = {"warm_rename": 400, "cold_long": 150, "dag_execute": 150}
#: ``cold_long`` has no fixed structure set, so ``plan_flops`` and
#: ``generated_run_ms`` cover its first this-many requests.
COLD_PLAN_SET = 200
RUN_ROUNDS = 30
RUN_PAUSE_S = 0.1
POOL_PASS_REQUESTS = 100


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def response_failure(sample, golden: dict, workload: str) -> Optional[str]:
    """Why a served response is wrong, or ``None``."""
    from perfbench.checks import golden_plan, plan_mismatch, wire_plan

    payload = sample.payload
    if sample.status != 200 or not isinstance(payload, dict):
        return f"HTTP {sample.status}"
    if not payload.get("ok"):
        return f"ok=false: {payload.get('error')}"
    expected = golden_plan(golden, workload, sample.request.structure)
    if sample.request.path == "/execute":
        if payload.get("validated") is not True:
            return "validated is not true"
        if expected is not None and payload["total_flops"] != sum(entry[3] for entry in expected):
            return f"total_flops {payload['total_flops']} differs from golden"
        return None
    return plan_mismatch(expected, wire_plan(payload["assignments"]))


class Run:
    def __init__(self, args) -> None:
        from perfbench.workloads import load_golden, make_workload

        self.args = args
        self.golden = load_golden()
        self.workload = make_workload(args.workload, args.seed, self.golden)
        self.errors: List[str] = []
        self.failed_indices = set()

    def fail(self, message: str, index: Optional[int] = None) -> None:
        if len(self.errors) < 20:
            log(f"check failed: {message}")
        self.errors.append(message)
        if index is not None and index >= 0:
            self.failed_indices.add(index)

    # ---------------------------------------------------------------- HTTP
    def drive(self) -> dict:
        from perfbench.checks import check_cold_pool
        from perfbench.client import Connection, closed_loop
        from perfbench.measure import min_samples
        from perfbench.server import setup_times

        if self.args.workload == "cold_long":
            problem = check_cold_pool(self.golden, self.workload.pool)
            if problem:
                self.fail(problem)
        boots = SETUP_BOOTS if self.args.trace == 0 else 1
        setups, server, orphans = setup_times(ROOT, OUT, SERVER_ENV, boots)
        log(f"setup seconds per boot: {[round(s, 4) for s in setups]}")
        result: dict = {"setup_s": statistics.median(setups)}
        try:
            connections = [Connection(server.port) for _ in range(self.workload.connections)]
            warm = self.workload.warmup()
            result["warmup"] = [
                connections[number % len(connections)].send(request)
                for number, request in enumerate(warm)
            ]
            if self.args.trace:
                before = server.stats()
                samples, window = closed_loop(
                    connections, self.workload, count=TRACE_REQUESTS[self.args.workload]
                )
                result["stats"] = (before, server.stats())
            else:
                samples, window = closed_loop(
                    connections, self.workload, seconds=self.args.seconds,
                    min_samples=min_samples(95),
                )
            result["samples"], result["window_s"] = samples, window
            if self.args.workload == "dag_execute":
                result["probes"] = self.probe_dag_plans(connections[0])
            result["peak_rss_mb"] = server.peak_rss_mb()
            for connection in connections:
                connection.close()
        finally:
            orphans += server.stop()
        if orphans:
            self.fail(f"processes outlived SIGINT shutdown: {orphans}")
        return result

    def probe_dag_plans(self, connection) -> list:
        """``/execute`` responses carry no kernels: fetch each variant's
        plan through ``/compile`` (untimed) for the golden comparison."""
        from perfbench.workloads import Request, compile_body, rename_operands

        probes = []
        for structure, source in enumerate(self.workload.sources):
            source = rename_operands(source, f"p{structure}")
            request = Request(-1000 - structure, "/compile", compile_body(source), source, structure, 0)
            probes.append(connection.send(request))
        return probes

    # -------------------------------------------------------------- checks
    def check_responses(self, result: dict) -> None:
        samples = result["samples"]
        checked = [(s, "warm-up") for s in result["warmup"]] + [(s, "timed") for s in samples]
        checked += [(s, "plan probe") for s in result.get("probes", ())]
        for sample, phase in checked:
            problem = response_failure(sample, self.golden, self.args.workload)
            if problem:
                self.fail(f"{phase} request {sample.request.index}: {problem}", sample.request.index)

    def representatives(self, result: dict) -> list:
        """The samples whose generated code is run: one per structure for
        ``warm_rename``, every distinct chain for ``cold_long``."""
        if self.args.workload == "warm_rename":
            chosen = {s.request.structure: s for s in result["warmup"]}
            chosen.update({s.request.structure: s for s in result["samples"]})
            return [chosen[key] for key in sorted(chosen)]
        return list(result["samples"])

    def generated_code(self, result: dict) -> Dict[str, float]:
        """Run the returned NumPy code against the reference; sum the
        min-of-k run times and plan FLOPs over the fixed plan set."""
        from perfbench.checks import min_run_times, numeric_check

        calls, flops = [], 0.0
        for position, sample in enumerate(self.representatives(result)):
            if sample.request.index in self.failed_indices or not isinstance(sample.payload, dict):
                continue
            if not sample.payload.get("ok"):
                continue
            assignment = sample.payload["assignments"][-1]
            try:
                problem, function, arguments = numeric_check(
                    sample.request.source, assignment["code"]["numpy"], sample.request.data_seed
                )
            except Exception as exc:  # noqa: BLE001 -- any crash is a wrong output
                problem, function = f"{type(exc).__name__}: {exc}", None
            if problem:
                self.fail(f"request {sample.request.index}: {problem}", sample.request.index)
                continue
            if self.args.workload == "cold_long" and position >= COLD_PLAN_SET:
                continue
            calls.append((function, arguments))
            flops += sample.payload["total_flops"]
        run_s = sum(min_run_times(calls, RUN_ROUNDS, RUN_PAUSE_S))
        return {"generated_run_ms": run_s * 1e3, "plan_flops": flops}

    def dag_plan_metrics(self, result: dict) -> Dict[str, float]:
        """Per variant: the median server-side module run and its FLOPs.

        The median, not the minimum: runs of the variants with solves are
        bimodal in the pool workers (multi-threaded BLAS; a 1-2 ms mode and
        a 15 ms mode), and a minimum would hide the mode users mostly pay.
        """
        runs: Dict[int, List[float]] = {}
        flops: Dict[int, float] = {}
        for sample in result["warmup"] + result["samples"]:
            payload = sample.payload or {}
            if not payload.get("ok"):
                continue
            structure = sample.request.structure
            runs.setdefault(structure, []).append(payload["timing"]["run_s"])
            flops[structure] = payload["total_flops"]
        return {
            "generated_run_ms": sum(statistics.median(v) for v in runs.values()) * 1e3,
            "plan_flops": sum(flops.values()),
        }

    # ------------------------------------------------------------- reports
    def end_to_end(self, result: dict) -> Dict[str, float]:
        from perfbench.measure import harrell_davis, tail_percentile

        samples = result["samples"]
        if self.args.workload == "dag_execute":
            metrics = self.dag_plan_metrics(result)
        else:
            metrics = self.generated_code(result)
        latencies = [s.latency_s * 1e3 for s in samples]
        succeeded = len(samples) - len({s.request.index for s in samples} & self.failed_indices)
        metrics.update({
            "latency_p50_ms": harrell_davis(latencies, 0.5),
            "latency_p95_ms": tail_percentile(latencies, 95),
            "throughput_rps": succeeded / result["window_s"],
            "success_rate": succeeded / len(samples),
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        })
        return metrics

    def per_layer(self, result: dict) -> Dict[str, float]:
        metrics = self.http_layers(result)
        metrics["pool.submit_overhead_ms"] = self.pool_overhead_ms()
        metrics.update(self.replay_layers(result))
        return metrics

    def http_layers(self, result: dict) -> Dict[str, float]:
        """Client-side and ``/stats``-delta metrics of the fixed-count run."""
        samples = result["samples"]
        outside = [
            (s.latency_s - s.payload["timing"]["total_s"]) * 1e3
            for s in samples
            if isinstance(s.payload, dict) and "total_s" in s.payload.get("timing", {})
        ]
        before, after = result["stats"]

        def delta(layer: str, key: str) -> float:
            return after["caches"][layer].get(key, 0) - before["caches"][layer].get(key, 0)

        def rate(layer: str) -> float:
            hits, misses = delta(layer, "hits"), delta(layer, "misses")
            return hits / (hits + misses) if hits + misses else 0.0

        served = [
            late["requests"] - early["requests"]
            for early, late in zip(before["per_worker"], after["per_worker"])
        ]
        return {
            "http.outside_worker_ms": statistics.median(outside),
            "pool.worker_skew": max(served) / max(1, min(served)),
            "segments.count": delta("segments", "segments"),
            "segments.cse_reuses": delta("segments", "cse_reuses"),
            "plan_cache.hit_rate": rate("plan_cache"),
            "plan_cache.evictions": delta("plan_cache", "evictions"),
            "solver.cells_evaluated": delta("solver", "cells_evaluated"),
            "solver.cells_pruned": delta("solver", "cells_pruned"),
            "solver.memo_hit_rate": rate("solver"),
            "match_cache.hit_rate": rate("match_cache"),
            "inference.hit_rate": rate("inference"),
            "interner.hit_rate": rate("interner"),
            "kernel_cost.hit_rate": rate("kernel_cost"),
            "exec.module_cache_hit_rate": rate("execution"),
        }

    def traced_stream(self):
        """The warm-up and the fixed-count stream the HTTP run sent."""
        from perfbench.workloads import make_workload

        workload = make_workload(self.args.workload, self.args.seed, self.golden)
        warm = workload.warmup()
        return warm, workload.take(TRACE_REQUESTS[self.args.workload])

    def pool_overhead_ms(self) -> float:
        """Median ``WorkerPool`` round trip minus the worker's ``total_s``."""
        from repro.exec.api import ExecuteRequest
        from repro.service.api import CompileRequest
        from repro.service.pool import WorkerPool

        warm, stream = self.traced_stream()
        overheads = []
        with WorkerPool(workers=2) as pool:
            for number, request in enumerate(warm + stream[:POOL_PASS_REQUESTS]):
                payload = json.loads(request.body)
                if request.path == "/execute":
                    decoded, submit = ExecuteRequest.from_dict(payload), pool.execute
                else:
                    decoded, submit = CompileRequest.from_dict(payload), pool.submit
                started = time.perf_counter()
                response = submit(decoded)
                wall = time.perf_counter() - started
                if not response.ok:
                    self.fail(f"pool pass request {request.index}: {response.error}")
                elif number >= len(warm):
                    overheads.append(wall - response.timing["total_s"])
        return statistics.median(overheads) * 1e3

    def replay_layers(self, result: dict) -> Dict[str, float]:
        """Replay the HTTP stream in process, spans off then on; both must
        serve the plans the HTTP run served."""
        from perfbench.replay import layer_report, replay_pass

        warm, stream = self.traced_stream()
        served = {s.request.index: s for s in result["samples"]}
        probes = {s.request.structure: s for s in result.get("probes", ())}
        walls = {}
        tracer = None
        for traced in (False, True):
            wall, tracer, outputs = replay_pass(warm, stream, traced, OUT / "tmp" / f"replay{int(traced)}")
            walls[traced] = wall
            for request, output in zip(stream, outputs):
                self.check_replay(request, output, served.get(request.index), probes)
        tracer.write(OUT / f"spans-{self.args.workload}-{self.args.seed}.json")
        return layer_report(walls[True], walls[False], tracer, len(stream))

    def check_replay(self, request, output, sample, probes) -> None:
        from perfbench.checks import wire_plan

        if sample is None or not isinstance(sample.payload, dict) or not sample.payload.get("ok"):
            self.fail(f"replayed request {request.index} has no served response to match")
            return
        if request.path == "/execute":
            plan, total_flops, validated = output
            probe = probes.get(request.structure)
            served_plan = wire_plan(probe.payload["assignments"]) if probe and probe.payload else None
            if not validated or total_flops != sample.payload["total_flops"] or plan != served_plan:
                self.fail(f"replay of request {request.index} differs from the HTTP run")
        elif output[0] != wire_plan(sample.payload["assignments"]):
            self.fail(f"replay of request {request.index} differs from the HTTP run")

    # ---------------------------------------------------------------- main
    def execute(self) -> dict:
        result = self.drive()
        self.check_responses(result)
        if self.args.trace:
            metrics = self.per_layer(result)
            names = metric_specs()["per_layer"]
        else:
            metrics = self.end_to_end(result)
            names = metric_specs()["end_to_end"]
        samples = result["samples"]
        failed = len({s.request.index for s in samples} & self.failed_indices)
        return {
            "correct": not self.errors,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {
                spec["name"]: {"value": float(metrics[spec["name"]]), "unit": spec["unit"]}
                for spec in names
            },
        }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # Emitted modules of the execution tier (here and in forked pool
    # workers) go under the checkout, not the system temp dir.
    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(exist_ok=True)
    tempfile.tempdir = None
    try:
        report = Run(args).execute()
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
