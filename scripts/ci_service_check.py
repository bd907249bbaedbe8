#!/usr/bin/env python
"""End-to-end CI check of the HTTP compilation service.

Boots ``python -m repro.frontend --serve`` as a subprocess (warm-cache
worker pool), then drives the acceptance workload against it:

1. ``GET /healthz`` must return 200 with every worker alive;
2. a **cold half** of structurally similar chains goes through
   ``POST /compile`` and ``POST /batch``;
3. a **warm half** (the same structures under fresh operand names) goes
   through ``POST /batch``;
4. every kernel sequence must equal a direct in-process
   ``compile_source`` call, every response must be 200, and ``GET /stats``
   must report a pooled plan-cache hit rate of at least ``--min-hit-rate``
   (default 0.5) over the warm half (the whole-plan cache of
   :mod:`repro.persist` answers warm signature-equal traffic above the
   solvers, so it -- not the match cache -- carries the warm hits);
5. a **multi-assignment DAG** program (forward reference to an earlier
   target plus an inline inverse-of-product that forces a synthetic
   extraction segment) goes through ``POST /compile``; the response's
   per-segment assignments -- targets, kernel sequences, and the
   ``synthetic`` marker -- must match the in-process reference;
6. the **execution tier**: ``POST /execute`` must compile-and-run (a) a
   seeded random-operand chain through the emitted ``module`` engine,
   (b) an explicit-payload chain whose
   result summary is verified against a local NumPy reference, and (c)
   the multi-assignment DAG program -- each validated against the
   reference evaluation server-side (``validated: true``), failing the
   check on any reference mismatch;
7. **observability**: ``GET /metrics`` must return well-formed Prometheus
   text exposition carrying every cache-telemetry layer
   (:data:`repro.telemetry.CACHE_LAYERS`), the pool gauges and the
   per-endpoint latency histograms (monotone cumulative buckets ending in
   ``le="+Inf"``), and every response must echo the client's
   ``X-Request-Id`` header (which also lands as the response body's
   ``request_id`` after riding through a pool worker);
8. **workload analytics**: after the skewed traffic above, ``GET
   /analytics`` must rank the template structure's signature first (the
   key equal to an in-process :func:`repro.service.api.affinity_key`
   computation, proving cross-process key stability), ``GET /metrics``
   must carry a positive ``repro_compile_phase_latency_seconds`` p99
   quantile series, and its ``repro_request_latency_seconds_count`` must
   have recorded the ``/compile`` requests;
9. **BLAS threads**: every worker in ``GET /stats`` must report at least
   one loaded OpenBLAS, each set to one thread (the pool's parallelism is
   its worker processes).

With ``--snapshot``, a second phase exercises **snapshot-backed warm
boot**: the server is restarted against a shared ``--snapshot-dir`` after
``POST /snapshot``, and the restarted server's *first* batch of
signature-equal requests must be answered with a plan-cache hit rate of at
least ``--min-plan-hit-rate`` (default 0.5) -- proving a rebooted worker
pool starts warm from disk, with identical kernel sequences.

Exit status is non-zero on any violation.  Usage (CI runs exactly this)::

    PYTHONPATH=src python scripts/ci_service_check.py --workers 2 --batch 24
    PYTHONPATH=src python scripts/ci_service_check.py --workers 2 --batch 8 --snapshot
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.frontend import compile_source  # noqa: E402
from repro.telemetry import CACHE_LAYERS  # noqa: E402

#: One moderately rich chain structure; tagged copies are structurally
#: similar (signature-equal), the workload the warm pool amortizes.
TEMPLATE = """
Matrix A{t} (200, 200) <spd>
Matrix B{t} (200, 100) <>
Matrix C{t} (100, 100) <lower_triangular, non_singular>
Matrix D{t} (100, 100) <upper_triangular, non_singular>
Matrix E{t} (100, 80) <>
X := A{t}^-1 * B{t} * C{t}^T * D{t}^-1 * E{t}
"""


#: Multi-assignment DAG program: ``G`` is referenced by a later line, and
#: the inline ``(H P^-1 H^T)^-1`` cannot distribute over its rectangular
#: factors, so the compiler extracts a synthetic segment for the inner
#: product before inverting its (square, full-rank) result.  (The inner
#: product deliberately differs from ``G``'s definition -- an identical
#: subtree would be CSE'd onto the ``G`` segment and no synthetic segment
#: would appear.)
DAG_SOURCE = """
Matrix Hd (50, 90) <>
Matrix Pd (90, 90) <spd>
Matrix Bd (50, 40) <>
G := Hd * Pd * Hd^T
J := G^-1 * Bd
K := Pd * Hd^T * (Hd * Pd^-1 * Hd^T)^-1
"""


def tagged_source(tag: str) -> str:
    return TEMPLATE.replace("{t}", tag)


def dag_check(base: str) -> int:
    """Phase: POST the multi-assignment DAG program and compare the
    per-segment wire payload against an in-process compile."""
    expected = [
        (entry.target, list(entry.kernel_sequence), bool(entry.synthetic))
        for entry in compile_source(DAG_SOURCE).assignments
    ]
    if not any(synthetic for _, _, synthetic in expected):
        return fail("DAG reference produced no synthetic segment")
    status, body = http_json("POST", f"{base}/compile", {"source": DAG_SOURCE})
    if status != 200:
        return fail(f"DAG /compile returned {status}")
    if not body.get("ok"):
        return fail(f"DAG request failed: {body.get('error')}")
    served = [
        (entry["target"], list(entry["kernels"]), bool(entry.get("synthetic")))
        for entry in body["assignments"]
    ]
    if served != expected:
        return fail(f"DAG response diverged: {served} != {expected}")
    print(
        f"DAG program: {len(served)} segments "
        f"({sum(1 for _, _, s in served if s)} synthetic), kernel "
        f"sequences match the in-process reference"
    )
    return 0


def execute_check(base: str) -> int:
    """Phase: ``POST /execute`` -- compile-and-run with validation."""
    import numpy as np

    # (a) Seeded random operands through the emitted module, validated
    # against the reference evaluation.
    status, body = http_json(
        "POST",
        f"{base}/execute",
        {"source": tagged_source("ex"), "execute": {"seed": 7, "engine": "module"}},
    )
    if status != 200 or not body.get("ok"):
        return fail(
            f"/execute (seeded) returned {status}: {body.get('error')} "
            f"(phase {body.get('phase')})"
        )
    if body.get("validated") is not True:
        return fail(f"seeded /execute did not validate: {body.get('error')}")
    seeded_error = body.get("max_rel_error")

    # (b) Explicit payloads, verified against a local NumPy reference.
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    A = A @ A.T + 40 * np.eye(40)
    B = rng.standard_normal((40, 25))
    source = "Matrix Ae (40, 40) <spd>\nMatrix Be (40, 25) <>\nXe := Ae^-1 * Be\n"
    status, body = http_json(
        "POST",
        f"{base}/execute",
        {
            "source": source,
            "execute": {"payloads": {"Ae": A.tolist(), "Be": B.tolist()}},
        },
    )
    if status != 200 or not body.get("ok") or body.get("validated") is not True:
        return fail(
            f"/execute (payloads) returned {status}: {body.get('error')} "
            f"(phase {body.get('phase')})"
        )
    expected = float(np.linalg.norm(np.linalg.solve(A, B)))
    served = body["results"][0]["fro_norm"]
    if abs(served - expected) > 1e-6 * max(1.0, expected):
        return fail(
            f"payload /execute result diverged from the local reference: "
            f"|fro| {served} != {expected}"
        )

    # (c) The multi-assignment DAG program through the execution tier.
    status, body = http_json(
        "POST", f"{base}/execute", {"source": DAG_SOURCE, "execute": {"seed": 3}}
    )
    if status != 200 or not body.get("ok") or body.get("validated") is not True:
        return fail(
            f"/execute (DAG) returned {status}: {body.get('error')} "
            f"(phase {body.get('phase')})"
        )
    if body["results"][0]["target"] != "K":
        return fail(f"DAG /execute computed {body['results'][0]['target']!r}, not 'K'")

    # The per-phase latency histogram must now be on /metrics.
    status, _, text = http_raw("GET", f"{base}/metrics")
    if status != 200 or "repro_execute_phase_seconds" not in text:
        return fail("/metrics is missing repro_execute_phase_seconds after /execute")
    if "repro_execute_validation_failures 0" not in text:
        return fail("/metrics is missing a zero validation-failure counter")
    print(
        f"execute tier: seeded (max rel error {seeded_error:.3g}), "
        f"explicit-payload and DAG runs all validated server-side"
    )
    return 0


def blas_threads_check(stats: dict) -> int:
    """Phase: every pool worker runs each loaded OpenBLAS on one thread.

    NumPy and SciPy bundle separate OpenBLAS copies; with their default
    thread pools they fight over the cores a worker already owns.
    """
    for entry in stats.get("per_worker", []):
        threads = entry.get("blas_threads")
        if not threads:
            return fail(f"worker {entry.get('worker')} reports no OpenBLAS: {threads!r}")
        if any(count != 1 for count in threads.values()):
            return fail(
                f"worker {entry.get('worker')} runs BLAS on more than one "
                f"thread: {threads}"
            )
    print(f"BLAS threads per worker: {stats['per_worker'][0]['blas_threads']}")
    return 0


def http_json(method: str, url: str, payload=None, timeout: float = 120.0):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def http_raw(method: str, url: str, payload=None, headers=None, timeout: float = 120.0):
    """Like :func:`http_json` but also returns the response headers (and the
    body as text) -- the observability phase inspects ``X-Request-Id`` and
    the non-JSON ``/metrics`` exposition."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    request = urllib.request.Request(url, data=data, method=method, headers=all_headers)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


#: Legal Prometheus text-exposition (0.0.4) line shapes: comments, bare
#: samples and labelled samples (numeric or +/-Inf/NaN values).
_EXPOSITION_LINE = re.compile(
    r"^(#( (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*)?"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE\.\+\-]+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+|-)?(Inf|NaN))$"
)


def observability_check(base: str) -> int:
    """Phase: request-id propagation plus the ``GET /metrics`` exposition."""
    marker = "ci-service-check-req-1"
    status, headers, body = http_raw(
        "POST",
        f"{base}/compile",
        {"source": tagged_source("obs")},
        headers={"X-Request-Id": marker},
    )
    if status != 200:
        return fail(f"observability /compile returned {status}")
    if headers.get("X-Request-Id") != marker:
        return fail(
            f"X-Request-Id not echoed: sent {marker!r}, "
            f"got {headers.get('X-Request-Id')!r}"
        )
    if json.loads(body).get("request_id") != marker:
        return fail(
            f"request id did not ride through the pool worker into the "
            f"response body: {json.loads(body).get('request_id')!r}"
        )

    status, headers, text = http_raw("GET", f"{base}/metrics")
    if status != 200:
        return fail(f"GET /metrics returned {status}")
    if not headers.get("Content-Type", "").startswith("text/plain"):
        return fail(f"/metrics Content-Type is {headers.get('Content-Type')!r}")
    if not text.endswith("\n"):
        return fail("/metrics exposition does not end with a newline")
    for line in text.rstrip("\n").splitlines():
        if not _EXPOSITION_LINE.match(line):
            return fail(f"malformed exposition line: {line!r}")
    for layer in CACHE_LAYERS:
        if f'layer="{layer}"' not in text:
            return fail(f"/metrics is missing telemetry layer {layer!r}")
    for required in (
        "repro_service_workers",
        "repro_pool_requests",
        "# TYPE repro_request_latency_seconds histogram",
        'le="+Inf"',
    ):
        if required not in text:
            return fail(f"/metrics is missing {required!r}")
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_request_latency_seconds_bucket")
        and 'endpoint="/compile"' in line
    ]
    if not buckets or buckets != sorted(buckets):
        return fail(f"non-monotone /compile latency buckets: {buckets}")
    lines = len(text.rstrip("\n").splitlines())
    print(
        f"observability: request id echoed end to end, /metrics exposition "
        f"well-formed ({lines} lines, {len(CACHE_LAYERS)} telemetry layers, "
        f"monotone latency buckets)"
    )
    return 0


def analytics_check(base: str) -> int:
    """Phase: skewed traffic must surface in the workload analytics.

    By this point the driver has sent many signature-equal ``TEMPLATE``
    requests and exactly a handful of other structures, so ``GET
    /analytics`` must rank the template signature first (with the key
    matching an in-process :func:`repro.service.api.affinity_key`
    computation -- proving the heavy-hitter keys are stable across the
    client/worker process boundary), and ``GET /metrics`` must carry
    nonzero latency quantile series and count the ``/compile`` requests.
    """
    from repro.service.api import CompileRequest, affinity_key

    # A little extra skew, so the phase also passes standalone.
    for index in range(3):
        status, body = http_json(
            "POST", f"{base}/compile", {"source": tagged_source(f"an{index}")}
        )
        if status != 200 or not body.get("ok"):
            return fail(f"analytics warmup /compile returned {status}")

    status, report = http_json("GET", f"{base}/analytics")
    if status != 200:
        return fail(f"GET /analytics returned {status}")
    top = (report.get("signatures") or {}).get("top") or []
    if not top:
        return fail("/analytics reports no tracked signatures")
    expected_key = affinity_key(CompileRequest(source=tagged_source("probe")))
    if top[0]["signature"] != expected_key:
        return fail(
            f"/analytics top-1 signature is not the template structure: "
            f"{top[0]['signature'][:80]!r}..."
        )
    if top[0]["count"] < 3 or top[0]["count"] > report.get("requests", 0):
        return fail(f"implausible top-1 count {top[0]['count']}")
    if len(top) < 2 or any(
        top[i]["count"] < top[i + 1]["count"] for i in range(len(top) - 1)
    ):
        return fail(f"/analytics top-k not sorted by count: {top}")
    if not 0.0 < top[0]["plan_hit_rate"] <= 1.0:
        return fail(
            f"template signature plan-hit rate {top[0]['plan_hit_rate']} "
            f"not in (0, 1] despite warm traffic"
        )

    status, _, text = http_raw("GET", f"{base}/metrics")
    if status != 200:
        return fail(f"GET /metrics returned {status}")
    quantile_line = re.compile(
        r'repro_compile_phase_latency_seconds\{phase="solve",quantile="0.99"\} '
        r"([0-9eE\.\+\-]+)"
    )
    match = quantile_line.search(text)
    if not match:
        return fail("/metrics is missing the solve p99 quantile series")
    if not float(match.group(1)) > 0.0:
        return fail(f"solve p99 is not positive: {match.group(0)!r}")

    recorded = sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_request_latency_seconds_count{")
        and 'endpoint="/compile"' in line
    )
    if recorded < 3:
        return fail(
            f"repro_request_latency_seconds_count only recorded {recorded} "
            f"/compile requests"
        )

    print(
        f"analytics: top-1 signature matches the in-process affinity key "
        f"(count {top[0]['count']}, plan-hit rate "
        f"{top[0]['plan_hit_rate']:.3f}), solve p99 "
        f"{float(match.group(1)) * 1e3:.3f} ms, {recorded:.0f} /compile "
        f"requests counted"
    )
    return 0


def fail(message: str) -> int:
    print(f"SERVICE CHECK FAILED: {message}", file=sys.stderr)
    return 1


def boot_server(workers: int, boot_timeout: float, snapshot_dir=None):
    """Start ``python -m repro.frontend --serve`` and wait for /healthz.

    Returns ``(process, base_url)``; raises ``RuntimeError`` on boot
    failure (the caller terminates the process either way).
    """
    command = [
        sys.executable,
        "-u",
        "-m",
        "repro.frontend",
        "--serve",
        "--port",
        "0",
        "--workers",
        str(workers),
    ]
    if snapshot_dir is not None:
        command += ["--snapshot-dir", str(snapshot_dir)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
    )
    try:
        # Workers booting from a snapshot log to the merged stream and may
        # beat the banner to it; skip those lines.
        for _ in range(4 * workers + 1):
            banner = process.stdout.readline()
            match = re.search(r"listening on http://([\d.]+):(\d+)", banner)
            if match or not banner:
                break
        print(f"server: {banner.strip()}")
        if not match:
            raise RuntimeError(f"no address in server banner: {banner!r}")
        base = f"http://{match.group(1)}:{match.group(2)}"
        deadline = time.perf_counter() + boot_timeout
        while True:
            try:
                status, health = http_json("GET", f"{base}/healthz", timeout=10.0)
                break
            except (urllib.error.URLError, OSError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.25)
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"/healthz returned {status}: {health}")
        print(f"healthz: {health}")
        return process, base
    except BaseException:
        process.terminate()
        raise


def stop_server(process) -> None:
    process.terminate()
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()


def snapshot_check(args, reference) -> int:
    """Phase 2: restart the server against a shared snapshot dir."""
    import shutil
    import tempfile

    snapshot_dir = tempfile.mkdtemp(prefix="repro-ci-snapshot-")
    tags = [f"s{index}" for index in range(max(4, args.batch // 2))]
    try:
        process, base = boot_server(
            args.workers, args.boot_timeout, snapshot_dir=snapshot_dir
        )
        try:
            status, body = http_json(
                "POST",
                f"{base}/batch",
                {"requests": [{"source": tagged_source(tag)} for tag in tags]},
            )
            if status != 200 or body["failed"]:
                return fail(
                    f"snapshot warm-up /batch returned {status}, "
                    f"failed={body.get('failed')}"
                )
            status, meta = http_json("POST", f"{base}/snapshot")
            if status != 200:
                return fail(f"POST /snapshot returned {status}: {meta}")
            print(f"snapshot written: {meta}")
            if not meta.get("plan_entries"):
                return fail(f"snapshot holds no plan entries: {meta}")
        finally:
            stop_server(process)

        # Reboot against the same directory: the first batch of renamed
        # (signature-equal) chains must be served from the loaded plan cache.
        process, base = boot_server(
            args.workers, args.boot_timeout, snapshot_dir=snapshot_dir
        )
        try:
            status, stats_boot = http_json("GET", f"{base}/stats")
            if status != 200:
                return fail(f"/stats after reboot returned {status}")
            loaded = stats_boot.get("snapshot", {}).get("workers_loaded", 0)
            if loaded < args.workers:
                return fail(
                    f"only {loaded}/{args.workers} rebooted workers loaded "
                    f"the snapshot: {stats_boot.get('snapshot')}"
                )
            status, body = http_json(
                "POST",
                f"{base}/batch",
                {
                    "requests": [
                        {"source": tagged_source(f"r{tag}")} for tag in tags
                    ]
                },
            )
            if status != 200 or body["failed"]:
                return fail(
                    f"post-reboot /batch returned {status}, "
                    f"failed={body.get('failed')}"
                )
            for tag, entry in zip(tags, body["responses"]):
                if entry["assignments"][0]["kernels"] != reference:
                    return fail(
                        f"post-reboot request r{tag} diverged: "
                        f"{entry['assignments'][0]['kernels']} != {reference}"
                    )
            status, stats_warm = http_json("GET", f"{base}/stats")
            if status != 200:
                return fail(f"/stats returned {status}")
            boot_cache = stats_boot["caches"]["plan_cache"]
            warm_cache = stats_warm["caches"]["plan_cache"]
            hits = warm_cache["hits"] - boot_cache["hits"]
            lookups = hits + warm_cache["misses"] - boot_cache["misses"]
            hit_rate = hits / lookups if lookups > 0 else 0.0
            print(
                f"warm boot: {len(tags)} requests, plan-cache hit rate "
                f"{hit_rate:.3f} ({hits}/{lookups}) on the restarted pool's "
                f"first batch"
            )
            if hit_rate < args.min_plan_hit_rate:
                return fail(
                    f"warm-boot plan-cache hit rate {hit_rate:.3f} < "
                    f"{args.min_plan_hit_rate:.3f}"
                )
        finally:
            stop_server(process)
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    print("SNAPSHOT CHECK PASSED")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--batch", type=int, default=24, help="total chains (>= 4)")
    parser.add_argument("--min-hit-rate", type=float, default=0.5)
    parser.add_argument("--boot-timeout", type=float, default=120.0)
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help="also run the snapshot/restart warm-boot phase",
    )
    parser.add_argument(
        "--min-plan-hit-rate",
        type=float,
        default=0.5,
        help=(
            "minimum plan-cache hit rate on the restarted server's first "
            "batch (--snapshot phase; default 0.5)"
        ),
    )
    args = parser.parse_args(argv)
    if args.batch < 4:
        parser.error("--batch must be >= 4")

    reference = compile_source(tagged_source("ref")).assignment("X").kernel_sequence
    print(f"reference kernel sequence: {reference}")

    try:
        process, base = boot_server(args.workers, args.boot_timeout)
    except RuntimeError as exc:
        return fail(str(exc))
    try:

        half = args.batch // 2
        cold_tags = [f"c{index}" for index in range(half)]
        warm_tags = [f"w{index}" for index in range(args.batch - half)]

        def check_response(body, tag):
            if not body.get("ok"):
                return f"request {tag} failed: {body.get('error')}"
            kernels = body["assignments"][0]["kernels"]
            if kernels != reference:
                return f"request {tag}: kernels {kernels} != reference {reference}"
            return None

        # Cold half: a couple of single /compile calls, the rest via /batch.
        singles = cold_tags[:2]
        for tag in singles:
            status, body = http_json(
                "POST", f"{base}/compile", {"source": tagged_source(tag)}
            )
            if status != 200:
                return fail(f"/compile returned {status}")
            problem = check_response(body, tag)
            if problem:
                return fail(problem)
        status, body = http_json(
            "POST",
            f"{base}/batch",
            {"requests": [{"source": tagged_source(tag)} for tag in cold_tags[2:]]},
        )
        if status != 200 or body["failed"]:
            return fail(f"cold /batch returned {status}, failed={body.get('failed')}")
        for tag, entry in zip(cold_tags[2:], body["responses"]):
            problem = check_response(entry, tag)
            if problem:
                return fail(problem)

        status, stats_cold = http_json("GET", f"{base}/stats")
        if status != 200:
            return fail(f"/stats returned {status}")

        # Warm half: same structure, fresh names -> signature-cache hits.
        status, body = http_json(
            "POST",
            f"{base}/batch",
            {"requests": [{"source": tagged_source(tag)} for tag in warm_tags]},
        )
        if status != 200 or body["failed"]:
            return fail(f"warm /batch returned {status}, failed={body.get('failed')}")
        for tag, entry in zip(warm_tags, body["responses"]):
            problem = check_response(entry, tag)
            if problem:
                return fail(problem)

        status, stats_warm = http_json("GET", f"{base}/stats")
        if status != 200:
            return fail(f"/stats returned {status}")

        # Options parity: a request with a nested CompileOptions wire object
        # (the exhaustive prune=False loop, match cache off) must produce the
        # same kernel sequence as the default pipeline.
        status, body = http_json(
            "POST",
            f"{base}/compile",
            {
                "source": tagged_source("opt"),
                "options": {"prune": False, "match_cache": False},
            },
        )
        if status != 200:
            return fail(f"/compile with nested options returned {status}")
        problem = check_response(body, "opt")
        if problem:
            return fail(f"nested-options request diverged: {problem}")

        # The plan cache (the layer above the solvers) answers the warm
        # half; the match cache underneath only sees cold solves.
        cold_cache = stats_cold["caches"]["plan_cache"]
        warm_cache = stats_warm["caches"]["plan_cache"]
        hits = warm_cache["hits"] - cold_cache["hits"]
        lookups = hits + warm_cache["misses"] - cold_cache["misses"]
        hit_rate = hits / lookups if lookups > 0 else 0.0
        print(
            f"warm half: {len(warm_tags)} requests, pooled plan-cache hit rate "
            f"{hit_rate:.3f} ({hits}/{lookups}), pool counters "
            f"{stats_warm['pool']}"
        )
        if hit_rate < args.min_hit_rate:
            return fail(
                f"warm pooled hit rate {hit_rate:.3f} < {args.min_hit_rate:.3f}"
            )

        problem = blas_threads_check(stats_warm)
        if problem:
            return problem

        problem = dag_check(base)
        if problem:
            return problem

        problem = execute_check(base)
        if problem:
            return problem

        problem = observability_check(base)
        if problem:
            return problem

        problem = analytics_check(base)
        if problem:
            return problem

        print("SERVICE CHECK PASSED")
    finally:
        stop_server(process)

    if args.snapshot:
        return snapshot_check(args, reference)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
