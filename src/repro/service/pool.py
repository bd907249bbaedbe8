"""Warm-cache execution back-ends: worker pool and in-process executor.

Both executors implement the same duck-typed interface consumed by the HTTP
front-end (:mod:`repro.service.http`) and by library users:

``submit(request) -> CompileResponse``
    compile one request;
``compile_batch(requests) -> List[CompileResponse]``
    compile many requests, responses in submission order;
``execute(request) -> ExecuteResponse``
    compile **and run** one :class:`~repro.exec.api.ExecuteRequest`
    through the execution tier (emit standalone module, import, run,
    validate against the reference) -- the backing of ``POST /execute``;
``stats() / reset_stats()``
    pooled cache telemetry (see :mod:`repro.telemetry`);
``ping() / close()``
    liveness probe and shutdown.  Both executors are context managers.

:class:`InProcessExecutor` runs everything synchronously in the calling
process -- no subprocesses, deterministic, used by tier-1 tests and as the
``--in-process`` fallback of the CLI.

:class:`WorkerPool` owns N persistent worker *processes*.  Each worker
builds the default kernel catalog once and keeps every cache layer warm
across requests: the expression interner, the property-inference memo, the
signature-keyed match cache, the whole-plan cache and one kernel-cost LRU
per metric.  Requests are routed by **affinity**: structurally similar
chains share their name-abstracted signature
(:func:`repro.service.api.affinity_key`) and land on the same worker, whose
match cache is already warm for them.  A worker that dies (crash, OOM kill)
is transparently restarted and its in-flight requests are resubmitted, up
to ``max_retries`` per request; requests that keep killing workers come
back as ``ok=False`` responses instead of hanging the caller.

**Warm boot**: when a ``snapshot_dir`` is configured, every worker loads
the directory's cache snapshot (:mod:`repro.persist.snapshot`) at boot --
so a restarted pool answers its first signature-equal request from the
plan cache -- and the pool persists a merged snapshot of all workers on
shutdown (and on demand via :meth:`WorkerPool.save_snapshot`, the backing
of ``POST /snapshot``).  A stale or corrupt snapshot is reported in
``stats()`` and simply boots cold.

**Backpressure**: each worker's in-flight request count is bounded
(``max_inflight_per_worker``); dispatching beyond the bound raises
:class:`PoolSaturatedError`, which the HTTP front-end maps to ``429`` with
a ``Retry-After`` hint, instead of growing the inbox queues without limit.

Wire format: plain dicts (``CompileRequest.to_dict`` /
``CompileResponse.to_dict``) travel over the queues, so workers never
unpickle custom classes and the pool works under ``fork`` and ``spawn``
alike.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..frontend.compiler import Compiler
from ..obs.logging import get_logger
from ..kernels.catalog import KernelCatalog
from ..options import CompileOptions
from ..persist.snapshot import (
    capture_state,
    load_snapshot,
    merge_states,
    snapshot_path,
    write_snapshot,
)
from ..runtime.blas_threads import blas_threads, limit_blas_threads
from .. import telemetry
from .api import CompileRequest, CompileResponse, affinity_key, execute_request

_LOG = get_logger("service.pool")

__all__ = [
    "PoolSaturatedError",
    "InProcessExecutor",
    "WorkerPool",
    "create_executor",
]

#: Seconds between liveness checks while a caller waits for a response.
_POLL_INTERVAL = 0.05

#: Default bound on in-flight requests per worker (and for the in-process
#: executor as a whole) before :class:`PoolSaturatedError` pushes back.
DEFAULT_MAX_INFLIGHT = 64


class PoolSaturatedError(RuntimeError):
    """Raised when dispatching would exceed the in-flight request bound.

    ``retry_after`` is the back-off hint (seconds) the HTTP front-end
    forwards as the ``Retry-After`` header of its ``429`` response.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _log_snapshot_load(result: Optional[dict], worker: Optional[int]) -> None:
    """One structured line per snapshot-backed boot (cold boots at INFO --
    a missing snapshot is normal on first start; corrupt ones warn)."""
    if not isinstance(result, dict):
        return
    fields = {"worker": worker, **result}
    if result.get("loaded"):
        _LOG.info("snapshot loaded, booting warm", extra=fields)
    elif result.get("missing"):
        _LOG.info("no snapshot found, booting cold", extra=fields)
    else:
        _LOG.warning("snapshot unusable, booting cold", extra=fields)


def _log_snapshot_save(meta: dict) -> None:
    _LOG.info("snapshot saved", extra=dict(meta))


# ---------------------------------------------------------------------------
# In-process executor (the synchronous fallback).
# ---------------------------------------------------------------------------

class InProcessExecutor:
    """Synchronous executor running compilations in the calling process.

    Thread-safe: concurrent ``submit`` calls (e.g. from the threading HTTP
    server) are serialized around the shared caches -- concurrent solving
    is the worker pool's job; this executor's job is determinism and zero
    process overhead for tests and small deployments.
    """

    def __init__(
        self,
        catalog: Optional[KernelCatalog] = None,
        snapshot_dir=None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        #: The warm compilation session shared by every request.
        self.compiler = Compiler(CompileOptions(catalog=catalog))
        self._lock = threading.Lock()
        self._gate = threading.Lock()
        self._pending = 0
        self.max_inflight = max_inflight
        self.requests_served = 0
        self.errors = 0
        self.rejections = 0
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        #: Boot-time snapshot load result (``None`` without a snapshot dir).
        self.snapshot_load: Optional[dict] = None
        if self.snapshot_dir is not None:
            self.snapshot_load = load_snapshot(
                snapshot_path(self.snapshot_dir),
                self.compiler.plan_cache,
                self.compiler.catalog,
            )
            _log_snapshot_load(self.snapshot_load, worker=None)

    @property
    def workers(self) -> int:
        return 0

    def _execute(self, request: CompileRequest) -> CompileResponse:
        """Run one request on the shared session (serialized, counted)."""
        with self._lock:
            response = execute_request(request, compiler=self.compiler)
            self.requests_served += 1
            if not response.ok:
                self.errors += 1
            return response

    def _reserve(self, count: int) -> None:
        """Claim *count* in-flight slots or raise (all-or-nothing)."""
        with self._gate:
            if self._pending + count > self.max_inflight:
                self.rejections += 1
                _LOG.warning(
                    "pool saturated, request rejected",
                    extra={
                        "pending": self._pending,
                        "requested": count,
                        "max_inflight": self.max_inflight,
                        "rejections": self.rejections,
                    },
                )
                raise PoolSaturatedError(
                    f"{count} request(s) would exceed the in-flight bound "
                    f"({self._pending} pending, bound {self.max_inflight})"
                )
            self._pending += count

    def submit(self, request: CompileRequest, timeout: Optional[float] = None) -> CompileResponse:
        self._reserve(1)
        try:
            return self._execute(request)
        finally:
            with self._gate:
                self._pending -= 1

    def execute(self, request, timeout: Optional[float] = None):
        """Compile-and-run one :class:`~repro.exec.api.ExecuteRequest` on
        the shared warm session (same backpressure as :meth:`submit`)."""
        # Imported lazily: repro.exec.api itself imports this package.
        from ..exec.api import run_execute_request

        self._reserve(1)
        try:
            with self._lock:
                response = run_execute_request(request, compiler=self.compiler)
                self.requests_served += 1
                if not response.ok:
                    self.errors += 1
                return response
        finally:
            with self._gate:
                self._pending -= 1

    def compile_batch(
        self, requests: Sequence[CompileRequest], timeout: Optional[float] = None
    ) -> List[CompileResponse]:
        # All-or-nothing reservation (mirrors WorkerPool): a batch that
        # would overflow the in-flight bound is rejected before anything
        # executes, never half-executed-then-429'd.
        count = len(requests)
        self._reserve(count)
        try:
            return [self._execute(request) for request in requests]
        finally:
            with self._gate:
                self._pending -= count

    def stats(self) -> dict:
        with self._lock:
            caches = self.compiler.cache_stats()
        pooled = telemetry.aggregate([caches])
        return {
            "mode": "in-process",
            "workers": 0,
            "pool": {
                "requests": self.requests_served,
                "errors": self.errors,
                "restarts": 0,
                "rejections": self.rejections,
                "max_inflight_per_worker": self.max_inflight,
            },
            "caches": pooled,
            "snapshot": self.snapshot_load,
            "per_worker": [
                {
                    "worker": None,
                    "requests": self.requests_served,
                    "caches": caches,
                    "snapshot": self.snapshot_load,
                    "blas_threads": blas_threads(),
                }
            ],
        }

    def analytics(self) -> dict:
        """The workload-analytics sketch state (:mod:`repro.obs.analytics`)
        of this process's compiler session."""
        return (self.stats().get("caches") or {}).get("analytics") or {}

    def reset_stats(self) -> None:
        with self._lock:
            self.compiler.reset_cache_stats()
            self.requests_served = 0
            self.errors = 0
            self.rejections = 0

    def ping(self) -> dict:
        return {"status": "ok", "mode": "in-process", "workers": 0, "alive": 0}

    def save_snapshot(self) -> dict:
        """Persist the session's caches to the configured snapshot dir."""
        if self.snapshot_dir is None:
            raise RuntimeError("no snapshot directory configured")
        with self._lock:
            state = capture_state(self.compiler.plan_cache, self.compiler.catalog)
        return write_snapshot(snapshot_path(self.snapshot_dir), state)

    def close(self) -> None:
        if self.snapshot_dir is not None:
            try:
                meta = self.save_snapshot()
            except Exception as exc:  # noqa: BLE001 -- shutdown must not fail on I/O
                _LOG.warning(
                    "shutdown snapshot save failed",
                    extra={"error": f"{type(exc).__name__}: {exc}"},
                )
            else:
                _log_snapshot_save(meta)

    def __enter__(self) -> "InProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker process main loop.
# ---------------------------------------------------------------------------

def _worker_main(worker_id: int, inbox, outbox, snapshot_file=None) -> None:
    """Serve requests until shutdown; every cache stays warm in between.

    Each worker holds one :class:`~repro.frontend.compiler.Compiler`
    session: the session owns the catalog and the per-metric cost LRUs, and
    with them every cache layer that makes repeated structurally similar
    requests cheap.  With a *snapshot_file*, the worker boots warm by
    loading the plan-cache/match-cache snapshot into the fresh session
    (stale/corrupt snapshots boot cold, reported via ``stats``).  Messages
    are ``(kind, token, payload)`` tuples; every message except
    ``shutdown``/``crash`` is answered with ``(token, payload)`` on
    *outbox*.

    The worker first caps every loaded OpenBLAS at one thread: the pool
    already runs one process per core, and NumPy's and SciPy's separate
    OpenBLAS thread pools otherwise spin against each other on plans that
    interleave products with solves (:mod:`repro.runtime.blas_threads`).
    """
    limit_blas_threads()
    compiler = Compiler()
    snapshot_load = None
    if snapshot_file is not None:
        snapshot_load = load_snapshot(
            snapshot_file, compiler.plan_cache, compiler.catalog
        )
        _log_snapshot_load(snapshot_load, worker=worker_id)
    served = 0
    failed = 0
    while True:
        kind, token, payload = inbox.get()
        if kind == "shutdown":
            break
        if kind == "crash":  # test hook: simulate a hard worker death
            os._exit(17)
        if kind == "request":
            try:
                request = CompileRequest.from_dict(payload)
                response = execute_request(
                    request, compiler=compiler, worker=worker_id
                )
            except Exception as exc:  # noqa: BLE001 -- never kill the loop
                response = CompileResponse(
                    request_id=str((payload or {}).get("request_id", "")),
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    worker=worker_id,
                )
            served += 1
            if not response.ok:
                failed += 1
            outbox.put((token, response.to_dict()))
        elif kind == "execute":
            # Imported here, not at module top: repro.exec.api imports
            # repro.service.api, whose package init imports this module.
            from ..exec.api import ExecuteRequest, ExecuteResponse, run_execute_request

            try:
                exec_request = ExecuteRequest.from_dict(payload)
                response = run_execute_request(
                    exec_request, compiler=compiler, worker=worker_id
                )
            except Exception as exc:  # noqa: BLE001 -- never kill the loop
                response = ExecuteResponse(
                    request_id=str((payload or {}).get("request_id", "")),
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    phase="request",
                    worker=worker_id,
                )
            served += 1
            if not response.ok:
                failed += 1
            outbox.put((token, response.to_dict()))
        elif kind == "stats":
            outbox.put(
                (
                    token,
                    {
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "requests": served,
                        "errors": failed,
                        "caches": compiler.cache_stats(),
                        "snapshot": snapshot_load,
                        "blas_threads": blas_threads(),
                    },
                )
            )
        elif kind == "export_snapshot":
            try:
                payload = capture_state(compiler.plan_cache, compiler.catalog)
            except Exception as exc:  # noqa: BLE001 -- never kill the loop
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            outbox.put((token, payload))
        elif kind == "reset_stats":
            compiler.reset_cache_stats()
            served = 0
            failed = 0
            outbox.put((token, True))
        elif kind == "ping":
            outbox.put((token, {"worker": worker_id, "pid": os.getpid()}))
        else:  # unknown control message: answer rather than wedge the caller
            outbox.put((token, {"error": f"unknown message kind {kind!r}"}))


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------

class WorkerPool:
    """A pool of persistent warm-cache compiler worker processes."""

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        request_timeout: float = 300.0,
        max_retries: int = 2,
        snapshot_dir=None,
        max_inflight_per_worker: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        count = workers if workers and workers > 0 else min(4, os.cpu_count() or 1)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.max_inflight_per_worker = max_inflight_per_worker
        self.restarts = 0
        self.batches = 0
        self.rejections = 0
        #: In-flight *request* count per worker (the backpressure signal;
        #: control messages -- stats/ping/snapshot -- are never counted).
        self._request_load = [0] * count

        self._inboxes = [self._ctx.Queue() for _ in range(count)]
        self._outbox = self._ctx.Queue()
        self._procs: List[Optional[multiprocessing.Process]] = [None] * count
        self._lock = threading.Lock()
        self._tokens = itertools.count()
        self._events: Dict[int, threading.Event] = {}
        self._results: Dict[int, object] = {}
        #: token -> [worker_index, kind, payload, retries] for in-flight work.
        self._inflight: Dict[int, list] = {}
        self._closed = False
        self._closing = False

        for index in range(count):
            self._spawn(index)
        self._collector = threading.Thread(
            target=self._collect, name="repro-service-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------ lifecycle
    @property
    def workers(self) -> int:
        return len(self._procs)

    def _spawn(self, index: int) -> None:
        snapshot_file = (
            str(snapshot_path(self.snapshot_dir))
            if self.snapshot_dir is not None
            else None
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self._inboxes[index], self._outbox, snapshot_file),
            name=f"repro-service-worker-{index}",
            daemon=True,
        )
        proc.start()
        self._procs[index] = proc

    def close(self) -> None:
        """Shut every worker down and stop the collector.

        With a snapshot directory configured, the merged cache state of all
        workers is persisted first, so the next boot starts warm.  Repeated
        calls are no-ops -- the closing flag is claimed before the snapshot
        save, so a second close never dispatches to already-dead workers.
        """
        with self._lock:
            if self._closed or self._closing:
                return
            self._closing = True
        if self.snapshot_dir is not None:
            try:
                meta = self.save_snapshot()
            except Exception as exc:  # noqa: BLE001 -- shutdown must not fail on I/O
                _LOG.warning(
                    "shutdown snapshot save failed",
                    extra={"error": f"{type(exc).__name__}: {exc}"},
                )
            else:
                _log_snapshot_save(meta)
        with self._lock:
            self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(("shutdown", None, None))
            except Exception:  # noqa: BLE001 -- queue may already be broken
                pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
        self._outbox.put(None)
        self._collector.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ transport
    def _collect(self) -> None:
        """Single reader of the shared outbox; fills result slots."""
        while True:
            try:
                item = self._outbox.get()
            except Exception:  # noqa: BLE001 -- EOFError/OSError/unpickling
                # A worker hard-killed mid-write can corrupt one queue
                # message (EOFError / unpickling errors).  Losing that
                # message is recoverable -- the waiter times out and the
                # crash path resubmits -- but losing the *collector* would
                # wedge the whole pool, so swallow and keep reading.
                with self._lock:
                    if self._closed:
                        return
                time.sleep(_POLL_INTERVAL)
                continue
            if item is None:
                return
            token, payload = item
            with self._lock:
                event = self._events.get(token)
                if event is None:
                    # Late or duplicate delivery (timed-out waiter, or a
                    # request that ran twice around a crash): drop it.
                    continue
                self._release(self._inflight.pop(token, None))
                self._results[token] = payload
            event.set()

    def _release(self, entry) -> None:
        """Drop an in-flight entry's backpressure reservation (lock held)."""
        if entry is not None and entry[1] in ("request", "execute"):
            self._request_load[entry[0]] -= 1

    def _reserve(self, indices: Sequence[int]) -> None:
        """Reserve in-flight slots on every worker in *indices*, atomically.

        All-or-nothing: a batch whose demand would push any worker past
        ``max_inflight_per_worker`` is rejected as a whole (no partial
        dispatch), which is what lets ``POST /batch`` answer 429 instead of
        returning a half-completed batch.
        """
        demand: Dict[int, int] = {}
        for index in indices:
            demand[index] = demand.get(index, 0) + 1
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            for index, extra in demand.items():
                load = self._request_load[index]
                if load + extra > self.max_inflight_per_worker:
                    self.rejections += 1
                    _LOG.warning(
                        "pool saturated, request rejected",
                        extra={
                            "worker": index,
                            "queued": load,
                            "requested": extra,
                            "max_inflight_per_worker": self.max_inflight_per_worker,
                            "rejections": self.rejections,
                        },
                    )
                    raise PoolSaturatedError(
                        f"worker {index} would exceed its in-flight bound "
                        f"({load} queued + {extra} new > "
                        f"{self.max_inflight_per_worker})"
                    )
            for index, extra in demand.items():
                self._request_load[index] += extra

    def _dispatch(self, index: int, kind: str, payload) -> int:
        token = next(self._tokens)
        event = threading.Event()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._events[token] = event
            self._inflight[token] = [index, kind, payload, 0]
        self._inboxes[index].put((kind, token, payload))
        return token

    def _check_workers(self) -> None:
        """Restart dead workers and resubmit (or fail) their in-flight work."""
        with self._lock:
            if self._closed:
                return
            for index, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                proc.join(timeout=0.1)
                self._spawn(index)
                self.restarts += 1
                _LOG.warning(
                    "worker crashed, restarted transparently",
                    extra={
                        "worker": index,
                        "exitcode": proc.exitcode,
                        "restarts": self.restarts,
                        "inflight_resubmitted": sum(
                            1
                            for entry in self._inflight.values()
                            if entry[0] == index
                        ),
                    },
                )
                for token, entry in list(self._inflight.items()):
                    if entry[0] != index:
                        continue
                    entry[3] += 1
                    if entry[3] > self.max_retries:
                        del self._inflight[token]
                        self._release(entry)
                        self._results[token] = self._failure_payload(entry)
                        event = self._events.get(token)
                        if event is not None:
                            event.set()
                    else:
                        self._inboxes[index].put((entry[1], token, entry[2]))

    @staticmethod
    def _failure_payload(entry: list) -> object:
        index, kind, payload, retries = entry
        message = f"worker {index} crashed {retries} times processing this message"
        if kind == "request":
            return CompileResponse(
                request_id=str((payload or {}).get("request_id", "")),
                ok=False,
                error=message,
                worker=index,
            ).to_dict()
        if kind == "execute":
            from ..exec.api import ExecuteResponse

            return ExecuteResponse(
                request_id=str((payload or {}).get("request_id", "")),
                ok=False,
                error=message,
                phase="request",
                worker=index,
            ).to_dict()
        return {"error": message, "worker": index}

    def _wait(self, token: int, timeout: Optional[float]):
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.request_timeout
        )
        event = self._events[token]
        while not event.wait(_POLL_INTERVAL):
            self._check_workers()
            if time.monotonic() > deadline:
                # Deregister the event in the same critical section as the
                # result/inflight cleanup: a late delivery racing with this
                # cleanup must either land before it (and be popped here) or
                # see no event and be dropped -- never leak a result slot.
                with self._lock:
                    self._events.pop(token, None)
                    entry = self._inflight.pop(token, None)
                    self._release(entry)
                    self._results.pop(token, None)
                return self._timeout_payload(token, entry)
        with self._lock:
            self._events.pop(token, None)
            return self._results.pop(token)

    @staticmethod
    def _timeout_payload(token: int, entry) -> object:
        kind = entry[1] if entry else "request"
        message = "request timed out waiting for a worker"
        if kind == "request":
            payload = entry[2] if entry else None
            return CompileResponse(
                request_id=str((payload or {}).get("request_id", "")),
                ok=False,
                error=message,
            ).to_dict()
        if kind == "execute":
            from ..exec.api import ExecuteResponse

            payload = entry[2] if entry else None
            return ExecuteResponse(
                request_id=str((payload or {}).get("request_id", "")),
                ok=False,
                error=message,
                phase="request",
            ).to_dict()
        return {"error": message}

    # -------------------------------------------------------------- routing
    def worker_for(self, request: CompileRequest) -> int:
        """Affinity routing: structurally similar requests share a worker."""
        key = affinity_key(request)
        # Stable across processes and runs (unlike ``hash`` on strings).
        digest = 0
        for char in key:
            digest = (digest * 1000003 + ord(char)) & 0xFFFFFFFF
        return digest % len(self._procs)

    # ------------------------------------------------------------------ API
    def submit(
        self, request: CompileRequest, timeout: Optional[float] = None
    ) -> CompileResponse:
        index = self.worker_for(request)
        self._reserve([index])
        token = self._dispatch(index, "request", request.to_dict())
        return CompileResponse.from_dict(self._wait(token, timeout))

    def execute(self, request, timeout: Optional[float] = None):
        """Compile-and-run one :class:`~repro.exec.api.ExecuteRequest`.

        Routed by the *compile* half's affinity key, so an execute lands on
        the worker whose plan/match caches -- and emitted-module cache --
        are already warm for structurally similar programs.  Counts against
        the same per-worker in-flight bound as :meth:`submit`.
        """
        from ..exec.api import ExecuteResponse

        index = self.worker_for(request.compile)
        self._reserve([index])
        token = self._dispatch(index, "execute", request.to_dict())
        return ExecuteResponse.from_dict(self._wait(token, timeout))

    def compile_batch(
        self, requests: Sequence[CompileRequest], timeout: Optional[float] = None
    ) -> List[CompileResponse]:
        """Compile many requests concurrently across the pool.

        All requests are dispatched before any response is awaited, so the
        batch spreads over every worker the affinity map names; responses
        come back in submission order.  A batch that would overflow any
        worker's in-flight bound raises :class:`PoolSaturatedError` before
        dispatching anything.
        """
        indices = [self.worker_for(request) for request in requests]
        self._reserve(indices)
        with self._lock:
            self.batches += 1
        tokens = [
            self._dispatch(index, "request", request.to_dict())
            for index, request in zip(indices, requests)
        ]
        return [
            CompileResponse.from_dict(self._wait(token, timeout)) for token in tokens
        ]

    def stats(self, timeout: float = 30.0) -> dict:
        """Pooled cache telemetry: per-worker snapshots plus fleet totals."""
        tokens = [
            self._dispatch(index, "stats", None) for index in range(self.workers)
        ]
        per_worker = [self._wait(token, timeout) for token in tokens]
        usable = [
            entry
            for entry in per_worker
            if isinstance(entry, dict) and "caches" in entry
        ]
        pooled = telemetry.aggregate([entry["caches"] for entry in usable])
        snapshots = [entry.get("snapshot") for entry in usable]
        loaded = [snap for snap in snapshots if snap and snap.get("loaded")]
        return {
            "mode": "pool",
            "workers": self.workers,
            "start_method": self.start_method,
            "pool": {
                "requests": sum(entry.get("requests", 0) for entry in usable),
                "errors": sum(entry.get("errors", 0) for entry in usable),
                "restarts": self.restarts,
                "batches": self.batches,
                "rejections": self.rejections,
                "max_inflight_per_worker": self.max_inflight_per_worker,
            },
            "caches": pooled,
            "snapshot": {
                "dir": str(self.snapshot_dir) if self.snapshot_dir else None,
                "workers_loaded": len(loaded),
                "workers_cold": len(snapshots) - len(loaded),
                "per_worker": snapshots,
            },
            "per_worker": per_worker,
        }

    def analytics(self, timeout: float = 30.0) -> dict:
        """Fleet-wide workload-analytics state: every worker's sketches,
        merged (heavy-hitter counters unite, quantile buckets add)."""
        return (self.stats(timeout).get("caches") or {}).get("analytics") or {}

    def save_snapshot(self, timeout: float = 60.0) -> dict:
        """Merge every worker's cache state and persist it atomically.

        The backing of ``POST /snapshot``; also runs automatically on
        :meth:`close` when a snapshot directory is configured.
        """
        if self.snapshot_dir is None:
            raise RuntimeError("no snapshot directory configured")
        tokens = [
            self._dispatch(index, "export_snapshot", None)
            for index in range(self.workers)
        ]
        states = [self._wait(token, timeout) for token in tokens]
        usable = [
            state
            for state in states
            if isinstance(state, dict) and "plan_entries" in state
        ]
        if not usable:
            raise RuntimeError("no worker returned a snapshot state")
        merged = merge_states(usable)
        meta = write_snapshot(snapshot_path(self.snapshot_dir), merged)
        meta["workers_exported"] = len(usable)
        return meta

    def reset_stats(self, timeout: float = 30.0) -> None:
        tokens = [
            self._dispatch(index, "reset_stats", None)
            for index in range(self.workers)
        ]
        for token in tokens:
            self._wait(token, timeout)

    def ping(self, timeout: float = 10.0) -> dict:
        """Probe every worker (dead ones are restarted by the wait loop)."""
        tokens = [
            self._dispatch(index, "ping", None) for index in range(self.workers)
        ]
        replies = [self._wait(token, timeout) for token in tokens]
        alive = sum(
            1 for reply in replies if isinstance(reply, dict) and "pid" in reply
        )
        return {
            "status": "ok" if alive == self.workers else "degraded",
            "mode": "pool",
            "workers": self.workers,
            "alive": alive,
            "restarts": self.restarts,
        }

    # ------------------------------------------------------------ test hooks
    def crash_worker(self, index: int, wait: float = 10.0) -> None:
        """Make worker *index* die hard (``os._exit``); used by tests."""
        proc = self._procs[index]
        self._inboxes[index].put(("crash", None, None))
        if proc is not None:
            proc.join(timeout=wait)


def create_executor(
    workers: Optional[int] = None,
    in_process: bool = False,
    snapshot_dir=None,
    **pool_options,
):
    """Build the right executor: a pool, or the in-process fallback.

    ``in_process=True`` or ``workers=0`` selects :class:`InProcessExecutor`
    (no subprocesses -- what tier-1 tests use); anything else builds a
    :class:`WorkerPool` with *workers* processes (default: ``min(4,
    cpu_count)``).  *snapshot_dir* enables snapshot-backed warm boot for
    either executor (load at boot, persist on shutdown / ``POST
    /snapshot``).
    """
    if in_process or (workers is not None and workers <= 0):
        return InProcessExecutor(snapshot_dir=snapshot_dir)
    return WorkerPool(workers=workers, snapshot_dir=snapshot_dir, **pool_options)
