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
signature-keyed match cache and the whole-plan cache.  Requests are routed
by **affinity**: structurally similar chains share their name-abstracted
signature (:func:`repro.service.api.affinity_key`) and land on the same
worker, whose match cache is already warm for them.

**Transport**: each worker has one pipe and one lock, and the pool starts
no thread.  The calling thread makes the whole round trip itself: under
the worker's lock it sends ``(kind, seq, payload)`` and waits on the pipe
and on the worker's process sentinel until the reply carrying its ``seq``
arrives.  A reply with another ``seq`` is the late answer to an earlier,
timed-out call and is dropped.  A worker that dies (crash, OOM kill) is
restarted on the spot by the caller that sees it die, which resends its
message, up to ``max_retries`` times; messages that keep killing workers
come back as ``ok=False`` responses instead of hanging the caller.

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
a ``Retry-After`` hint, instead of letting callers queue on a worker
without limit.

Wire format: plain dicts (``CompileRequest.to_dict`` /
``CompileResponse.to_dict``) travel over the pipes, so workers never
unpickle custom classes and the pool works under ``fork`` and ``spawn``
alike.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from multiprocessing import connection
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

#: Default bound on in-flight requests per worker (and for the in-process
#: executor as a whole) before :class:`PoolSaturatedError` pushes back.
DEFAULT_MAX_INFLIGHT = 64

_TIMED_OUT = "request timed out waiting for a worker"


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

    def _run(self, runner, requests: Sequence) -> list:
        """Reserve a slot per request, then run each through *runner* on
        the shared session (serialized, counted).

        All-or-nothing reservation (mirrors :class:`WorkerPool`): a batch
        that would overflow the in-flight bound is rejected before anything
        executes, never half-executed-then-429'd.
        """
        count = len(requests)
        self._reserve(count)
        try:
            responses = []
            for request in requests:
                with self._lock:
                    response = runner(request, compiler=self.compiler)
                    self.requests_served += 1
                    if not response.ok:
                        self.errors += 1
                responses.append(response)
            return responses
        finally:
            with self._gate:
                self._pending -= count

    def submit(self, request: CompileRequest, timeout: Optional[float] = None) -> CompileResponse:
        return self._run(execute_request, [request])[0]

    def execute(self, request, timeout: Optional[float] = None):
        """Compile-and-run one :class:`~repro.exec.api.ExecuteRequest` on
        the shared warm session (same backpressure as :meth:`submit`)."""
        # Imported lazily: repro.exec.api itself imports this package.
        from ..exec.api import run_execute_request

        return self._run(run_execute_request, [request])[0]

    def compile_batch(
        self, requests: Sequence[CompileRequest], timeout: Optional[float] = None
    ) -> List[CompileResponse]:
        return self._run(execute_request, requests)

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
        # Evict the session's emitted modules from ``sys.modules`` and remove
        # their directory.
        self.compiler.loader.close()

    def __enter__(self) -> "InProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker process main loop.
# ---------------------------------------------------------------------------

def _failure(kind: str, payload, error: str, worker: Optional[int] = None):
    """The ``ok=False`` reply (wire dicts) to a message that got no answer:
    one response per request of a ``compile``/``execute`` message, a plain
    ``{"error": ...}`` dict for a control message."""
    if kind == "compile":
        response, extra = CompileResponse, {}
    elif kind == "execute":
        from ..exec.api import ExecuteResponse as response

        extra = {"phase": "request"}
    else:
        return {"error": error, "worker": worker}
    return [
        response(
            request_id=str((item or {}).get("request_id", "")),
            ok=False,
            error=error,
            worker=worker,
            **extra,
        ).to_dict()
        for item in payload
    ]


def _answer(kind: str, payload: dict, compiler: Compiler, worker_id: int) -> dict:
    """Run one ``compile`` or ``execute`` request dict on the worker's
    session.  Errors never escape: they become the ``ok=False`` response,
    so a malformed request cannot end the worker loop."""
    if kind == "execute":
        # Imported here, not at module top: repro.exec.api imports
        # repro.service.api, whose package init imports this module.
        from ..exec.api import ExecuteRequest as decode, run_execute_request as run
    else:
        decode, run = CompileRequest, execute_request
    try:
        response = run(decode.from_dict(payload), compiler=compiler, worker=worker_id)
        return response.to_dict()
    except Exception as exc:  # noqa: BLE001 -- never kill the loop
        return _failure(kind, [payload], f"{type(exc).__name__}: {exc}", worker_id)[0]


def _worker_main(worker_id: int, conn, snapshot_file=None) -> None:
    """Serve messages from *conn* until shutdown; caches stay warm between.

    Each worker holds one :class:`~repro.frontend.compiler.Compiler`
    session, built after the fork: the session owns the catalog, the
    plan cache, the module loader and every
    counter its ``stats`` report, so nothing of the parent's session state
    is inherited.  With a *snapshot_file*, the worker boots warm by
    loading the plan-cache/match-cache snapshot into the fresh session
    (stale/corrupt snapshots boot cold, reported via ``stats``).  Messages
    are ``(kind, seq, payload)`` tuples; every message except
    ``shutdown``/``crash`` is answered with ``(seq, reply)``.  The payload
    of a ``compile`` or ``execute`` message is a list of request dicts and
    its reply the list of their responses.  An end of file on *conn* (the
    pool's process is gone) shuts the worker down.

    The worker first caps every loaded OpenBLAS at one thread: the pool
    already runs one process per core, and NumPy's and SciPy's separate
    OpenBLAS thread pools otherwise spin against each other on plans that
    interleave products with solves (:mod:`repro.runtime.blas_threads`).
    The process-wide value caches (interner, inference memo, match cache)
    do come over from the parent, warm; their counters are zeroed, so the
    worker's stats count only the requests it served.
    """
    limit_blas_threads()
    compiler = Compiler()
    compiler.reset_cache_stats()
    snapshot_load = None
    if snapshot_file is not None:
        snapshot_load = load_snapshot(
            snapshot_file, compiler.plan_cache, compiler.catalog
        )
        _log_snapshot_load(snapshot_load, worker=worker_id)
    served = 0
    failed = 0
    while True:
        try:
            kind, seq, payload = conn.recv()
        except EOFError:
            kind = "shutdown"
        if kind == "shutdown":
            # The worker leaves through os._exit, so neither atexit nor
            # weakref finalizers would remove the loader's temp directory.
            compiler.loader.close()
            break
        if kind == "crash":  # test hook: simulate a hard worker death
            os._exit(17)
        if kind in ("compile", "execute"):
            reply = [_answer(kind, item, compiler, worker_id) for item in payload]
            served += len(reply)
            failed += sum(1 for response in reply if not response["ok"])
        elif kind == "stats":
            reply = {
                "worker": worker_id,
                "pid": os.getpid(),
                "requests": served,
                "errors": failed,
                "caches": compiler.cache_stats(),
                "snapshot": snapshot_load,
                "blas_threads": blas_threads(),
            }
        elif kind == "export_snapshot":
            try:
                reply = capture_state(compiler.plan_cache, compiler.catalog)
            except Exception as exc:  # noqa: BLE001 -- never kill the loop
                reply = {"error": f"{type(exc).__name__}: {exc}"}
        elif kind == "reset_stats":
            compiler.reset_cache_stats()
            served = 0
            failed = 0
            reply = True
        elif kind == "ping":
            reply = {"worker": worker_id, "pid": os.getpid()}
        else:  # unknown control message: answer rather than wedge the caller
            reply = {"error": f"unknown message kind {kind!r}"}
        conn.send((seq, reply))


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------

class WorkerPool:
    """A pool of persistent warm-cache compiler worker processes.

    Worker processes start with ``fork`` where the platform has it, else
    with the platform's default method (reported by ``stats()``).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        request_timeout: float = 300.0,
        max_retries: int = 2,
        snapshot_dir=None,
        max_inflight_per_worker: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        count = workers if workers and workers > 0 else min(4, os.cpu_count() or 1)
        fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if fork else None)
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
        #: Guards the counters above and the closed flags.
        self._lock = threading.Lock()
        #: One lock per worker, held for a whole send-and-receive exchange.
        self._locks = [threading.Lock() for _ in range(count)]
        self._conns: list = [None] * count
        self._procs: List[Optional[multiprocessing.Process]] = [None] * count
        self._seq = itertools.count()
        self._closed = False
        self._closing = False

        for index in range(count):
            self._spawn(index)

    # ------------------------------------------------------------ lifecycle
    @property
    def workers(self) -> int:
        return len(self._procs)

    def _spawn(self, index: int) -> None:
        """Start worker *index* on a fresh pipe (its lock held or unshared)."""
        snapshot_file = (
            str(snapshot_path(self.snapshot_dir))
            if self.snapshot_dir is not None
            else None
        )
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, child, snapshot_file),
            name=f"repro-service-worker-{index}",
            daemon=True,
        )
        proc.start()
        # Only the worker keeps the child end, so its death reads as EOF.
        child.close()
        if self._conns[index] is not None:
            self._conns[index].close()
        self._conns[index] = conn
        self._procs[index] = proc

    def close(self) -> None:
        """Shut every worker down.

        With a snapshot directory configured, the merged cache state of all
        workers is persisted first, so the next boot starts warm.  Repeated
        calls are no-ops -- the closing flag is claimed before the snapshot
        save, so a second close never calls already-dead workers.  A worker
        whose lock a stuck caller still holds after 5 s is terminated.
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
        held = [lock.acquire(timeout=5.0) for lock in self._locks]
        try:
            for owned, conn in zip(held, self._conns):
                if owned:
                    try:
                        conn.send(("shutdown", None, None))
                    except OSError:  # the worker is already gone
                        pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            for owned, conn in zip(held, self._conns):
                if owned:
                    conn.close()
        finally:
            for owned, lock in zip(held, self._locks):
                if owned:
                    lock.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ transport
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

    def _requests(
        self, kind: str, indices: Sequence[int], payloads: list, timeout
    ) -> list:
        """Reserve slots for request *payloads* routed to *indices*, send
        each worker its share as one message and return the replies in
        submission order."""
        self._reserve(indices)
        shares: Dict[int, List[int]] = {}
        for position, index in enumerate(indices):
            shares.setdefault(index, []).append(position)
        try:
            replies = self._exchange(
                {
                    index: (kind, [payloads[position] for position in positions])
                    for index, positions in shares.items()
                },
                timeout,
            )
        finally:
            with self._lock:
                for index in indices:
                    self._request_load[index] -= 1
        ordered: list = [None] * len(payloads)
        for index, positions in shares.items():
            for position, reply in zip(positions, replies[index]):
                ordered[position] = reply
        return ordered

    def _exchange(self, messages: Dict[int, tuple], timeout: Optional[float]) -> dict:
        """Send ``messages[index] = (kind, payload)`` to each worker, then
        read each reply; returns ``{index: reply}``.

        The workers' locks are taken in ascending index order, so
        concurrent exchanges cannot deadlock, and every message is sent
        before any reply is read, so the workers run in parallel.  The
        deadline covers the wait for the locks too.
        """
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.request_timeout
        )
        order = sorted(messages)
        held: List[threading.Lock] = []
        try:
            for index in order:
                lock = self._locks[index]
                if not lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
                    return {i: _failure(*messages[i], _TIMED_OUT) for i in order}
                held.append(lock)
            if self._closed:
                raise RuntimeError("worker pool is closed")
            seqs = {index: self._send(index, *messages[index]) for index in order}
            return {
                index: self._receive(index, seqs[index], *messages[index], deadline)
                for index in order
            }
        finally:
            for lock in held:
                lock.release()

    def _call(self, index: int, kind: str, payload, timeout: Optional[float]):
        """One message to worker *index* and its reply."""
        return self._exchange({index: (kind, payload)}, timeout)[index]

    def _send(self, index: int, kind: str, payload) -> int:
        """Send one message (worker lock held); returns its ``seq``."""
        seq = next(self._seq)
        try:
            self._conns[index].send((kind, seq, payload))
        except OSError:  # a dead worker: _receive sees it die and resends
            pass
        return seq

    def _receive(self, index: int, seq: int, kind: str, payload, deadline: float):
        """Wait (worker lock held) for the reply to message *seq*.

        A worker that dies before answering is restarted and the message
        resent, up to ``max_retries`` times; on timeout the worker keeps
        running and its late reply is dropped by the next call's ``seq``
        check.
        """
        crashes = 0
        while True:
            conn, proc = self._conns[index], self._procs[index]
            remaining = max(0.0, deadline - time.monotonic())
            ready = connection.wait([conn, proc.sentinel], remaining)
            if not ready:
                return _failure(kind, payload, _TIMED_OUT)
            if conn in ready:
                try:
                    got, reply = conn.recv()
                except (EOFError, OSError):
                    pass  # died mid-reply: a crash like any other
                else:
                    if got == seq:
                        return reply
                    continue  # the late answer to an earlier, timed-out call
            crashes += 1
            restarted = self._restart(index, proc)
            if not restarted or crashes > self.max_retries:
                return _failure(
                    kind,
                    payload,
                    f"worker {index} crashed {crashes} times processing this message",
                    index,
                )
            seq = self._send(index, kind, payload)

    def _restart(self, index: int, dead) -> bool:
        """Respawn worker *index* on its slot (lock held), unless closed."""
        with self._lock:
            if self._closed:
                return False
            self.restarts += 1
            restarts = self.restarts
        dead.kill()  # a no-op unless only its pipe broke
        dead.join(timeout=1.0)
        self._spawn(index)
        _LOG.warning(
            "worker crashed, restarted transparently",
            extra={"worker": index, "exitcode": dead.exitcode, "restarts": restarts},
        )
        return True

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
        (reply,) = self._requests(
            "compile", [self.worker_for(request)], [request.to_dict()], timeout
        )
        return CompileResponse.from_dict(reply)

    def execute(self, request, timeout: Optional[float] = None):
        """Compile-and-run one :class:`~repro.exec.api.ExecuteRequest`.

        Routed by the *compile* half's affinity key, so an execute lands on
        the worker whose plan/match caches -- and emitted-module cache --
        are already warm for structurally similar programs.  Counts against
        the same per-worker in-flight bound as :meth:`submit`.
        """
        from ..exec.api import ExecuteResponse

        (reply,) = self._requests(
            "execute", [self.worker_for(request.compile)], [request.to_dict()], timeout
        )
        return ExecuteResponse.from_dict(reply)

    def compile_batch(
        self, requests: Sequence[CompileRequest], timeout: Optional[float] = None
    ) -> List[CompileResponse]:
        """Compile many requests concurrently across the pool.

        Each worker the affinity map names gets one message holding its
        share, and every message is sent before any reply is read, so the
        shares compile in parallel; responses come back in submission
        order.  A batch that would overflow any worker's in-flight bound
        raises :class:`PoolSaturatedError` before sending anything.
        """
        indices = [self.worker_for(request) for request in requests]
        payloads = [request.to_dict() for request in requests]
        replies = self._requests("compile", indices, payloads, timeout)
        with self._lock:
            self.batches += 1
        return [CompileResponse.from_dict(reply) for reply in replies]

    def stats(self, timeout: float = 30.0) -> dict:
        """Pooled cache telemetry: per-worker snapshots plus fleet totals."""
        per_worker = [
            self._call(index, "stats", None, timeout) for index in range(self.workers)
        ]
        usable = [
            entry
            for entry in per_worker
            if isinstance(entry, dict) and "caches" in entry
        ]
        # A fresh session names the layers, so the ``caches`` layout stays
        # the same when no worker answers.
        pooled = telemetry.aggregate(
            [entry["caches"] for entry in usable], layers=Compiler().cache_stats()
        )
        snapshots = [entry.get("snapshot") for entry in usable]
        loaded = [snap for snap in snapshots if snap and snap.get("loaded")]
        return {
            "mode": "pool",
            "workers": self.workers,
            "start_method": self._ctx.get_start_method(),
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

    def save_snapshot(self, timeout: float = 60.0) -> dict:
        """Merge every worker's cache state and persist it atomically.

        The backing of ``POST /snapshot``; also runs automatically on
        :meth:`close` when a snapshot directory is configured.
        """
        if self.snapshot_dir is None:
            raise RuntimeError("no snapshot directory configured")
        states = [
            self._call(index, "export_snapshot", None, timeout)
            for index in range(self.workers)
        ]
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
        for index in range(self.workers):
            self._call(index, "reset_stats", None, timeout)

    def ping(self, timeout: float = 10.0) -> dict:
        """Probe every worker (a dead one is restarted by its call)."""
        replies = [
            self._call(index, "ping", None, timeout) for index in range(self.workers)
        ]
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
        with self._locks[index]:
            self._conns[index].send(("crash", None, None))
            self._procs[index].join(timeout=wait)


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
