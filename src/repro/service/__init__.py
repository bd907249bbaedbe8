"""The compilation service: batch/server front-end over the GMC compiler.

The paper frames the GMC algorithm as the chain-solving core of a compiler
that users query repeatedly with structurally similar problems.  This
package turns the per-process pipeline of :mod:`repro.frontend` into a
long-running, concurrent service:

* :mod:`repro.service.api` -- typed :class:`CompileRequest` /
  :class:`CompileResponse` model (JSON-dict wire format) and the shared
  execution path;
* :mod:`repro.service.pool` -- :class:`WorkerPool` of persistent
  warm-cache worker processes with signature-affinity routing and
  crash restart, plus the synchronous :class:`InProcessExecutor` fallback;
* :mod:`repro.service.http` -- stdlib HTTP front-end (``POST /compile``,
  ``POST /batch``, ``POST /execute``, ``GET /stats``, ``GET /healthz``),
  wired into the CLI as ``python -m repro.frontend --serve``;
* :mod:`repro.exec` -- the execution tier behind ``POST /execute``:
  standalone-module emitter, module loader/cache, and the
  :class:`~repro.exec.api.ExecuteRequest` /
  :class:`~repro.exec.api.ExecuteResponse` wire model;
* :mod:`repro.telemetry` -- the counter type of the session's telemetry
  layers and the pooling of per-worker ``/stats`` snapshots; it has no
  service dependencies and lives at the package root;
* :mod:`repro.persist` -- plan-cache/match-cache snapshots backing warm
  worker boot (``--snapshot-dir`` / ``POST /snapshot``).
"""

from ..options import CompileOptions
from .api import (
    AssignmentResult,
    CompileRequest,
    CompileResponse,
    RequestError,
    affinity_key,
    execute_request,
)
from .pool import InProcessExecutor, PoolSaturatedError, WorkerPool, create_executor

__all__ = [
    "AssignmentResult",
    "CompileOptions",
    "CompileRequest",
    "CompileResponse",
    "PoolSaturatedError",
    "RequestError",
    "affinity_key",
    "execute_request",
    "InProcessExecutor",
    "WorkerPool",
    "create_executor",
]
