"""The execution tier: compile -> standalone module -> run.

The paper's evaluation (Figs. 8/9) is about the *execution times* of
generated programs; this package makes the generated program a deployable
artifact and its execution a first-class, validated operation:

* :mod:`repro.exec.emitter` -- the ``module`` emitter
  (``result.emit("module")``): a solved plan, including multi-segment DAG
  programs stitched topologically, rendered as a self-contained importable
  Python module (inlined kernel helpers, one NumPy entrypoint);
* :mod:`repro.exec.loader` -- materializes emitted source to a temp
  module, imports it, runs it against operand payloads, and caches loaded
  modules by plan signature so repeat executions skip emit+import;
* :mod:`repro.exec.api` -- :class:`ExecuteRequest` /
  :class:`ExecuteResponse` and :func:`run_execute_request`, the shared
  execution path behind ``POST /execute`` and the CLI's ``--execute``:
  compile, emit, import, run, then validate numerics against
  :mod:`repro.runtime.reference` within tolerance.

Importing this package registers the ``module`` emitter in the
:mod:`repro.codegen` registry.  The API layer is exposed lazily (module
``__getattr__``) because it pulls in the service request model; the loader
and emitter import eagerly and cheaply.
"""

from . import loader as _loader  # noqa: F401  (establish the loader early)
from . import emitter as _emitter  # noqa: F401  (registers the emitter)
from .emitter import generate_module, plan_signature
from .loader import (
    LoadedModule,
    ModuleLoader,
    ModuleRunError,
)

__all__ = [
    "generate_module",
    "plan_signature",
    "LoadedModule",
    "ModuleLoader",
    "ModuleRunError",
    "ExecuteRequest",
    "ExecuteResponse",
    "run_execute_request",
]

#: API-layer names resolved lazily from :mod:`repro.exec.api` (PEP 562).
_API_NAMES = ("ExecuteRequest", "ExecuteResponse", "run_execute_request")


def __getattr__(name: str):
    if name in _API_NAMES:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_NAMES))
