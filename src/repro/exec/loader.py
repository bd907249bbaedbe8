"""Materialize, import, cache and run emitted standalone modules.

The execution tier's loader: emitted module source (see
:mod:`repro.exec.emitter`) is written to a private temp directory, imported
through :mod:`importlib` under a unique module name, and cached by **plan
signature** -- repeat executions of a signature-equal plan skip emit and
import entirely and go straight to the loaded entrypoint.

Each :class:`~repro.frontend.compiler.Compiler` session owns one loader
(``compiler.loader``) and reports its cache as part of the ``execution``
telemetry layer.  This module deliberately imports nothing from the rest
of ``repro`` (only the stdlib and NumPy): it is the bottom of the
execution tier's import graph, which keeps the loader importable from the
compiler session and reusable for any source text that follows the
emitted-module protocol (module attributes ``ENTRYPOINT``, ``ARGUMENTS``,
``RESULT``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import os
import shutil
import sys
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

__all__ = [
    "ModuleRunError",
    "LoadedModule",
    "ModuleLoader",
]

#: Default bound on cached loaded modules per loader.
DEFAULT_MAX_MODULES = 32

_MODULE_COUNTER = itertools.count()


class ModuleRunError(RuntimeError):
    """Raised when a loaded module cannot be run against an environment."""


@dataclass
class LoadedModule:
    """One imported emitted module, ready to execute.

    ``run`` binds an operand environment (name -> array) to the module's
    declared argument order, casts to contiguous float64 (the precision
    the interpreter computes in, so results stay comparable) and calls the
    entrypoint.
    """

    key: str
    module: object
    path: str

    @property
    def arguments(self) -> List[str]:
        return list(getattr(self.module, "ARGUMENTS", ()))

    @property
    def result(self) -> Optional[str]:
        return getattr(self.module, "RESULT", None)

    @property
    def entrypoint(self):
        name = getattr(self.module, "ENTRYPOINT", None)
        if not name or not hasattr(self.module, str(name)):
            raise ModuleRunError(
                f"module {self.path!r} declares no usable ENTRYPOINT"
            )
        return getattr(self.module, str(name))

    def run(self, environment: Mapping[str, np.ndarray]) -> np.ndarray:
        missing = [name for name in self.arguments if name not in environment]
        if missing:
            raise ModuleRunError(
                f"environment is missing operand value(s) {missing} required "
                f"by entrypoint {getattr(self.module, 'ENTRYPOINT', '?')!r}"
            )
        values = [
            np.ascontiguousarray(environment[name], dtype=np.float64)
            for name in self.arguments
        ]
        return self.entrypoint(*values)


class ModuleLoader:
    """An LRU cache of imported emitted modules, keyed by plan signature.

    ``lookup`` / ``load`` split the fast and slow paths so callers can time
    them separately: a hit returns the already-imported module (emit and
    import both skipped); a miss is followed by ``load(source, key)``, which
    materializes the source under the loader's temp directory and imports
    it.  Evicted entries are dropped from ``sys.modules`` and their source
    file removed.  ``close`` evicts everything and removes the temp
    directory the loader created (never a caller-supplied ``directory``);
    a loader that is never closed removes it at garbage collection or
    interpreter exit.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_MODULES,
        directory: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._directory = directory
        self._cleanup: Optional[weakref.finalize] = None
        self._entries: "OrderedDict[str, LoadedModule]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------- directory
    @property
    def directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro_exec_")
            self._cleanup = weakref.finalize(
                self, _remove_directory, self._directory, os.getpid()
            )
        return self._directory

    # ------------------------------------------------------------------ API
    def lookup(self, key: str) -> Optional[LoadedModule]:
        """The cached module for *key*, or ``None`` (counts hits/misses)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def load(self, source: str, key: str) -> LoadedModule:
        """Materialize *source*, import it, cache it under *key*.

        Idempotent per key: a concurrent or repeated load of an
        already-cached key returns the existing entry without re-importing.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
        module_name = f"repro_exec_{digest}_{next(_MODULE_COUNTER)}"
        path = os.path.join(self.directory, f"{module_name}.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            raise ModuleRunError(f"cannot build an import spec for {path!r}")
        module = importlib.util.module_from_spec(spec)
        # Registered so the module's own (absolute) imports and any
        # dataclass/pickle machinery inside it resolve normally.
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(module_name, None)
            raise
        entry = LoadedModule(key=key, module=module, path=path)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:  # lost a load race: keep the first
                self._entries.move_to_end(key)
                winner = existing
            else:
                self._entries[key] = entry
                winner = entry
                while len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
                    self.evictions += 1
                    self._discard(evicted)
        if winner is not entry:
            self._discard(entry)
        return winner

    @staticmethod
    def _discard(entry: LoadedModule) -> None:
        module_name = getattr(entry.module, "__name__", None)
        if module_name:
            sys.modules.pop(module_name, None)
        try:
            os.unlink(entry.path)
        except OSError:
            pass

    def clear(self) -> None:
        """Drop every cached module (keeps the counters)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._discard(entry)

    def close(self) -> None:
        """Evict every module and remove the temp directory this loader
        created.  The loader stays usable: a later ``load`` makes a fresh
        directory."""
        self.clear()
        cleanup, self._cleanup = self._cleanup, None
        if cleanup is not None:
            self._directory = None
            cleanup()

    # ------------------------------------------------------------ telemetry
    def stats(self) -> Dict[str, object]:
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "layer": "module_cache",
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / total if total else 0.0,
                "evictions": self.evictions,
            }

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0


def _remove_directory(path: str, owner_pid: int) -> None:
    # A forked child inherits its parent's loader; only the process that
    # made the directory removes it.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)
