"""Opt-in deep profiling of one compilation (stdlib ``cProfile`` only).

``CompileOptions(profile=True)`` -- or ``profile: true`` inside a
request's ``options`` on the service wire -- wraps the solve in a
:class:`cProfile.Profile` and attaches a compact payload to the response:

* ``top_functions`` -- the hottest functions by cumulative time (what the
  CLI's ``--profile`` prints);
* ``collapsed`` -- collapsed-stack text in the format ``flamegraph.pl``
  consumes (``frame;frame;frame count`` per line, counts in microseconds),
  which ``POST /profile`` returns verbatim as ``text/plain``.

The collapsed stacks are reconstructed from cProfile's caller graph the
way ``flameprof`` does it: walk from the root frames, attribute each
function's *self* time along every caller path in proportion to the
cumulative time flowing through that path's edges, and cut cycles by
refusing to revisit a frame already on the current stack.  The result is
an approximation of the true stack samples (cProfile records a caller
*graph*, not full stacks), but one whose per-frame totals match the
profiler's numbers exactly.

Profiling is strictly opt-in and per-request; the disabled path never
constructs a profiler, so requests that do not ask for a profile pay
nothing for it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable, Dict, List, Tuple, TypeVar

__all__ = ["profile_call", "top_functions", "collapsed_stacks", "profile_payload"]

T = TypeVar("T")

#: Depth bound of the collapsed-stack walk (far above any real compile
#: stack; guards degenerate caller graphs).
_MAX_DEPTH = 96

#: Frames contributing less than this fraction of total time are dropped
#: from the collapsed output (keeps the text proportional to signal).
_MIN_FRACTION = 1e-5


def profile_call(fn: Callable[[], T]) -> Tuple[T, cProfile.Profile]:
    """Run *fn* under ``cProfile``; returns ``(result, profiler)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, profiler


def _frame_name(func: Tuple[str, int, str]) -> str:
    """A compact frame label (no ``;`` or spaces -- both are collapsed-stack
    metacharacters: ``;`` separates frames, space starts the count)."""
    filename, lineno, name = func
    if filename == "~" or not filename:
        label = name  # built-ins already render as <built-in ...>
    else:
        label = f"{os.path.basename(filename)}:{lineno}:{name}"
    return label.replace(";", ",").replace(" ", "_")


def top_functions(profiler: cProfile.Profile, limit: int = 15) -> List[Dict[str, Any]]:
    """The hottest *limit* functions by cumulative time."""
    stats = pstats.Stats(profiler)
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "function": name,
                "file": filename,
                "line": lineno,
                "calls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], -row["tottime_s"], row["function"]))
    return rows[: max(0, limit)]


def collapsed_stacks(profiler: cProfile.Profile) -> str:
    """``flamegraph.pl``-compatible collapsed stacks (counts in microseconds)."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    # Invert the caller graph: caller -> [(callee, cumtime via this edge)].
    callees: Dict[Tuple[str, int, str], List[Tuple[Tuple[str, int, str], float]]] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller, edge in callers.items():
            # Edge stats are (cc, nc, tt, ct) tuples on CPython.
            edge_ct = edge[3] if isinstance(edge, tuple) and len(edge) == 4 else 0.0
            callees.setdefault(caller, []).append((func, edge_ct))
    samples: Dict[str, float] = {}

    def walk(func, stack: List[str], on_stack: set, fraction: float) -> None:
        if fraction < _MIN_FRACTION or len(stack) >= _MAX_DEPTH:
            return
        if func in on_stack:
            return  # recursion: collapse the cycle into the first visit
        _cc, _nc, tt, ct, _callers = stats[func]
        path = stack + [_frame_name(func)]
        self_time = tt * fraction
        if self_time > 0:
            key = ";".join(path)
            samples[key] = samples.get(key, 0.0) + self_time
        on_stack.add(func)
        for child, edge_ct in callees.get(func, ()):
            child_ct = stats[child][3]
            if child_ct <= 0 or edge_ct <= 0:
                continue
            walk(child, path, on_stack, fraction * (edge_ct / child_ct))
        on_stack.discard(func)

    roots = [func for func, entry in stats.items() if not entry[4]]
    for root in roots:
        walk(root, [], set(), 1.0)
    lines = []
    for key in sorted(samples):
        micros = int(round(samples[key] * 1e6))
        if micros > 0:
            lines.append(f"{key} {micros}")
    return "\n".join(lines) + "\n" if lines else ""


def profile_payload(profiler: cProfile.Profile, limit: int = 15) -> Dict[str, Any]:
    """The wire payload attached to profiled responses."""
    return {
        "top_functions": top_functions(profiler, limit),
        "collapsed": collapsed_stacks(profiler),
    }
