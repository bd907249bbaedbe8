"""Span-tree tracing for one compilation (stdlib only, opt-in).

A :class:`Tracer` records a tree of timed :class:`Span` values describing
where a compile spent its time: the compile root, one span per chain
segment (with cache-hit provenance attributes), one span per solver
invocation and -- inside a solve -- one span per DP anti-diagonal with the
cells-evaluated / cells-pruned deltas attached.

Tracing is strictly opt-in (``CompileOptions(trace=True)``); the disabled
hot path never constructs a tracer, so the only cost it pays is an
``is None`` test at phase boundaries (never per DP cell).
``tests/test_obs.py`` asserts that a solver whose tracer was set back to
``None`` records no span and runs no timing wrapper.

Exports:

* :meth:`Tracer.to_json` -- the raw nested span tree (one JSON object);
* :meth:`Tracer.to_chrome_trace` -- Chrome trace-event format (a list of
  complete ``"ph": "X"`` events), loadable in Perfetto / ``chrome://tracing``.

All timestamps come from :func:`time.perf_counter` and are reported
relative to the tracer's creation, in seconds (microseconds on the Chrome
export, per the trace-event spec).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed phase: a name, a ``[start, end]`` window, attributes and
    child spans.  Times are seconds relative to the owning tracer's epoch."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (and self) named *name*, preorder."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "start_s": self.start,
            "end_s": self.end if self.end is not None else self.start,
            "duration_s": self.duration,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Collects one compilation's span tree.

    Spans nest through an explicit stack: :meth:`begin` opens a span as a
    child of the innermost open span (or as a root), :meth:`end` closes the
    innermost open span.  The compiler and the solvers share one tracer, so
    a solver's ``solve`` span lands under the compiler's ``segment`` span
    without either layer knowing about the other.

    The stack discipline assumes begin/end pairs are strictly nested on one
    thread -- true for the compile pipeline, which runs in the calling
    thread.
    """

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self.epoch = self._clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: The service request id this trace belongs to, when the compile
        #: ran behind the service (set by ``execute_request``); lands in
        #: both export formats so traces join with structured log lines
        #: and ``X-Request-Id`` response headers by id.
        self.request_id: Optional[str] = None

    # -------------------------------------------------------------- recording
    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the innermost open span."""
        span = Span(name, self._clock() - self.epoch, attrs)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return span

    def end(self, **attrs: Any) -> Span:
        """Close the innermost open span (merging *attrs* into it)."""
        if not self._stack:
            raise RuntimeError("Tracer.end() without a matching begin()")
        span = self._stack.pop()
        span.end = self._clock() - self.epoch
        if attrs:
            span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("phase"):`` -- begin/end as a context manager."""
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            # Close this span (and anything left open beneath it, so an
            # exception mid-phase cannot corrupt the nesting for the caller).
            while self._stack and self._stack[-1] is not span:
                self.end()
            if self._stack:
                self.end()

    def add_phase(
        self, parent: Span, name: str, start: float, duration: float, **attrs: Any
    ) -> Span:
        """Attach an *aggregate* phase span under *parent*.

        Used for phases whose work is interleaved with other work (kernel
        matching and property inference run per DP cell): the span carries
        the phase's accumulated duration laid out sequentially inside the
        parent window, and is marked ``aggregated=True``.
        """
        span = Span(name, start, {"aggregated": True, **attrs})
        span.end = start + duration
        parent.children.append(span)
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span (``None`` at the top level)."""
        return self._stack[-1] if self._stack else None

    def finish(self) -> List[Span]:
        """Close any spans left open and return the root spans."""
        while self._stack:
            self.end()
        return self.roots

    # -------------------------------------------------------------- exporting
    def find(self, name: str) -> List[Span]:
        """All spans named *name* across the whole tree, preorder."""
        found: List[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def to_json(self) -> Dict[str, Any]:
        """The raw span tree as one JSON-compatible dict."""
        payload: Dict[str, Any] = {
            "format": "repro-trace",
            "version": 1,
            "unit": "seconds",
            "spans": [root.to_dict() for root in self.roots],
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

        Every span becomes one complete event (``"ph": "X"``) with
        microsecond timestamps; nesting is recovered by the viewer from the
        containment of the time windows on one pid/tid track.
        """
        events: List[Dict[str, Any]] = []
        if self.request_id is not None:
            # A metadata event labels the (single) process track with the
            # request id, so Perfetto shows it without opening any slice.
            events.append(
                {
                    "name": "process_labels",
                    "ph": "M",
                    "pid": 1,
                    "tid": 1,
                    "args": {"labels": f"request {self.request_id}"},
                }
            )

        def emit(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": max(span.duration, 0.0) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "cat": "repro",
                    "args": {k: _json_safe(v) for k, v in span.attrs.items()},
                }
            )
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return events

    def write(self, path: str, fmt: str = "json") -> None:
        """Write the trace to *path*: ``fmt="json"`` (raw span tree) or
        ``fmt="chrome"`` (trace-event list)."""
        if fmt == "json":
            payload: object = self.to_json()
        elif fmt == "chrome":
            payload = {"traceEvents": self.to_chrome_trace(), "displayTimeUnit": "ms"}
            if self.request_id is not None:
                payload["metadata"] = {"request_id": self.request_id}
        else:
            raise ValueError(f"unknown trace format {fmt!r}; use 'json' or 'chrome'")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")


def _json_safe(value: Any) -> Any:
    """Chrome trace ``args`` values must be JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
