"""Warm compiles leave a session's metrics as they found them.

A cost metric is a stateless pricing function: it holds no memo that
could grow with traffic.  On one :class:`Compiler`, after a warm-up pass
over the benchmark's ``warm_rename`` structures, fresh-name copies of
them are answered from the plan cache and re-priced through the session's
metric instance.  Neither 50 nor 100 such compiles may change what any
metric instance holds, nor the ``kernel_cost`` entry of ``/stats``.  No
clock is read.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import load_golden, rename_operands  # noqa: E402
from repro.frontend import Compiler  # noqa: E402


@pytest.fixture(scope="module")
def warm_sources():
    return [entry["source"] for entry in load_golden()["warm_rename"]]


def _compile_copies(session, sources, tag, count):
    for index in range(count):
        session.compile(rename_operands(sources[index % len(sources)], f"{tag}{index}"))


def _metric_state(session):
    """Every metric instance the session holds, with a copy of its
    attributes, and the ``kernel_cost`` stats entry."""
    metrics = {
        name: {key: copy.copy(value) for key, value in vars(metric).items()}
        for name, metric in session._metrics.items()
    }
    return metrics, session.cache_stats()["kernel_cost"]


def test_fresh_name_warm_compiles_leave_the_metrics_unchanged(warm_sources):
    session = Compiler()
    _compile_copies(session, warm_sources, "w", len(warm_sources))
    warmed = _metric_state(session)
    assert "flops" in warmed[0]
    hits_before = session.cache_stats()["plan_cache"]["hits"]
    for count in (50, 100):
        _compile_copies(session, warm_sources, f"n{count}_", count)
        assert _metric_state(session) == warmed, count
    # Every copy took the warm path, which prices the cached plan's calls.
    assert session.cache_stats()["plan_cache"]["hits"] - hits_before == 150
