"""The benchmark's pinned plans, checked in process.

``perfbench/golden.json`` pins the plan -- kernel sequence, cost and FLOPs
per assignment -- of every pooled benchmark structure, and the benchmark
fails a run whose served plans differ.  These tests compile the same
structures in process, so a change that alters a plan fails here too,
before any server is booted.  The perfbench files are only read.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.golden import plan_entry, source_digest  # noqa: E402
from perfbench.workloads import cold_pool, load_golden  # noqa: E402
from repro.frontend import Compiler  # noqa: E402

#: Pooled ``cold_long`` chains compiled here (of 800); each is long enough
#: (length 12-20) that the prefix covers every length the pool draws.
COLD_CHAINS = 40


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _mismatches(pairs):
    """``(label, compiled, pinned)`` for each ``(label, source, pinned)``
    pair whose in-process plan differs from the pinned one."""
    compiler = Compiler()
    mismatches = []
    for label, source, pinned in pairs:
        compiled = plan_entry(compiler.compile(source))
        if compiled != pinned:
            mismatches.append((label, compiled, pinned))
    return mismatches


@pytest.mark.parametrize("workload", ["warm_rename", "dag_execute"])
def test_pooled_structures_compile_to_their_golden_plans(golden, workload):
    entries = golden[workload]
    assert entries
    pairs = [
        (f"{workload}[{index}]", entry["source"], entry["plan"])
        for index, entry in enumerate(entries)
    ]
    assert _mismatches(pairs) == []


def test_cold_pool_prefix_compiles_to_its_golden_plans(golden):
    pinned = golden["cold_long"]["plans"][:COLD_CHAINS]
    sources = cold_pool()[:COLD_CHAINS]
    assert len(pinned) == len(sources) == COLD_CHAINS
    assert [entry["sha"] for entry in pinned] == [source_digest(s) for s in sources]
    pairs = [
        (f"cold_long[{index}]", source, entry["plan"])
        for index, (source, entry) in enumerate(zip(sources, pinned))
    ]
    assert _mismatches(pairs) == []
