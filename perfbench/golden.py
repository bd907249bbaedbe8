"""Pinned plans of every pooled benchmark structure (``golden.json``).

The benchmark compares every served plan -- kernel sequence, cost and
FLOPs per assignment -- against this file, so a change that alters any
plan fails the run even where the numbers still check out.  Regenerate it
only for a change that is meant to alter plans::

    python3 perfbench/golden.py

It compiles each structure once, in process, on the default options.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

#: Seed and size of the fixed ``warm_rename`` structure pool.
WARM_POOL_SEED = 11
WARM_POOL_SIZE = 24

#: ``dag_execute`` variants: Jacobian block count and dimensions
#: (outputs, gram, latent, states), and whether a line that forces a
#: synthetic (extracted non-chain) segment is appended.
DAG_VARIANTS = (
    (3, (70, 50, 90, 40), False),
    (5, (70, 50, 90, 40), True),
    (4, (60, 40, 80, 30), True),
    (6, (90, 60, 100, 50), False),
)


def source_digest(source: str) -> str:
    return hashlib.sha1(source.encode("utf-8")).hexdigest()[:12]


def plan_entry(compiled) -> List[list]:
    """``[[target, kernels, cost, flops], ...]`` -- the form the checks
    compare, built from a compilation result or a wire response."""
    return [
        [entry.target, list(entry.kernel_sequence), float(entry.solution.optimal_cost), entry.flops]
        for entry in compiled
    ]


def _render_chain(problem) -> str:
    from repro.algebra.simplify import unary_decomposition

    lines, factors = [], []
    for factor, operand in zip(problem.factors, problem.operands):
        properties = ", ".join(sorted(p.value for p in operand.properties))
        lines.append(f"Matrix {operand.name} ({operand.rows}, {operand.columns}) <{properties}>")
        _, transposed, inverted = unary_decomposition(factor)
        suffix = {(False, False): "", (True, False): "^T", (False, True): "^-1", (True, True): "^-T"}
        factors.append(operand.name + suffix[(transposed, inverted)])
    lines.append("X := " + " * ".join(factors))
    return "\n".join(lines) + "\n"


def warm_sources() -> List[str]:
    from repro.experiments.workload import ChainGenerator
    from repro.frontend.compiler import Compiler

    generator = ChainGenerator(min_length=6, max_length=12, seed=WARM_POOL_SEED)
    sources: List[str] = []
    while len(sources) < WARM_POOL_SIZE:
        source = _render_chain(generator.generate())
        if source in sources:
            continue
        try:
            Compiler().compile(source)
        except Exception:  # noqa: BLE001 -- keep only chains that compile
            continue
        sources.append(source)
    return sources


def dag_sources() -> List[str]:
    from repro.experiments.workload import jacobian_workload

    sources = []
    for blocks, (outputs, gram, latent, states), synthetic in DAG_VARIANTS:
        source = jacobian_workload(
            models=1, blocks=blocks, outputs=outputs, gram=gram, latent=latent, states=states
        )[0].source
        if synthetic:
            source += "K := P_0 * H_0^T * (H_0 * P_0^-1 * H_0^T)^-1\n"
        sources.append(source)
    return sources


def build() -> dict:
    from repro.frontend.compiler import Compiler

    from perfbench.workloads import COLD_POOL_SEED, cold_pool

    compiler = Compiler()
    golden: dict = {"format": 1}
    for name, sources in (("warm_rename", warm_sources()), ("dag_execute", dag_sources())):
        golden[name] = [
            {"source": source, "plan": plan_entry(compiler.compile(source))}
            for source in sources
        ]
    golden["cold_long"] = {
        "pool_seed": COLD_POOL_SEED,
        "plans": [
            {"sha": source_digest(source), "plan": plan_entry(compiler.compile(source))}
            for source in cold_pool()
        ],
    }
    return golden


def write(golden: dict, path: Path) -> None:
    """One pooled structure per line, so plan changes diff readably."""
    lines = ['{"format": %d,' % golden["format"]]
    for name in ("warm_rename", "dag_execute"):
        entries = ",\n  ".join(json.dumps(entry) for entry in golden[name])
        lines.append(f' "{name}": [\n  {entries}],')
    cold = golden["cold_long"]
    entries = ",\n  ".join(json.dumps(entry) for entry in cold["plans"])
    lines.append(f' "cold_long": {{"pool_seed": {cold["pool_seed"]}, "plans": [\n  {entries}]}}}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench.workloads import GOLDEN_PATH

    write(build(), GOLDEN_PATH)
    print(f"wrote {GOLDEN_PATH}")
