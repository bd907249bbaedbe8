"""Output checks that do not trust the DP.

* Every served plan (kernel sequence, cost, FLOPs per assignment) must
  equal the golden plan pinned for its structure.
* The generated NumPy code of each distinct ``/compile`` plan is run on
  seeded operands and compared with the direct reference evaluation of
  the request's expression (:mod:`repro.runtime.reference`), which shares
  no code with the DP, the matcher or the code generator.  The operands
  are made here, well conditioned, because the reference inverts
  explicitly and random triangular matrices are ill-conditioned enough to
  fail a correct plan.
* Every ``/execute`` must come back ``validated: true``.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.golden import source_digest

RTOL = 1e-6
ATOL = 1e-9


def wire_plan(assignments: list) -> list:
    """The golden form of a ``/compile`` response's assignments."""
    return [[a["target"], list(a["kernels"]), a["cost"], a["flops"]] for a in assignments]


def golden_plan(golden: dict, workload: str, structure: Optional[int]) -> Optional[list]:
    if structure is None:
        return None
    if workload == "cold_long":
        return golden["cold_long"]["plans"][structure]["plan"]
    return golden[workload][structure]["plan"]


def check_cold_pool(golden: dict, pool: List[str]) -> Optional[str]:
    """The runtime pool must be the one the golden plans were made from."""
    pinned = golden["cold_long"]["plans"]
    if len(pinned) != len(pool):
        return f"cold pool has {len(pool)} chains, golden.json {len(pinned)}"
    for index, (entry, source) in enumerate(zip(pinned, pool)):
        if entry["sha"] != source_digest(source):
            return f"cold pool chain {index} differs from the one golden.json pins"
    return None


def plan_mismatch(expected: Optional[list], served: list) -> Optional[str]:
    if expected is None or served == expected:
        return None
    return f"plan {served} differs from golden {expected}"


def generated_function(code: str) -> Callable:
    """The ``compute_*`` entry point defined by emitted NumPy code."""
    namespace: dict = {}
    exec(compile(code, "<generated>", "exec"), namespace)  # noqa: S102 -- our own server's output
    entries = [value for name, value in namespace.items() if name.startswith("compute_")]
    if len(entries) != 1:
        raise ValueError(f"expected one compute_* function, found {len(entries)}")
    return entries[0]


def operand_values(program, seed: int) -> Dict[str, np.ndarray]:
    """Seeded values honouring each operand's structure exactly, with
    entries scaled by 1/sqrt(n) and unit-dominant diagonals so every
    square operand is well conditioned."""
    rng = np.random.default_rng(seed)
    values = {}
    for name in sorted(program.operands):
        operand = program.operands[name]
        rows, columns = operand.rows, operand.columns
        properties = {prop.value for prop in operand.properties}
        base = rng.standard_normal((rows, columns)) / np.sqrt(max(rows, columns))
        dominant = np.diag(1.0 + np.abs(rng.standard_normal(rows))) if rows == columns else None
        if dominant is None:
            value = base
        elif "diagonal" in properties:
            value = dominant * np.sign(rng.standard_normal(rows))
        elif "lower_triangular" in properties:
            value = np.tril(base, -1) + dominant
        elif "upper_triangular" in properties:
            value = np.triu(base, 1) + dominant
        elif "spd" in properties:
            value = base @ base.T + dominant
        elif "symmetric" in properties:
            value = (base + base.T) / 2 + 2 * dominant
        else:
            value = base + 2 * dominant
        values[name] = value
    return values


def numeric_check(source: str, code: str, data_seed: int) -> Tuple[Optional[str], Callable, list]:
    """Run *code* on seeded operands of *source* against the reference.

    Returns ``(error or None, function, arguments)`` so the caller can
    time the same call afterwards.
    """
    from repro.algebra.dsl import parse_program
    from repro.runtime.reference import allclose

    program = parse_program(source)
    environment = operand_values(program, data_seed)
    function = generated_function(code)
    arguments = [environment[name] for name in inspect.signature(function).parameters]
    result = function(*arguments)
    expression = program.assignments[-1][1]
    if not allclose(expression, environment, result, rtol=RTOL, atol=ATOL):
        return "generated code disagrees with the reference evaluation", function, arguments
    return None, function, arguments


def min_run_times(calls: List[Tuple[Callable, list]], rounds: int, pause_s: float) -> List[float]:
    """Per call, the fastest of *rounds* runs.  Rounds sweep over all
    calls and are *pause_s* apart, so a slow spell of a shared machine
    hits a few rounds of every call rather than every run of a few."""
    best = [float("inf")] * len(calls)
    for round_ in range(rounds):
        if round_:
            time.sleep(pause_s)
        for position, (function, arguments) in enumerate(calls):
            started = time.perf_counter()
            function(*arguments)
            best[position] = min(best[position], time.perf_counter() - started)
    return best
