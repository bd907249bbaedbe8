#!/usr/bin/env python
"""The execution tier end to end: compile, emit, load, run, validate.

The GMC compiler answers *how* to compute a matrix program; this example
actually computes one.  It compiles a small Kalman-style DAG, emits it as a
standalone Python module (no ``repro`` import needed at runtime -- only
NumPy/SciPy), loads it through the signature-keyed module cache, runs it on
seeded property-respecting random operands, and checks the answer against
the interpreted executor (which runs the same kernel statements) and the
sequential reference evaluator.

Run with::

    PYTHONPATH=src python examples/execute_module.py

The same round trip is one HTTP call against a running service
(``python -m repro.frontend --serve``)::

    curl -X POST http://127.0.0.1:8077/execute \\
         -d '{"source": "...", "execute": {"seed": 7}}'
"""

from __future__ import annotations

import numpy as np

from repro.exec import plan_signature
from repro.exec.api import ExecuteRequest, run_execute_request
from repro.frontend import Compiler
from repro.runtime.executor import Executor
from repro.runtime.operands import random_environment

SOURCE = """
Matrix H (50, 90) <full_rank>
Matrix P (90, 90) <spd>
Matrix B (50, 40) <full_rank>
G := H * P * H^T
J := G^-1 * B
K := P * H^T * (H * P^-1 * H^T)^-1
"""


def main() -> int:
    compiler = Compiler()
    result = compiler.compile(SOURCE)

    # ------------------------------------------------ emit a standalone module
    source = result.emit_stitched("module")
    lines = source.splitlines()
    print(f"emitted module: {len(lines)} lines, plan {plan_signature(result)[:12]}")
    for line in lines:
        if line.startswith(("ENTRYPOINT", "ARGUMENTS", "RESULT")):
            print(f"  {line}")

    # ---------------------- load through the session's module cache and run it
    loader = compiler.loader
    loaded = loader.load(source, plan_signature(result))
    environment = dict(random_environment(result, seed=7))
    value = loaded.run(environment)
    print(
        f"module run: K is {value.shape[0]} x {value.shape[1]}, "
        f"|K|_F = {np.linalg.norm(value):.6f}"
    )

    # ------------------------------------- cross-check the interpreted executor
    interpreted = Executor().execute(result.stitched_program(), dict(environment))
    print(f"interpreter agrees: {np.allclose(value, interpreted)}")

    # ------------------------- the same round trip through the request pipeline
    response = run_execute_request(
        ExecuteRequest.from_dict(
            {"source": SOURCE, "execute": {"seed": 7}}
        ),
        compiler=compiler,
    )
    print(
        f"run_execute_request: ok={response.ok} validated={response.validated} "
        f"max_rel_error={response.max_rel_error:.2e} "
        f"module_cache_hit={response.module_cache_hit}"
    )
    timing = ", ".join(
        f"{key[:-2]} {seconds * 1e3:.2f} ms"
        for key, seconds in response.timing.items()
        if key.endswith("_s")
    )
    print(f"phases: {timing}")
    return 0 if response.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
