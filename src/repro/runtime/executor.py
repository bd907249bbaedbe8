"""Execution of generated kernel programs on concrete NumPy operands.

The executor interprets a :class:`~repro.kernels.kernel.Program` -- produced
by the GMC algorithm or by one of the baseline strategies -- against an
environment mapping operand names to NumPy arrays.  Each call runs the
statement its kernel's ``numpy_template`` renders (:meth:`KernelCall.numpy`),
the very statement the ``numpy`` and ``module`` emitters write out, with the
operands as locals and NumPy, SciPy and the
:mod:`~repro.runtime.kernels_numpy` helpers as globals.  A kernel therefore
has one executable description, and the interpreter computes what the
emitted code computes.

The executor is the measurement backend of the experiment harness: the
paper's Fig. 8/9 compare *execution times* of the programs generated by
different strategies, and here those times are obtained by running the
programs' emitted statements on property-respecting random operands.  Each
distinct statement is compiled once (:func:`compiled_statement`), so a timed
run does no parsing.
"""

from __future__ import annotations

import functools
from types import CodeType
from typing import Dict, Mapping, Optional

import numpy as np
from scipy import linalg as scipy_linalg

from ..kernels.kernel import KernelCall, Program
from . import kernels_numpy


class ExecutionError(RuntimeError):
    """Raised when a program step cannot be executed."""


#: Globals of every executed statement: what an emitted module imports or
#: inlines.
_NAMESPACE: Dict[str, object] = {
    "np": np,
    "scipy_linalg": scipy_linalg,
    **{name: getattr(kernels_numpy, name) for name in kernels_numpy.__all__},
}


@functools.lru_cache(maxsize=1024)
def compiled_statement(statement: str) -> CodeType:
    """The code object of one rendered kernel statement, compiled once."""
    return compile(statement, "<kernel>", "exec")


class Executor:
    """Interprets kernel programs against NumPy operand values."""

    def __init__(self, environment: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self._environment: Dict[str, np.ndarray] = dict(environment or {})

    # --------------------------------------------------------------- operands
    def bind(self, name: str, value: np.ndarray) -> None:
        self._environment[name] = np.asarray(value, dtype=float)

    def bind_all(self, values: Mapping[str, np.ndarray]) -> None:
        for name, value in values.items():
            self.bind(name, value)

    def value(self, name: str) -> np.ndarray:
        try:
            return self._environment[name]
        except KeyError as exc:
            raise ExecutionError(f"operand {name!r} has no bound value") from exc

    # -------------------------------------------------------------- execution
    def execute(self, program: Program, values: Optional[Mapping[str, np.ndarray]] = None) -> np.ndarray:
        """Run every call of *program* and return the value of its output."""
        if values:
            self.bind_all(values)
        result: Optional[np.ndarray] = None
        for call in program.calls:
            result = self.execute_call(call)
        if program.output is not None:
            return self.value(program.output.name)
        if result is None:
            raise ExecutionError("program has no calls and no declared output")
        return result

    def execute_call(self, call: KernelCall) -> np.ndarray:
        """Run the NumPy statement of a single kernel call and return its
        result (also stored under the call's output name)."""
        statement = call.numpy()
        try:
            exec(compiled_statement(statement), _NAMESPACE, self._environment)
        except NameError as exc:
            raise ExecutionError(
                f"kernel {call.kernel.id} cannot run {statement!r}: {exc}"
            ) from exc
        return self.value(call.output.name)


def execute_program(program: Program, values: Mapping[str, np.ndarray]) -> np.ndarray:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor().execute(program, values)
