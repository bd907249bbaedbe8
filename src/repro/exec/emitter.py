"""The ``module`` emitter: solved plans as standalone importable modules.

Renders a :class:`~repro.kernels.kernel.Program` -- typically the stitched
whole-DAG program of a :class:`~repro.frontend.compiler.CompilationResult`
-- as a self-contained Python module:

* the kernel helper routines the statements call are inlined verbatim
  (:mod:`repro.codegen.runtime_inline`), so the emitted source imports
  **nothing from repro** and runs in a fresh process with only NumPy (and
  SciPy, when a structured solver is inlined) on the path;
* the entrypoint function runs exactly the statements the ``numpy``
  emitter renders: each kernel's ``numpy_template``, its only executable
  description, which the interpreter
  (:class:`repro.runtime.executor.Executor`) runs as well;
* metadata constants (``ENTRYPOINT``, ``ARGUMENTS``, ``RESULT``,
  ``OPERANDS``) drive the loader/runner
  (:mod:`repro.exec.loader`) and make the module self-describing.

Registered in the :mod:`repro.codegen` emitter registry under the name
``"module"`` with ``stitched=True``: ``result.emit("module")`` renders the
whole DAG as ONE module instead of one function per segment.
"""

from __future__ import annotations

import hashlib
from typing import List

from ..algebra.expression import Matrix
from ..codegen.julia import _input_operands
from ..codegen.runtime_inline import helpers_used, render_helpers
from ..kernels.kernel import Program

__all__ = ["generate_module", "plan_signature"]

def _module_operands(program: Program) -> List[Matrix]:
    """The emitted module's arguments: program inputs, plus the output
    operand itself for call-less alias programs (``X := A``)."""
    operands = list(_input_operands(program))
    names = {operand.name for operand in operands}
    produced = {call.output.name for call in program.calls}
    output = program.output
    if (
        isinstance(output, Matrix)
        and output.name not in names
        and output.name not in produced
    ):
        operands.append(output)
    return operands


def _operand_metadata(operands: List[Matrix]) -> List[str]:
    lines = ["OPERANDS = {"]
    for operand in operands:
        properties = sorted(prop.name for prop in operand.properties)
        lines.append(
            f"    {operand.name!r}: {{'rows': {operand.rows}, "
            f"'columns': {operand.columns}, 'properties': {properties!r}}},"
        )
    lines.append("}")
    return lines


def _body_statements(calls, statements) -> List[str]:
    lines = []
    for call, statement in zip(calls, statements):
        comment = (
            f"  # {call.output.name} := {call.expression}" if call.expression else ""
        )
        lines.append(f"    {statement}{comment}")
    return lines


def generate_module(program: Program, function_name: str = "compute") -> str:
    """Render *program* as a self-contained importable Python module."""
    operands = _module_operands(program)
    arguments = [operand.name for operand in operands]
    signature = ", ".join(arguments)
    statements = [call.numpy() for call in program.calls]
    if program.output is not None:
        result_name = program.output.name
    elif program.calls:
        result_name = program.calls[-1].output.name
    elif arguments:
        result_name = arguments[0]
    else:
        raise ValueError("cannot emit a module for an empty program")

    helper_text, needs_scipy = render_helpers(helpers_used(statements))

    expression = (
        f"``{result_name} := {program.expression}``"
        if program.expression is not None
        else f"kernel program for ``{result_name}``"
    )
    kernels = " -> ".join(call.kernel.display_name for call in program.calls) or "-"

    lines: List[str] = [
        '"""Standalone kernel program emitted by the repro execution tier.',
        "",
        f"Computes {expression}",
        f"via the kernel sequence {kernels}.",
        "",
        "Self-contained: the kernel helper routines are inlined, so this",
        "module needs only NumPy"
        + (" and SciPy" if needs_scipy else "")
        + " at run time -- no ``repro`` import.",
        '"""',
        "",
        "import numpy as np",
    ]
    if needs_scipy:
        lines.append("from scipy import linalg as scipy_linalg")
    lines += [
        "",
        f"ENTRYPOINT = {function_name!r}",
        f"ARGUMENTS = {tuple(arguments)!r}",
        f"RESULT = {result_name!r}",
    ]
    lines += _operand_metadata(operands)
    if helper_text:
        lines += ["", ""]
        lines.append(helper_text.rstrip("\n"))

    lines += ["", ""]
    lines.append(f"def {function_name}({signature}):")
    lines.append(f'    """Compute {expression.strip("`")}."""')
    if program.calls:
        lines += _body_statements(program.calls, statements)
    lines.append(f"    return {result_name}")
    return "\n".join(lines) + "\n"


def plan_signature(result) -> str:
    """A stable cache key for the emitted module of a solved plan.

    Accepts a :class:`~repro.frontend.compiler.CompilationResult` (hashed
    over its stitched program and last user target -- exactly what
    ``emit_stitched("module")`` renders) or a bare
    :class:`~repro.kernels.kernel.Program`.  Covers operand dimensions and
    properties as well as the kernel sequence: same kernels over different
    shapes must not share a module (the operand metadata differs).
    """
    if hasattr(result, "stitched_program"):
        program = result.stitched_program()
        targets = getattr(result, "targets", None) or []
        target = targets[-1] if targets else "program"
    else:
        program = result
        target = "program"
    # Intermediate outputs carry process-global temporary numbering (a
    # recompile of the same plan yields fresh ``tmpN`` names), so produced
    # names are canonicalized to their position in call order; declared
    # operand names stay verbatim -- they are the module's ARGUMENTS, and
    # modules with different argument names must not share a cache slot.
    arguments = {operand.name for operand in _module_operands(program)}
    canonical: dict = {}

    def rename(name: str) -> str:
        if name in arguments:
            return name
        return canonical.get(name, name)

    parts: List[str] = [f"target={target}"]
    for operand in _module_operands(program):
        properties = ",".join(sorted(prop.name for prop in operand.properties))
        parts.append(
            f"{operand.name}:{operand.rows}x{operand.columns}<{properties}>"
        )
    for index, call in enumerate(program.calls):
        names = call.operand_names
        bound = ",".join(f"{key}={rename(names[key])}" for key in sorted(names))
        out = call.output.name
        if out not in arguments and out not in canonical:
            canonical[out] = f"%{index}"
        parts.append(f"{call.kernel.id}({bound})->{rename(out)}")
    if program.output is not None:
        parts.append(f"output={rename(program.output.name)}")
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


# Self-registration: the bottom of this module runs after the registry
# machinery of repro.codegen exists (its bottom-of-module import of this
# module tolerates partial initialization), so ``result.emit("module")``,
# the CLI's ``--emit module`` and the service's ``emit`` option all resolve
# the execution tier's emitter through the one registry.
from ..codegen import register_emitter  # noqa: E402  (import cycle order)

register_emitter(
    "module",
    generate_module,
    lambda target: f"compute_{target.lower()}",
    stitched=True,
)
