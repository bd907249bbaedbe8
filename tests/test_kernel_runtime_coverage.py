"""Catalog-wide coverage test: every kernel executes and computes correctly.

For every kernel in the default catalog this test constructs concrete
operands that satisfy the kernel's pattern and constraints, executes the
kernel's NumPy statement -- through the interpreter and through an emitted
standalone module -- and compares the result against a direct reference
evaluation of the matched expression.  This guarantees that the symbolic
layer (patterns, constraints) and the numerical layer (the rendered
``numpy_template``) agree for the *whole* catalog, not just the kernels the
other tests happen to exercise.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

import numpy as np
import pytest

from repro.algebra.expression import Expression, Matrix
from repro.algebra.properties import Property
from repro.kernels import default_catalog
from repro.exec.emitter import generate_module
from repro.exec.loader import ModuleLoader
from repro.kernels.kernel import Kernel, KernelCall, Program
from repro.matching.patterns import Substitution, match
from repro.runtime.executor import Executor
from repro.runtime.operands import instantiate_matrix
from repro.runtime.reference import evaluate

_N = 7
_M = 5

#: Candidate operands used to satisfy kernel constraints.  The first matching
#: combination (pattern + constraints) is used for the numerical check.
_CANDIDATES: Tuple[Matrix, ...] = (
    Matrix("Xsq", _N, _N, {Property.NON_SINGULAR}),
    Matrix("Xspd", _N, _N, {Property.SPD}),
    Matrix("Xsym", _N, _N, {Property.SYMMETRIC, Property.NON_SINGULAR}),
    Matrix("Xlow", _N, _N, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR}),
    Matrix("Xupp", _N, _N, {Property.UPPER_TRIANGULAR, Property.NON_SINGULAR}),
    Matrix("Xdia", _N, _N, {Property.DIAGONAL, Property.NON_SINGULAR}),
    Matrix("Xrect", _N, _M),
    Matrix("Xrect2", _M, _N),
    Matrix("Xcol", _N, 1),
    Matrix("Xrow", 1, _N),
    Matrix("Xscal", 1, 1),
)


def _rename(operand: Matrix, name: str) -> Matrix:
    return Matrix(name, operand.rows, operand.columns, operand.properties)


def _find_substitution(kernel: Kernel) -> Optional[Tuple[Expression, Substitution]]:
    """Search the candidate pool for operands accepted by the kernel."""
    wildcard_names = kernel.pattern.wildcard_names
    pools: List[Iterable[Matrix]] = [_CANDIDATES for _ in wildcard_names]
    for combination in itertools.product(*pools):
        bindings = {
            name: _rename(operand, name)
            for name, operand in zip(wildcard_names, combination)
        }
        try:
            subject = _instantiate_pattern(kernel.pattern.expression, bindings)
        except Exception:
            continue
        substitution = match(kernel.pattern, subject)
        if substitution is not None:
            return subject, substitution
    return None


def _instantiate_pattern(pattern_expr: Expression, bindings) -> Expression:
    """Replace the wildcards of a pattern by concrete operands."""
    from repro.algebra.operators import Inverse, InverseTranspose, Plus, Times, Transpose
    from repro.matching.patterns import Wildcard

    if isinstance(pattern_expr, Wildcard):
        return bindings[pattern_expr.name]
    if isinstance(pattern_expr, Times):
        return Times(*[_instantiate_pattern(child, bindings) for child in pattern_expr.children])
    if isinstance(pattern_expr, Plus):
        return Plus(*[_instantiate_pattern(child, bindings) for child in pattern_expr.children])
    if isinstance(pattern_expr, Transpose):
        return Transpose(_instantiate_pattern(pattern_expr.operand, bindings))
    if isinstance(pattern_expr, Inverse):
        return Inverse(_instantiate_pattern(pattern_expr.operand, bindings))
    if isinstance(pattern_expr, InverseTranspose):
        return InverseTranspose(_instantiate_pattern(pattern_expr.operand, bindings))
    return pattern_expr


_CATALOG = default_catalog()


@pytest.fixture(scope="module")
def loader(tmp_path_factory):
    return ModuleLoader(directory=str(tmp_path_factory.mktemp("kernel_modules")))


def _run(path: str, call: KernelCall, environment, loader: ModuleLoader) -> np.ndarray:
    """Run one kernel call through the interpreter or an emitted module."""
    if path == "executor":
        return Executor(environment).execute_call(call)
    program = Program(calls=[call], output=call.output, expression=call.expression)
    loaded = loader.load(generate_module(program), key=call.kernel.id)
    return loaded.run(environment)


@pytest.mark.parametrize("path", ["executor", "module"])
@pytest.mark.parametrize("kernel", list(_CATALOG), ids=lambda k: k.id)
def test_every_kernel_matches_some_operands_and_executes_correctly(kernel, path, loader):
    found = _find_substitution(kernel)
    assert found is not None, f"no candidate operands satisfy kernel {kernel.id}"
    subject, substitution = found

    # The kernel must report a finite, non-negative cost for the match.
    flops = kernel.flops(substitution)
    assert np.isfinite(flops) and flops >= 0.0
    assert kernel.memory_traffic(substitution) > 0.0

    # Execute the kernel call and compare against the reference evaluation.
    rng = np.random.default_rng(17)
    environment = {}
    for operand in substitution.values():
        environment[operand.name] = instantiate_matrix(operand, rng)
    output = Matrix("OUT", subject.rows, subject.columns)
    call = KernelCall(kernel=kernel, substitution=substitution, output=output, expression=subject)
    result = _run(path, call, environment, loader)
    reference = evaluate(subject, environment)
    np.testing.assert_allclose(result, reference.reshape(result.shape), rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("kernel", list(_CATALOG), ids=lambda k: k.id)
def test_every_kernel_renders_its_code_templates(kernel):
    found = _find_substitution(kernel)
    assert found is not None
    subject, substitution = found
    output = Matrix("OUT", subject.rows, subject.columns)
    call = KernelCall(kernel=kernel, substitution=substitution, output=output, expression=subject)
    julia = call.julia()
    numpy_code = call.numpy()
    assert isinstance(julia, str) and julia
    assert isinstance(numpy_code, str) and numpy_code
    # The rendered code references at least one of the bound operand names.
    assert any(name in julia or name in numpy_code for name in call.operand_names.values())
