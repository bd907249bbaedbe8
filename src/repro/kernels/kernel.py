"""The :class:`Kernel` abstraction and :class:`KernelCall` program steps.

A *kernel* (paper Section 1.1) is an optimized routine for a well-defined
linear-algebra operation -- ``C := A * B``, ``C := A^-1 * B``, ``B := A^-1``
and so on -- as provided by BLAS and LAPACK.  For the GMC algorithm a kernel
is characterized by:

* a syntactic *pattern* with applicability *constraints* (Table 1), e.g.
  the TRMM pattern is ``X * Y`` with the constraint ``is_lower_triangular(X)``;
* a *cost* in FLOPs as a function of the matched operand sizes;
* an *efficiency* figure (fraction of machine peak it typically attains),
  which the performance cost metric of Section 3.3 uses to convert FLOPs
  into estimated execution time;
* code templates used by the code generators (Julia-flavoured BLAS calls as
  in Table 2, and NumPy statements).  The NumPy statement is the kernel's
  only executable description: the interpreter, the ``numpy`` emitter and
  the emitted modules all run it.

A :class:`KernelCall` is one step of a generated program: a kernel applied to
concrete operands producing a named output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..algebra.expression import Expression, Matrix
from ..matching.patterns import Pattern, Substitution


#: Signature of a kernel cost function: maps the matched substitution to a
#: FLOP count.
CostFunction = Callable[[Substitution], float]

#: Signature of a memory-traffic function: maps the substitution to an
#: estimate of the number of matrix elements read plus written.
MemoryFunction = Callable[[Substitution], float]


def _default_memory(substitution: Substitution) -> float:
    total = 0.0
    for expr in substitution.values():
        rows = expr.rows or 0
        columns = expr.columns or 0
        total += rows * columns
    return total


@dataclass(frozen=True, eq=False)
class Kernel:
    """A computational kernel: pattern, constraints, cost and code templates.

    Parameters
    ----------
    id:
        Unique identifier, e.g. ``"gemm_nt"`` for GEMM with ``A * B^T``.
    display_name:
        The BLAS/LAPACK-style family name shown in reports, e.g. ``"GEMM"``.
    pattern:
        The :class:`~repro.matching.Pattern` this kernel computes.
    operands:
        Wildcard names in the order the kernel call expects them.
    cost:
        FLOP-count function of the matched substitution.
    efficiency:
        Fraction of machine peak this kernel typically achieves; used by the
        performance cost metric (Section 3.3).  Compute-bound BLAS-3 kernels
        are close to 1, memory-bound BLAS-1/2 kernels are far below.
    julia_template / numpy_template:
        ``str.format`` templates over the operand wildcard names plus
        ``{out}``, used by the code generators.  The rendered NumPy
        statement is what executes the kernel, in the interpreter
        (:class:`repro.runtime.executor.Executor`) and in emitted code
        alike; it may call the helpers of
        :mod:`repro.runtime.kernels_numpy`.
    level:
        BLAS level (1, 2, 3) or the string ``"lapack"``.
    memory:
        Optional memory-traffic estimate; defaults to the sum of operand
        sizes.
    description:
        Human-readable summary used in the Table 1 reproduction.
    """

    id: str
    display_name: str
    pattern: Pattern
    operands: Tuple[str, ...]
    cost: CostFunction
    efficiency: float
    julia_template: str
    numpy_template: str
    level: object = 3
    memory: Optional[MemoryFunction] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(
                f"kernel {self.id}: efficiency must be in (0, 1], got {self.efficiency}"
            )
        missing = [name for name in self.operands if name not in self.pattern.wildcard_names]
        if missing:
            raise ValueError(
                f"kernel {self.id}: operands {missing} do not appear in the pattern"
            )

    # ------------------------------------------------------------------ cost
    def flops(self, substitution: Substitution) -> float:
        """FLOP count of this kernel for the matched operands."""
        return float(self.cost(substitution))

    def memory_traffic(self, substitution: Substitution) -> float:
        """Estimated number of matrix elements moved by this kernel."""
        if self.memory is not None:
            return float(self.memory(substitution))
        return _default_memory(substitution)

    # ---------------------------------------------------------------- codegen
    def render(self, template: str, names: Mapping[str, str], output: str) -> str:
        values = dict(names)
        values["out"] = output
        return template.format(**values)

    def julia_call(self, names: Mapping[str, str], output: str) -> str:
        """Render the Julia-flavoured call string (Table 2 style)."""
        return self.render(self.julia_template, names, output)

    def numpy_call(self, names: Mapping[str, str], output: str) -> str:
        """Render the NumPy statement for generated Python code."""
        return self.render(self.numpy_template, names, output)

    def __str__(self) -> str:
        return self.id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.id})"


@dataclass
class KernelCall:
    """One step of a generated program: a kernel applied to bound operands.

    Attributes
    ----------
    kernel:
        The kernel being invoked.
    substitution:
        Binding of the kernel pattern's wildcards to operand expressions
        (leaves: input matrices or earlier temporaries).
    output:
        The operand (usually a :class:`~repro.algebra.expression.Temporary`)
        holding the result.
    expression:
        The symbolic expression this call computes (for reporting).
    flops / cost:
        FLOP count and metric cost of this call, filled in by whoever builds
        the program (the GMC algorithm or a baseline strategy).
    """

    kernel: Kernel
    substitution: Substitution
    output: Matrix
    expression: Optional[Expression] = None
    flops: float = 0.0
    cost: float = 0.0

    @property
    def operand_names(self) -> Dict[str, str]:
        """Map wildcard names to the names of the bound operands."""
        names: Dict[str, str] = {}
        for wildcard in self.kernel.operands:
            expr = self.substitution[wildcard]
            names[wildcard] = _operand_name(expr)
        return names

    def julia(self) -> str:
        return self.kernel.julia_call(self.operand_names, self.output.name)

    def numpy(self) -> str:
        return self.kernel.numpy_call(self.operand_names, self.output.name)

    def __str__(self) -> str:
        expr = f"  # {self.expression}" if self.expression is not None else ""
        return f"{self.output.name} := {self.kernel.display_name}({', '.join(self.operand_names.values())}){expr}"


def _operand_name(expr: Expression) -> str:
    """Best-effort name of a bound operand (leaf name, or the expression text)."""
    if isinstance(expr, Matrix):
        return expr.name
    leaf_names = [leaf.name for leaf in expr.leaves() if isinstance(leaf, Matrix)]
    if len(leaf_names) == 1:
        return leaf_names[0]
    return str(expr)


@dataclass
class Program:
    """A sequence of kernel calls computing a chain, plus bookkeeping.

    This is the output form of both the GMC algorithm and the baseline
    strategies; the code generators and the NumPy executor consume it.
    """

    calls: Sequence[KernelCall] = field(default_factory=list)
    output: Optional[Matrix] = None
    expression: Optional[Expression] = None
    strategy: str = ""

    @property
    def total_flops(self) -> float:
        return sum(call.flops for call in self.calls)

    @property
    def total_cost(self) -> float:
        return sum(call.cost for call in self.calls)

    @property
    def kernel_names(self) -> Tuple[str, ...]:
        return tuple(call.kernel.display_name for call in self.calls)

    def __len__(self) -> int:
        return len(self.calls)

    def __iter__(self):
        return iter(self.calls)

    def __str__(self) -> str:
        header = f"# strategy: {self.strategy}" if self.strategy else "# program"
        lines = [header]
        lines.extend(str(call) for call in self.calls)
        if self.output is not None:
            lines.append(f"# result in {self.output.name}")
        return "\n".join(lines)
