"""Cost metrics: the pluggable objective functions of the GMC algorithm.

The classic matrix chain algorithm minimizes the number of scalar operations.
Section 3.3 of the paper generalizes this: the GMC algorithm accepts an
arbitrary cost function -- FLOPs, estimated execution time (taking per-kernel
efficiency into account), memory traffic, a measure of numerical accuracy, or
a vector of several of these combined under a total order.

A metric assigns a cost to one *kernel application* (a kernel together with
the substitution binding its operands); the DP accumulates these costs over
the kernel calls of a candidate solution.  All metrics return plain floats
(or tuples of floats for vector metrics) so that comparison and addition are
cheap inside the ``O(n^3)`` loop.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

from ..kernels.kernel import Kernel
from ..matching.patterns import Substitution
from .machine import DEFAULT_MACHINE, MachineModel


class CostMetric:
    """Base class for cost metrics.

    Subclasses implement :meth:`kernel_cost`.  The ``zero`` and ``infinity``
    values and the ``combine`` operation define the monoid the DP accumulates
    over; the defaults (0.0, ``inf``, addition) are correct for every scalar
    metric, and :class:`VectorMetric` overrides them for tuple-valued costs.
    """

    name = "abstract"

    #: Cost of computing nothing (a single operand).
    zero: object = 0.0
    #: Cost of an impossible computation (no kernel matches).
    infinity: object = math.inf
    #: Whether :meth:`kernel_cost` is a pure function of (kernel,
    #: substitution).  Together with :attr:`signature_pure` it lets the GMC
    #: loop's split-decision memo reuse a decision within one solve;
    #: metrics with mutable state must set this to ``False``.
    cacheable: bool = True
    #: Whether :meth:`kernel_cost` depends only on what the operands'
    #: shape/property signature captures -- dimensions, declared properties
    #: and the leaf-equality pattern -- never on operand *names* or object
    #: identity.  True for every built-in metric (they price kernels from
    #: shapes); the GMC loop's signature-keyed decision memo
    #: (:class:`repro.core.decision_memo.KernelDecisionMemo`) requires it.
    #: Metrics that inspect names must set this to ``False``.
    signature_pure: bool = True
    #: Whether every kernel cost is guaranteed to be >= :attr:`zero` under
    #: :meth:`combine`.  True for all built-in metrics (FLOPs, time, traffic,
    #: penalties are non-negative); metrics that cannot promise it set this
    #: to ``False``, which disables :meth:`lower_bound` (and with it the DP
    #: split pruning, which is only sound for non-negative kernel costs).
    nonnegative: bool = True

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> object:
        """Cost of applying *kernel* to the matched operands."""
        raise NotImplementedError

    def combine(self, left: object, right: object) -> object:
        """Accumulate two costs (defaults to addition)."""
        return left + right  # type: ignore[operator]

    def lower_bound(self, left_cost: object, right_cost: object) -> Optional[object]:
        """Lower bound on the cost of any split with these sub-chain costs.

        Before matching a candidate split ``(M[i..k], M[k+1..j])`` against
        the catalog, its accumulated cost is already at least
        ``combine(left_cost, right_cost)`` -- whatever kernel matches can
        only add a non-negative amount.  The DP solvers compare this bound
        against the cell's best-so-far and skip the (expensive) matching and
        kernel-cost evaluation for splits that provably cannot win.

        Returns ``None`` when no bound is available (the metric does not
        guarantee non-negative kernel costs); callers must then evaluate the
        split fully.
        """
        if not self.nonnegative:
            return None
        return self.combine(left_cost, right_cost)

    def is_infinite(self, cost: object) -> bool:
        return cost == self.infinity or (
            isinstance(cost, float) and math.isinf(cost)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FlopCount(CostMetric):
    """The classic metric: number of floating-point operations.

    This is the metric used by the standard matrix chain algorithm and by the
    paper's evaluation (Section 4: "As a cost metric, FLOPs are used").
    """

    name = "flops"

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        return kernel.flops(substitution)


class PerformanceMetric(CostMetric):
    """Estimated execution time from a roofline-flavoured performance model.

    Each kernel carries an *efficiency* figure -- the fraction of machine
    peak it typically reaches.  The estimated time of a kernel application is
    the maximum of its compute time (FLOPs at that efficiency) and its memory
    time (operand plus result traffic at the machine bandwidth).  This captures
    the two effects Section 3.3 discusses: not all FLOPs are equally fast
    (GEMM vs. GEMV), and data movement can dominate for skinny operands.
    """

    name = "time"

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE) -> None:
        self.machine = machine

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        flops = kernel.flops(substitution)
        words = kernel.memory_traffic(substitution)
        compute = self.machine.compute_time(flops, kernel.efficiency)
        transfer = self.machine.transfer_time(words)
        return max(compute, transfer)


class MemoryMetric(CostMetric):
    """Number of matrix elements moved (reads of operands plus the write of
    the result) -- a proxy for memory traffic / bytes moved (Section 5)."""

    name = "memory"

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        return kernel.memory_traffic(substitution)


class AccuracyMetric(CostMetric):
    """A crude numerical-accuracy metric.

    Explicit inversion amplifies rounding errors compared to solving a linear
    system, and LU-based solves are less stable than Cholesky on SPD systems.
    The metric charges each kernel a structure-dependent penalty (scaled by
    the problem size) so that, when used inside a vector metric, it breaks
    ties in favour of the numerically preferable formulation -- the behaviour
    Section 3.3 describes for inversion vs. linear systems.
    """

    name = "accuracy"

    #: Relative penalty per kernel family (higher is numerically worse).
    PENALTIES = {
        "GETRI": 10.0,
        "POTRI": 6.0,
        "TRTRI": 4.0,
        "GESV2": 8.0,
        "GESV": 2.0,
        "SYSV": 1.5,
        "POSV": 1.0,
        "TRSM": 1.0,
        "DIAGSV": 0.5,
    }

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        penalty = self.PENALTIES.get(kernel.display_name, 0.1)
        sizes = [
            max(expr.rows or 1, expr.columns or 1) for expr in substitution.values()
        ]
        scale = float(max(sizes)) if sizes else 1.0
        return penalty * scale


class KernelCountMetric(CostMetric):
    """Number of kernel invocations -- useful for tests and for studying how
    metrics change the chosen solution."""

    name = "kernel-count"

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        return 1.0


class WeightedSumMetric(CostMetric):
    """A weighted combination of other scalar metrics."""

    name = "weighted-sum"

    def __init__(self, components: Sequence[Tuple[CostMetric, float]]) -> None:
        if not components:
            raise ValueError("WeightedSumMetric requires at least one component")
        self.components = tuple(components)
        self.cacheable = all(metric.cacheable for metric, _ in self.components)
        self.signature_pure = all(
            metric.signature_pure for metric, _ in self.components
        )
        self.nonnegative = all(
            metric.nonnegative and weight >= 0 for metric, weight in self.components
        )

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        return sum(
            weight * float(metric.kernel_cost(kernel, substitution))
            for metric, weight in self.components
        )


class VectorMetric(CostMetric):
    """A vector-valued metric compared lexicographically.

    Section 5 of the paper notes that the metric "can be a vector, as long as
    addition and a total ordering is defined on the vector space".  Tuples of
    floats with component-wise addition and lexicographic comparison satisfy
    exactly that; a typical instantiation is ``(FLOPs, accuracy penalty)`` --
    minimize FLOPs first and break ties by numerical quality.
    """

    name = "vector"

    def __init__(self, components: Sequence[CostMetric]) -> None:
        if not components:
            raise ValueError("VectorMetric requires at least one component")
        self.components = tuple(components)
        self.zero = tuple(0.0 for _ in self.components)
        self.infinity = tuple(math.inf for _ in self.components)
        self.cacheable = all(metric.cacheable for metric in self.components)
        self.signature_pure = all(metric.signature_pure for metric in self.components)
        # Componentwise non-negativity implies the lexicographic bound of
        # ``lower_bound`` is sound: adding a componentwise >= 0 kernel cost
        # never makes a tuple lexicographically smaller.
        self.nonnegative = all(metric.nonnegative for metric in self.components)

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> Tuple[float, ...]:
        return tuple(
            float(metric.kernel_cost(kernel, substitution)) for metric in self.components
        )

    def combine(self, left: object, right: object) -> Tuple[float, ...]:
        return tuple(a + b for a, b in zip(left, right))  # type: ignore[arg-type]

    def is_infinite(self, cost: object) -> bool:
        return any(math.isinf(component) for component in cost)  # type: ignore[union-attr]


class CustomMetric(CostMetric):
    """Wrap an arbitrary ``f(kernel, substitution) -> float`` as a metric.

    User functions may close over mutable state or inspect operand names,
    so the GMC loop's signature-keyed decision memo is off unless
    ``cacheable=True`` promises a pure function and ``signature_pure=True``
    promises shape/property-only pricing.  Likewise they may return
    negative costs, so DP split pruning is off unless ``nonnegative=True``
    promises that the function never does.
    """

    def __init__(
        self,
        function: Callable[[Kernel, Substitution], float],
        name: str = "custom",
        cacheable: bool = False,
        nonnegative: bool = False,
        signature_pure: bool = False,
    ) -> None:
        self._function = function
        self.name = name
        self.cacheable = cacheable
        self.nonnegative = nonnegative
        self.signature_pure = signature_pure

    def kernel_cost(self, kernel: Kernel, substitution: Substitution) -> float:
        return float(self._function(kernel, substitution))


def resolve_metric(metric: Optional[object]) -> CostMetric:
    """Coerce a metric specification into a :class:`CostMetric` instance.

    Accepts ``None`` (FLOPs), a :class:`CostMetric`, or one of the strings
    ``"flops"``, ``"time"``, ``"memory"``, ``"accuracy"``, ``"kernels"``.
    """
    if metric is None:
        return FlopCount()
    if isinstance(metric, CostMetric):
        return metric
    if isinstance(metric, str):
        lowered = metric.lower()
        if lowered in ("flops", "flop", "flop-count"):
            return FlopCount()
        if lowered in ("time", "performance", "roofline"):
            return PerformanceMetric()
        if lowered in ("memory", "traffic", "bytes"):
            return MemoryMetric()
        if lowered in ("accuracy", "stability"):
            return AccuracyMetric()
        if lowered in ("kernels", "kernel-count", "count"):
            return KernelCountMetric()
        raise ValueError(f"unknown cost metric name: {metric!r}")
    raise TypeError(f"cannot interpret {metric!r} as a cost metric")
