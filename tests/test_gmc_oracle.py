"""Optimality and identity of the GMC loop against references it does not share.

* **Brute-force oracle.**  For chains of up to six factors, every
  parenthesization is enumerated and, at every node of every tree, every
  kernel of the catalog whose pattern matches the node.  Matching goes
  through :func:`repro.matching.patterns.match` kernel by kernel (no
  discrimination net, no match cache, no decision memo) and kernels are
  priced by the metric's uncached ``kernel_cost``.  The oracle's minimum
  must equal the cost GMC reports, and GMC's plan must be computable
  exactly when some plan exists.
* **Pruned vs exhaustive.**  ``prune=True`` (bound-ordered evaluation with
  one cut) and ``prune=False`` (every split, ascending ``k``) must return
  bit-identical plans: kernel sequence, optimal cost and split table.
"""

import random

import pytest

from repro.algebra import Matrix, Property, Temporary, Times
from repro.algebra.inference import infer_properties
from repro.algebra.simplify import as_chain
from repro.core import GMCAlgorithm, UncomputableChainError
from repro.cost import FlopCount, KernelCountMetric, WeightedSumMetric, resolve_metric
from repro.experiments.workload import ChainGenerator
from repro.kernels import default_catalog
from repro.matching.patterns import match
from repro.options import CompileOptions


def oracle_cost(expression, metric, catalog):
    """The minimal cost over every parenthesization x every matching kernel.

    The operand of sub-chain ``M[i..j]`` is a temporary carrying the
    properties inferred for the sub-chain (the paper's model: properties of
    an intermediate do not depend on how it was computed).  Returns
    ``metric.infinity`` when no plan maps onto the catalog.
    """
    factors = as_chain(expression)
    n = len(factors)
    kernels = list(catalog)
    operands = {}
    kernel_costs = {}

    def operand(i, j):
        if i == j:
            return factors[i]
        if (i, j) not in operands:
            sub_chain = Times(*factors[i : j + 1])
            operands[(i, j)] = Temporary(
                rows=sub_chain.rows,
                columns=sub_chain.columns,
                properties=infer_properties(sub_chain),
                origin=sub_chain,
            )
        return operands[(i, j)]

    def costs_of_node(i, k, j):
        key = (i, k, j)
        if key not in kernel_costs:
            subject = Times(operand(i, k), operand(k + 1, j))
            kernel_costs[key] = [
                metric.kernel_cost(kernel, substitution)
                for kernel in kernels
                for substitution in (match(kernel.pattern, subject),)
                if substitution is not None
            ]
        return kernel_costs[key]

    def plans(i, j):
        """The cost of every complete plan of ``M[i..j]``."""
        if i == j:
            yield metric.zero
            return
        for k in range(i, j):
            node_costs = costs_of_node(i, k, j)
            if not node_costs:
                continue
            for left in plans(i, k):
                for right in plans(k + 1, j):
                    for kernel_cost in node_costs:
                        yield metric.combine(metric.combine(left, right), kernel_cost)

    if n == 1:
        return metric.zero
    return min(plans(0, n - 1), default=metric.infinity)


def generated_chains(count, seed, max_length=6):
    """Seeded chains with transposes, inverses, properties and vectors."""
    generator = ChainGenerator(
        min_length=2,
        max_length=max_length,
        size_choices=(4, 6, 9, 15),
        vector_probability=0.1,
        square_probability=0.5,
        transpose_probability=0.3,
        inverse_probability=0.3,
        property_probability=0.7,
        seed=seed,
    )
    return [problem.expression for problem in generator.generate_many(count)]


def make_metric(name):
    """A fresh metric instance: a registered name, or ``"weighted"``."""
    if name == "weighted":
        return WeightedSumMetric([(FlopCount(), 1.0), (KernelCountMetric(), 10.0)])
    return resolve_metric(name)


class TestBruteForceOracle:
    @pytest.mark.parametrize(
        "metric_name, seed",
        [
            ("flops", 1),
            ("time", 2),
            ("kernels", 3),
            ("memory", 4),
            ("accuracy", 5),
            ("weighted", 6),
        ],
    )
    @pytest.mark.parametrize("prune", [True, False])
    def test_gmc_reaches_the_oracle_minimum(self, metric_name, seed, prune):
        catalog = default_catalog()
        computable = 0
        for expression in generated_chains(30, seed=seed):
            metric = make_metric(metric_name)
            solution = GMCAlgorithm(
                CompileOptions(metric=metric, prune=prune, plan_cache=False)
            ).solve(expression)
            expected = oracle_cost(expression, make_metric(metric_name), catalog)
            assert solution.computable == (not metric.is_infinite(expected)), expression
            if not solution.computable:
                continue
            computable += 1
            assert float(solution.optimal_cost) == pytest.approx(float(expected)), expression
            # The reported cost is the cost of the returned plan.
            recomputed = sum(float(call.cost) for call in solution.kernel_calls())
            assert recomputed == pytest.approx(float(solution.optimal_cost))
        assert computable >= 20

    def test_oracle_without_combined_inverse_kernels(self):
        """A catalog gap forces other splits (or leaves the chain
        uncomputable); GMC must agree with the oracle on both counts."""
        catalog = default_catalog(include_combined_inverse=False)
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        c = Matrix("C", 10, 6)
        chains = generated_chains(40, seed=7) + [Times(a.I, b.I, c), Times(a.I, b.I)]
        outcomes = set()
        for expression in chains:
            solution = GMCAlgorithm(
                CompileOptions(catalog=catalog, plan_cache=False)
            ).solve(expression)
            expected = oracle_cost(expression, FlopCount(), catalog)
            assert solution.computable == (expected != FlopCount().infinity)
            outcomes.add(solution.computable)
            if solution.computable:
                assert float(solution.optimal_cost) == pytest.approx(expected)
            else:
                with pytest.raises(UncomputableChainError):
                    solution.program()
        assert outcomes == {True, False}
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(chains[-2])
        assert solution.kernel_sequence() == ["GESV", "GESV"]


# ---------------------------------------------------------------------------
# prune=True vs prune=False: bit-identical plans.
# ---------------------------------------------------------------------------

#: Chain operands share dimensions, so signature-keyed layers (match cache,
#: decision memo) see repeats, like the application chains of the paper.
PALETTE = (40, 60, 80, 100)

SQUARE_PROPS = (Property.LOWER_TRIANGULAR, Property.DIAGONAL, Property.SYMMETRIC)


def palette_chain(seed, length):
    """A random conformable chain with occasional properties/transposes."""
    rng = random.Random(seed)
    dims = [rng.choice(PALETTE) for _ in range(length + 1)]
    factors = []
    for index in range(length):
        properties = set()
        if dims[index] == dims[index + 1] and rng.random() < 0.3:
            properties = {rng.choice(SQUARE_PROPS)}
        factor = Matrix(f"M{index}", dims[index], dims[index + 1], properties)
        if factor.rows == factor.columns and rng.random() < 0.2:
            factor = factor.T
        factors.append(factor)
    return factors


def plan_of(solution):
    """Everything the identity contract covers, as one comparable value."""
    return (
        solution.kernel_sequence() if solution.computable else None,
        solution.optimal_cost,
        solution.splits,
    )


def solve(chain, *, prune, metric="flops", match_cache=True):
    options = CompileOptions(
        metric=metric, prune=prune, match_cache=match_cache, plan_cache=False
    )
    return GMCAlgorithm(options).solve(list(chain))


class TestPrunedMatchesExhaustive:
    @pytest.mark.parametrize(
        "metric_name", ["flops", "weighted", "time", "kernels", "memory"]
    )
    @pytest.mark.parametrize("length", [3, 12, 24])
    @pytest.mark.parametrize("match_cache", [True, False])
    def test_palette_chains(self, match_cache, metric_name, length):
        """With the match cache on, both arms consult the decision memo;
        with it off, both use the raw picker."""
        chain = palette_chain(seed=length * 31 + len(metric_name), length=length)
        pruned = solve(
            chain, prune=True, metric=make_metric(metric_name), match_cache=match_cache
        )
        exhaustive = solve(
            chain, prune=False, metric=make_metric(metric_name), match_cache=match_cache
        )
        assert pruned.computable and pruned.complete and exhaustive.complete
        assert plan_of(pruned) == plan_of(exhaustive)
        assert exhaustive.cells_pruned == 0

    @pytest.mark.parametrize("match_cache", [True, False])
    def test_generated_chains(self, match_cache):
        """Transposes, inverses and properties; with the match cache off the
        decision memo is bypassed too, so both arms use the raw picker."""
        for expression in generated_chains(25, seed=3, max_length=10):
            pruned = GMCAlgorithm(
                CompileOptions(prune=True, match_cache=match_cache, plan_cache=False)
            ).solve(expression)
            exhaustive = GMCAlgorithm(
                CompileOptions(prune=False, match_cache=False, plan_cache=False)
            ).solve(expression)
            assert plan_of(pruned) == plan_of(exhaustive), expression
            assert pruned.parenthesization() == exhaustive.parenthesization()

    @pytest.mark.parametrize("prune", [True, False])
    def test_cost_ties_resolve_to_the_smallest_split(self, prune):
        """Every parenthesization of four equal square factors costs the
        same; each cell records the smallest tying ``k`` (the paper's
        ascending-``k`` loop with a strict ``<``)."""
        solution = solve([Matrix(name, 10, 10) for name in "ABCD"], prune=prune)
        assert all(
            solution.splits[i][j] == i for i in range(4) for j in range(i + 1, 4)
        )
        assert solution.parenthesization() == "(A * (B * (C * D)))"
