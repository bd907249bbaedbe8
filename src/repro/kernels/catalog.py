"""The kernel catalog: the set ``K`` of available kernels, with matching.

The catalog bundles a set of :class:`~repro.kernels.kernel.Kernel` objects
with a discrimination net over their patterns, so that the GMC algorithm's
``match(expr)`` step (paper Fig. 4, line 6) finds *all* applicable kernels
for a candidate sub-expression in one walk over the expression.

Two stock catalogs are provided:

* :func:`default_catalog` -- the full BLAS/LAPACK-style kernel set assumed by
  the paper: products and solves with optional transposition, specialized
  variants for triangular / symmetric / SPD / diagonal operands, vector
  kernels, explicit inversion, and (optionally) the composite
  ``A^-1 B^-1`` kernel of Section 5.
* :func:`mcp_catalog` -- a GEMM-only catalog, which reduces GMCP to the
  classic matrix chain problem of Section 2 (useful for testing the
  equivalence of the GMC algorithm and the textbook DP on plain chains).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..algebra.expression import Expression
from ..matching.discrimination_net import DiscriminationNet
from ..matching.match_cache import MatchCache
from ..matching.patterns import Substitution
from . import blas, blas2, lapack
from .kernel import Kernel


class KernelCatalog:
    """An immutable collection of kernels with many-to-one matching."""

    def __init__(self, kernels: Iterable[Kernel], name: str = "catalog") -> None:
        self._kernels: Tuple[Kernel, ...] = tuple(kernels)
        self.name = name
        self._by_id: Dict[str, Kernel] = {}
        for kernel in self._kernels:
            if kernel.id in self._by_id:
                raise ValueError(f"duplicate kernel id {kernel.id!r}")
            self._by_id[kernel.id] = kernel
        self._net = DiscriminationNet(
            (kernel.pattern, kernel) for kernel in self._kernels
        )
        self._match_cache = MatchCache(self._net)

    # ------------------------------------------------------------ inspection
    @property
    def kernels(self) -> Tuple[Kernel, ...]:
        return self._kernels

    def __len__(self) -> int:
        return len(self._kernels)

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self._kernels)

    def __contains__(self, kernel_id: str) -> bool:
        return kernel_id in self._by_id

    def by_id(self, kernel_id: str) -> Kernel:
        """Look a kernel up by its unique identifier."""
        return self._by_id[kernel_id]

    def by_family(self, display_name: str) -> List[Kernel]:
        """All kernels of a family (``"GEMM"``, ``"TRSM"``, ...)."""
        return [k for k in self._kernels if k.display_name == display_name]

    @property
    def families(self) -> List[str]:
        seen: List[str] = []
        for kernel in self._kernels:
            if kernel.display_name not in seen:
                seen.append(kernel.display_name)
        return seen

    # -------------------------------------------------------------- matching
    @property
    def net(self) -> DiscriminationNet:
        """The discrimination net over this catalog's patterns.

        Exposed for the cache layers that version-watch it (the match cache
        and the plan cache of :mod:`repro.persist`): ``net.version`` moves on
        every pattern insertion, which is their invalidation signal.
        """
        return self._net

    @property
    def match_cache(self) -> MatchCache:
        """The signature-keyed cache serving :meth:`match` (for stats/reset)."""
        return self._match_cache

    def match(
        self, expr: Expression, use_cache: bool = True
    ) -> List[Tuple[Kernel, Substitution]]:
        """Return every ``(kernel, substitution)`` pair whose pattern (and
        constraints) match *expr*.

        Served through the signature-keyed match cache: subjects whose
        shape/property signature was seen before reuse the kernel list and a
        re-bound substitution without walking the discrimination net (see
        :mod:`repro.matching.match_cache`, including the invalidation rules).
        ``use_cache=False`` bypasses the cache for this call -- the
        per-solver spelling of ``CompileOptions(match_cache=False)``.
        """
        if use_cache:
            return self._match_cache.match(expr)
        results: List[Tuple[Kernel, Substitution]] = []
        for _, substitution, payload in self._net.match(expr):
            results.append((payload, substitution))
        return results

    def match_first(self, expr: Expression) -> Optional[Tuple[Kernel, Substitution]]:
        for _, substitution, payload in self._net.match(expr):
            return payload, substitution
        return None

    # ------------------------------------------------------------- extension
    def extended(self, extra: Sequence[Kernel], name: Optional[str] = None) -> "KernelCatalog":
        """Return a new catalog with additional kernels."""
        return KernelCatalog(self._kernels + tuple(extra), name=name or self.name)

    def restricted(self, families: Sequence[str], name: Optional[str] = None) -> "KernelCatalog":
        """Return a new catalog containing only the given kernel families."""
        wanted = set(families)
        kept = [k for k in self._kernels if k.display_name in wanted]
        return KernelCatalog(kept, name=name or f"{self.name}[{','.join(families)}]")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelCatalog({self.name}, {len(self._kernels)} kernels)"


def build_default_kernels(
    include_combined_inverse: bool = True,
    include_specialized: bool = True,
) -> List[Kernel]:
    """Build the kernel list of the default catalog.

    Parameters
    ----------
    include_combined_inverse:
        Include the composite ``A^-1 B^-1`` kernel (GESV2).  Disabling it
        reproduces the completeness discussion of Section 3.4: chains such as
        ``A^-1 B^-1 C`` remain solvable through other parenthesizations,
        while the length-2 chain ``A^-1 B^-1`` becomes uncomputable.
    include_specialized:
        Include the property-specialized kernels (TRMM, SYMM, SYRK, DIAGMM,
        TRSM, POSV, SYSV, DIAGSV).  Disabling them leaves only the generic
        GEMM/GEMV/GESV/... kernels, which is useful for ablation studies of
        how much the property machinery contributes.
    """
    kernels: List[Kernel] = []
    specialized_families = {
        "TRMM",
        "SYMM",
        "SYRK",
        "DIAGMM",
        "TRSM",
        "POSV",
        "SYSV",
        "DIAGSV",
        "TRMV",
        "SYMV",
        "TRSV",
    }
    for kernel in blas.build_multiplication_kernels():
        if not include_specialized and kernel.display_name in specialized_families:
            continue
        kernels.append(kernel)
    for kernel in blas2.build_structured_vector_kernels():
        if not include_specialized and kernel.display_name in specialized_families:
            continue
        kernels.append(kernel)
    for kernel in lapack.build_solver_kernels(include_combined_inverse=include_combined_inverse):
        if not include_specialized and kernel.display_name in specialized_families:
            continue
        kernels.append(kernel)
    return kernels


def default_catalog(
    include_combined_inverse: bool = True,
    include_specialized: bool = True,
) -> KernelCatalog:
    """The full BLAS/LAPACK-style catalog the paper assumes (cached).

    The cache key is normalized before the ``lru_cache`` lookup, so
    ``default_catalog()``, ``default_catalog(True, True)`` and
    ``default_catalog(include_combined_inverse=True)`` all return the *same*
    object.  (``lru_cache`` keys raw call shapes, under which those three
    spellings are distinct -- each used to build its own duplicate catalog,
    fragmenting every cache keyed by kernel or catalog identity.)
    """
    return _default_catalog(bool(include_combined_inverse), bool(include_specialized))


@lru_cache(maxsize=8)
def _default_catalog(
    include_combined_inverse: bool,
    include_specialized: bool,
) -> KernelCatalog:
    suffix = []
    if not include_combined_inverse:
        suffix.append("no-gesv2")
    if not include_specialized:
        suffix.append("generic-only")
    name = "default" if not suffix else "default[" + ",".join(suffix) + "]"
    return KernelCatalog(
        build_default_kernels(
            include_combined_inverse=include_combined_inverse,
            include_specialized=include_specialized,
        ),
        name=name,
    )


#: Expose the underlying cache controls on the public wrapper.
default_catalog.cache_clear = _default_catalog.cache_clear  # type: ignore[attr-defined]
default_catalog.cache_info = _default_catalog.cache_info  # type: ignore[attr-defined]


@lru_cache(maxsize=1)
def mcp_catalog() -> KernelCatalog:
    """A GEMM-only catalog: reduces GMCP to the classic matrix chain problem."""
    return KernelCatalog(blas.build_gemm_kernels()[:1], name="mcp (GEMM only)")
