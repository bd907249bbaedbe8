"""Computational kernels: the set ``K`` of BLAS/LAPACK-style building blocks.

The kernel catalog provides, for every kernel: its syntactic pattern and
applicability constraints (Table 1 of the paper), a FLOP-count formula, an
efficiency figure used by the performance cost metric, and code templates;
the NumPy statement template is also what executes the kernel.
"""

from . import flops
from .catalog import KernelCatalog, build_default_kernels, default_catalog, mcp_catalog
from .kernel import Kernel, KernelCall, Program

__all__ = [
    "Kernel",
    "KernelCall",
    "Program",
    "KernelCatalog",
    "default_catalog",
    "mcp_catalog",
    "build_default_kernels",
    "flops",
]
