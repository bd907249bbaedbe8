"""Self-contained rendering of the NumPy kernel helper routines.

Emitted Python code calls a handful of helper routines for the solve and
inversion kernels (``cholesky_solve``, ``lu_solve``, ...).  Those helpers
live in :mod:`repro.runtime.kernels_numpy`; importing them from there would
tie generated source to this repository being importable at run time.  To
keep emitted modules *standalone*, this module renders the helper
definitions themselves -- extracted verbatim from the runtime via
:func:`inspect.getsource`, so the interpreter (which runs the same
statements with these helpers in its namespace), the emitters and the
generated code keep sharing a single kernel implementation -- and builds a
preamble that inlines exactly the helpers a statement sequence uses.
"""

from __future__ import annotations

import inspect
import re
from typing import Iterable, List, Tuple

from ..runtime import kernels_numpy

__all__ = [
    "HELPER_NAMES",
    "helpers_used",
    "render_helpers",
    "standalone_preamble",
]

#: Public helper routines emitted statements may call, in rendering order.
HELPER_NAMES: Tuple[str, ...] = tuple(kernels_numpy.__all__)

#: Private prerequisites some helpers call; rendered first when referenced.
_PRIVATE_HELPERS: Tuple[str, ...] = ("_as_matrix",)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _source_of(name: str) -> str:
    return inspect.getsource(getattr(kernels_numpy, name))


def helpers_used(statements: Iterable[str]) -> List[str]:
    """The helper routines referenced by *statements*, in canonical order.

    Products and transposes render as plain NumPy expressions (``@``,
    ``*``, ``np.diagonal``, ``.T``); only the solve and inversion families
    call helpers, so a token scan of the rendered statements finds every
    dependency.
    """
    referenced = set()
    for statement in statements:
        referenced.update(_IDENTIFIER.findall(statement))
    return [name for name in HELPER_NAMES if name in referenced]


def render_helpers(names: Iterable[str]) -> Tuple[str, bool]:
    """Source text of the named helpers plus their private prerequisites.

    Returns ``(source, needs_scipy)``: the definitions in dependency order
    (private ``_as_matrix`` first), and whether any of them
    uses :mod:`scipy.linalg` (so the caller knows to import it).
    """
    requested = [name for name in HELPER_NAMES if name in set(names)]
    sources = [_source_of(name) for name in requested]
    needed_private = [
        private
        for private in _PRIVATE_HELPERS
        if any(private in source for source in sources)
    ]
    blocks = [_source_of(name) for name in needed_private] + sources
    text = "\n".join(block.rstrip("\n") + "\n" for block in blocks)
    needs_scipy = "scipy_linalg" in text
    return text, needs_scipy


def standalone_preamble(statements: Iterable[str]) -> str:
    """Imports plus inlined helper definitions making *statements*
    self-contained (no ``repro`` import in the emitted source)."""
    helper_text, needs_scipy = render_helpers(helpers_used(statements))
    lines = ["import numpy as np"]
    if needs_scipy:
        lines.append("from scipy import linalg as scipy_linalg")
    preamble = "\n".join(lines) + "\n"
    if helper_text:
        preamble += "\n\n" + helper_text
    return preamble
