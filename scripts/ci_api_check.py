#!/usr/bin/env python
"""CI gate on the public API surface.

Imports ``repro`` (and the sub-packages that define the compiler's public
face), asserts that every ``__all__`` name resolves, and compares the
surfaces against the checked-in manifest ``scripts/api_surface.json``.  An
intentional API change must update the manifest in the same commit
(``--update`` regenerates it), which turns silent surface drift into an
explicit, reviewable diff.

Deprecation hygiene is not checked here: ``tests/conftest.py`` makes every
``DeprecationWarning`` attributed to a ``repro.*`` frame an error in the
tier-1 suite itself.

Usage::

    PYTHONPATH=src python scripts/ci_api_check.py            # check
    PYTHONPATH=src python scripts/ci_api_check.py --update   # rewrite manifest
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

MANIFEST = REPO_ROOT / "scripts" / "api_surface.json"

#: Modules whose ``__all__`` constitutes the supported public surface.
SURFACE_MODULES = (
    "repro",
    "repro.options",
    "repro.algebra",
    "repro.matching",
    "repro.frontend",
    "repro.core",
    "repro.codegen",
    "repro.exec",
    "repro.service",
    "repro.telemetry",
    "repro.persist",
    "repro.obs",
)


def collect_surface() -> dict:
    surface = {}
    for module_name in SURFACE_MODULES:
        module = importlib.import_module(module_name)
        names = sorted(getattr(module, "__all__", ()))
        missing = [name for name in names if not hasattr(module, name)]
        if missing:
            raise AssertionError(f"{module_name}.__all__ names do not resolve: {missing}")
        surface[module_name] = names
    return surface


def check_surface() -> int:
    surface = collect_surface()
    if not MANIFEST.exists():
        print(f"API CHECK FAILED: manifest {MANIFEST} missing (run --update)", file=sys.stderr)
        return 1
    expected = json.loads(MANIFEST.read_text())
    failures = []
    for module_name in sorted(set(expected) | set(surface)):
        have = surface.get(module_name)
        want = expected.get(module_name)
        if have == want:
            continue
        added = sorted(set(have or ()) - set(want or ()))
        removed = sorted(set(want or ()) - set(have or ()))
        failures.append(
            f"  {module_name}: added {added or '[]'}, removed {removed or '[]'}"
        )
    if failures:
        print(
            "API CHECK FAILED: public surface drifted from scripts/api_surface.json\n"
            + "\n".join(failures)
            + "\n(intentional? rerun with --update and commit the manifest)",
            file=sys.stderr,
        )
        return 1
    total = sum(len(names) for names in surface.values())
    print(f"api surface OK: {len(surface)} modules, {total} public names")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the surface manifest"
    )
    args = parser.parse_args(argv)

    if args.update:
        MANIFEST.write_text(json.dumps(collect_surface(), indent=2) + "\n")
        print(f"wrote {MANIFEST}")
        return 0

    return check_surface()


if __name__ == "__main__":
    raise SystemExit(main())
