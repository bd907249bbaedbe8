"""Versioned on-disk snapshots of the plan cache and the match cache.

A snapshot lets a restarted worker boot *warm*: the signature-keyed state of
the two caches that dominate repeated-traffic latency -- the plan cache
(:mod:`repro.persist.plan_cache`) and the kernel-match cache
(:mod:`repro.matching.match_cache`) -- is serialized to one JSON file and
re-installed at boot, so the first signature-equal request after a restart
is answered from cache instead of re-running the dynamic program.

Format
------
One JSON object::

    {
      "format":  "repro-cache-snapshot",
      "version": 2,
      "catalog": {"name": ..., "kernels": <digest>, "net_version": N},
      "plan_entries":  [{"signature": [...], "fingerprint": [...],
                         "recipe": {...}}, ...],
      "match_entries": [{"signature": [...],
                         "matches": [[kernel_id, [[name, pos], ...]], ...]},
                        ...],
      "checksum": "sha256:..."
    }

Signatures are encoded *canonically* (property sets as sorted names), never
via ``repr`` -- enum hashes vary across processes, so only a canonical
encoding makes the on-disk key equal to the signature a restarted process
computes.  Writes are atomic (temp file + ``os.replace``), so a crash
mid-write leaves the previous snapshot intact.

Loading is **never allowed to crash a worker**: a missing, truncated,
corrupt or checksum-mismatched file, an unknown format/version, a different
catalog (kernel-set digest), or net version drift all produce a clean
*cold boot* -- :func:`load_snapshot` returns
``{"loaded": False, "reason": ...}`` and the caches simply start empty.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..algebra.properties import Property
from ..kernels.catalog import KernelCatalog
from .plan_cache import PlanCache, PlanRecipe

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SNAPSHOT_FILENAME",
    "SnapshotError",
    "snapshot_path",
    "capture_state",
    "merge_states",
    "write_snapshot",
    "read_snapshot",
    "restore_state",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "repro-cache-snapshot"
#: Bumped whenever an entry written by the previous version could never hit
#: (it would still occupy an LRU slot): version 2 dropped the solver name
#: from the plan fingerprint, which is now ``[metric, prune, match_cache]``.
SNAPSHOT_VERSION = 2
#: File name used inside a ``--snapshot-dir`` directory.
SNAPSHOT_FILENAME = "repro-cache-snapshot.json"


class SnapshotError(RuntimeError):
    """A snapshot could not be read/validated (callers fall back cold)."""


def snapshot_path(directory) -> Path:
    """The snapshot file inside a snapshot directory."""
    return Path(directory) / SNAPSHOT_FILENAME


# ---------------------------------------------------------------------------
# Signature codec.
# ---------------------------------------------------------------------------

def _encode_signature(signature: Tuple) -> Optional[List]:
    """Canonical JSON form of an expression signature (or ``None``).

    Operator parts ``(type_name, arity)`` become ``["o", name, arity]``;
    matrix-leaf parts ``(index, rows, columns, properties)`` become
    ``["m", index, rows, columns, [sorted property names]]``.  Signatures
    containing any other leaf kind (pattern wildcards) are not encodable --
    the caches bypass those subjects anyway.
    """
    encoded: List = []
    for part in signature:
        head = part[0]
        if isinstance(head, str):
            if len(part) == 2 and isinstance(part[1], int):
                encoded.append(["o", head, part[1]])
            else:
                return None
        elif isinstance(head, int) and len(part) == 4:
            index, rows, columns, properties = part
            encoded.append(
                ["m", index, rows, columns, sorted(p.name for p in properties)]
            )
        else:
            return None
    return encoded


def _decode_signature(encoded: List) -> Tuple:
    parts = []
    for entry in encoded:
        tag = entry[0]
        if tag == "o":
            parts.append((str(entry[1]), int(entry[2])))
        elif tag == "m":
            parts.append(
                (
                    int(entry[1]),
                    int(entry[2]),
                    int(entry[3]),
                    frozenset(Property[name] for name in entry[4]),
                )
            )
        else:
            raise SnapshotError(f"unknown signature part tag {tag!r}")
    return tuple(parts)


def _catalog_digest(catalog: KernelCatalog) -> str:
    payload = ",".join(sorted(kernel.id for kernel in catalog))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _catalog_meta(catalog: KernelCatalog) -> Dict[str, object]:
    return {
        "name": catalog.name,
        "kernels": _catalog_digest(catalog),
        "net_version": catalog.net.version,
    }


# ---------------------------------------------------------------------------
# Capture / merge.
# ---------------------------------------------------------------------------

def capture_state(plan_cache: PlanCache, catalog: KernelCatalog) -> Dict[str, object]:
    """The serializable snapshot body of one process's caches (no checksum)."""
    plan_entries = []
    for signature, fingerprint, recipe in plan_cache.export_entries():
        encoded = _encode_signature(signature)
        if encoded is None:
            continue
        plan_entries.append(
            {
                "signature": encoded,
                "fingerprint": list(fingerprint),
                "recipe": recipe.to_wire(),
            }
        )
    match_entries = []
    for signature, matches in catalog.match_cache.export_entries():
        encoded = _encode_signature(signature)
        if encoded is None:
            continue
        match_entries.append(
            {
                "signature": encoded,
                "matches": [
                    [payload.id, [[name, pos] for name, pos in slots]]
                    for payload, slots in matches
                ],
            }
        )
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "catalog": _catalog_meta(catalog),
        "plan_entries": plan_entries,
        "match_entries": match_entries,
    }


def merge_states(states) -> Dict[str, object]:
    """Union several workers' snapshot bodies into one (first key wins).

    Workers of one pool share the catalog configuration; a state captured
    against a different catalog raises :class:`SnapshotError` rather than
    silently mixing incompatible plans.
    """
    states = [state for state in states if state]
    if not states:
        raise SnapshotError("no snapshot states to merge")
    merged = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "catalog": states[0]["catalog"],
        "plan_entries": [],
        "match_entries": [],
    }
    seen_plans, seen_matches = set(), set()
    for state in states:
        if state["catalog"] != merged["catalog"]:
            raise SnapshotError("cannot merge snapshots of different catalogs")
        for entry in state["plan_entries"]:
            key = json.dumps(
                [entry["signature"], entry["fingerprint"]], sort_keys=True
            )
            if key not in seen_plans:
                seen_plans.add(key)
                merged["plan_entries"].append(entry)
        for entry in state["match_entries"]:
            key = json.dumps(entry["signature"], sort_keys=True)
            if key not in seen_matches:
                seen_matches.add(key)
                merged["match_entries"].append(entry)
    return merged


# ---------------------------------------------------------------------------
# File I/O.
# ---------------------------------------------------------------------------

def _checksum(body: Dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_snapshot(path, state: Dict[str, object]) -> Dict[str, object]:
    """Atomically write a snapshot body; returns write metadata."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = dict(state)
    body.pop("checksum", None)
    body["checksum"] = _checksum({k: v for k, v in body.items() if k != "checksum"})
    payload = json.dumps(body, separators=(",", ":")) + "\n"
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return {
        "path": str(path),
        "bytes": len(payload),
        "plan_entries": len(body["plan_entries"]),
        "match_entries": len(body["match_entries"]),
    }


def read_snapshot(path) -> Dict[str, object]:
    """Read and validate a snapshot file (format, version, checksum).

    Raises :class:`SnapshotError` on every problem; :func:`load_snapshot`
    turns that into a clean cold boot.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotError("no snapshot file")
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot: {exc}") from exc
    if not isinstance(body, dict):
        raise SnapshotError("snapshot is not a JSON object")
    if body.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"unknown snapshot format {body.get('format')!r}")
    if body.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {body.get('version')!r} != {SNAPSHOT_VERSION}"
        )
    recorded = body.get("checksum")
    expected = _checksum({k: v for k, v in body.items() if k != "checksum"})
    if recorded != expected:
        raise SnapshotError("snapshot checksum mismatch (truncated or corrupt)")
    return body


def restore_state(
    state: Dict[str, object],
    plan_cache: PlanCache,
    catalog: KernelCatalog,
) -> Dict[str, int]:
    """Install a validated snapshot body into live caches.

    Raises :class:`SnapshotError` when the snapshot was captured against a
    different catalog (kernel digest) or an extended discrimination net --
    staleness must fall back cold, never serve wrong plans.  Other catalog
    fields are ignored, so an older snapshot that also recorded a
    predicate-registry version loads warm.
    """
    meta = state.get("catalog") or {}
    current = _catalog_meta(catalog)
    for field in ("kernels", "net_version"):
        if meta.get(field) != current[field]:
            raise SnapshotError(
                f"catalog drift: snapshot {field}={meta.get(field)!r}, "
                f"process has {current[field]!r}"
            )
    try:
        plan_entries = [
            (
                _decode_signature(entry["signature"]),
                tuple(entry["fingerprint"]),
                PlanRecipe.from_wire(entry["recipe"]),
            )
            for entry in state.get("plan_entries", ())
        ]
        match_entries = []
        for entry in state.get("match_entries", ()):
            matches = []
            for kernel_id, slots in entry["matches"]:
                matches.append(
                    (
                        catalog.by_id(kernel_id),
                        tuple((str(name), int(pos)) for name, pos in slots),
                    )
                )
            match_entries.append((_decode_signature(entry["signature"]), matches))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotError(f"malformed snapshot entry: {exc}") from exc
    return {
        "plan_entries": plan_cache.import_entries(plan_entries),
        "match_entries": catalog.match_cache.import_entries(match_entries),
    }


def load_snapshot(
    path,
    plan_cache: PlanCache,
    catalog: KernelCatalog,
) -> Dict[str, object]:
    """Load a snapshot into live caches; never raises.

    Returns ``{"loaded": True, "path": ..., "plan_entries": n,
    "match_entries": m}`` on success, or ``{"loaded": False, "reason": ...}``
    for the clean cold-boot fallback.  A simply *absent* snapshot (the
    normal first boot) additionally carries ``"missing": True`` so callers
    -- e.g. the service's structured boot log -- can tell the routine cold
    start from a corrupt or incompatible snapshot.
    """
    if not Path(path).exists():
        return {
            "loaded": False,
            "path": str(path),
            "reason": "no snapshot file",
            "missing": True,
        }
    try:
        state = read_snapshot(path)
        counts = restore_state(state, plan_cache, catalog)
    except SnapshotError as exc:
        return {"loaded": False, "path": str(path), "reason": str(exc)}
    except Exception as exc:  # noqa: BLE001 -- a snapshot must never crash boot
        return {
            "loaded": False,
            "path": str(path),
            "reason": f"{type(exc).__name__}: {exc}",
        }
    result = {"loaded": True, "path": str(path)}
    result.update(counts)
    return result
