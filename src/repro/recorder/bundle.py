"""Diagnostic bundles: the flight recorder's on-disk snapshot format.

A bundle is one directory holding a ``manifest.json`` plus one JSONL
file per recorder stream (events, flushes, metrics, triggers).
It is deliberately self-contained: schema-versioned, shard-stamped,
and pinned to the trigger's ``trace_id``, so a bundle copied off a
machine (or uploaded as a CI artifact) can be analyzed with nothing but
the ``python -m repro postmortem`` CLI.

Stdlib-only — both the recorder (writer) and the postmortem CLI
(reader) sit below the telemetry layer in the import graph.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "BUNDLE_KIND",
    "MANIFEST_NAME",
    "STREAMS",
    "write_bundle",
    "is_bundle",
    "load_bundle",
    "find_bundles",
]

#: Version stamped into every manifest; bump on incompatible change.
BUNDLE_SCHEMA_VERSION = 2

#: Discriminator so foreign JSON directories are rejected early.
BUNDLE_KIND = "repro.recorder.bundle"

MANIFEST_NAME = "manifest.json"

#: The recorder's ring buffers, in manifest order.
STREAMS = ("events", "flushes", "metrics", "triggers")


def write_bundle(
    path: str | Path,
    streams: dict[str, list[dict]],
    *,
    reason: str,
    trace_id: str | None = None,
    shard: str = "",
    recorder_schema_version: int = 1,
    created_s: float | None = None,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write one bundle directory; returns its path.

    ``streams`` maps stream names (a subset of :data:`STREAMS`) to
    record lists; missing streams are written empty so readers never
    special-case absence.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    files: dict[str, str] = {}
    for name in STREAMS:
        records = streams.get(name, [])
        filename = f"{name}.jsonl"
        with (path / filename).open("w") as fh:
            for record in records:
                fh.write(json.dumps(record, default=str) + "\n")
        counts[name] = len(records)
        files[name] = filename
    manifest = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": BUNDLE_KIND,
        "recorder_schema_version": recorder_schema_version,
        "reason": reason,
        "trace_id": trace_id,
        "shard": shard,
        "created_unix": time.time() if created_s is None else float(created_s),
        "counts": counts,
        "streams": files,
    }
    if extra:
        manifest["extra"] = extra
    with (path / MANIFEST_NAME).open("w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    return path


def is_bundle(path: str | Path) -> bool:
    """Does ``path`` look like a bundle directory (manifest of our kind)?"""
    manifest = Path(path) / MANIFEST_NAME
    if not manifest.is_file():
        return False
    try:
        with manifest.open() as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return data.get("kind") == BUNDLE_KIND


def load_bundle(path: str | Path) -> dict[str, Any]:
    """Read one bundle back: ``{"path", "manifest", <stream>: [records]}``.

    Raises ``ValueError`` on a missing/foreign manifest and on a
    schema version newer than this reader understands. A v1 bundle reads
    in the v2 layout.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(f"not a recorder bundle (no {MANIFEST_NAME}): {path}")
    with manifest_path.open() as fh:
        manifest = json.load(fh)
    if manifest.get("kind") != BUNDLE_KIND:
        raise ValueError(f"not a recorder bundle (kind={manifest.get('kind')!r}): {path}")
    version = manifest.get("schema_version", 0)
    if version > BUNDLE_SCHEMA_VERSION:
        raise ValueError(
            f"bundle schema v{version} is newer than this reader "
            f"(v{BUNDLE_SCHEMA_VERSION}): {path}"
        )
    files = manifest.get("streams", {})
    out: dict[str, Any] = {"path": str(path), "manifest": manifest}
    for name in STREAMS:
        out[name] = _read_jsonl(path / files.get(name, f"{name}.jsonl"))
    if version < 2:
        # v1 rang each flush's forensics in a separate "solves" stream:
        # fold them into the flush records (the flush's own fields win)
        flushes = {rec.get("flush_id"): rec for rec in out["flushes"]}
        for rec in _read_jsonl(path / files.get("solves", "solves.jsonl")):
            fid = rec.get("flush_id")
            flushes[fid] = {**rec, **flushes.get(fid, {})}
        out["flushes"] = list(flushes.values())
    return out


def _read_jsonl(path: Path) -> list[dict]:
    """One record per non-blank line; a missing file reads empty."""
    if not path.is_file():
        return []
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def find_bundles(root: str | Path) -> list[Path]:
    """Bundle directories at or directly under ``root``, sorted by name."""
    root = Path(root)
    if is_bundle(root):
        return [root]
    if not root.is_dir():
        return []
    return sorted(child for child in root.iterdir() if is_bundle(child))
