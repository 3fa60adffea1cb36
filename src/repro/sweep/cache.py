"""Content-addressed result cache: the sweep's record of finished cells.

Keyed on :meth:`CellSpec.digest` — a sha256 over (code fingerprint,
family, params, seed) — so a cache hit is only possible when the exact
code ran the exact cell.  Records are whole JSON files written through
:func:`atomic_write_json` (temp file in the destination directory,
``fsync``, ``os.replace``), so a ``SIGKILL`` at any instant leaves
either no record or a whole one: the set of records on disk is exactly
the set of completed cells.  A record that fails to parse (e.g.
produced by a non-atomic writer that got killed) is treated as a miss
and recomputed, never an error.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["ResultCache", "atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (temp file + rename).

    A reader, or a run killed half-way through the write, sees either
    the old content or the new content, never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: str | Path, obj: Any, indent: int | None = 2) -> Path:
    """Atomically write ``obj`` as JSON (trailing newline included)."""
    return atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")


class ResultCache:
    """Digest-addressed store of completed cell records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """Load a record, or None on miss/corruption."""
        path = self.path(digest)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def put(self, digest: str, record: dict) -> Path:
        record = dict(record)
        record["digest"] = digest
        return atomic_write_json(self.path(digest), record, indent=None)

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None
