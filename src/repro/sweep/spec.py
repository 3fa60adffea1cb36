"""Declarative sweep cells and content-addressed digests.

A :class:`CellSpec` names one self-contained experiment run — a
*family* (``openfoam``, ``ddmd``, ``ablation``, ...), a plain-data
parameter dict, and a seed.  Cells are pure data: they pickle across
process boundaries, serialize to JSON, and hash to a stable digest.

The cache key of a cell is ``sha256(code fingerprint, family, params,
seed)`` — the *code fingerprint* covers every ``*.py`` file of the
installed :mod:`repro` package, so editing any source file invalidates
every cached result while re-runs of unchanged code hit the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "CellSpec",
    "SweepSpec",
    "canonical_json",
    "code_fingerprint",
    "result_digest",
]

#: Bump when the digest schema itself changes.
_DIGEST_SCHEMA = "repro-sweep-cell-v1"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def result_digest(payload: Any) -> str:
    """sha256 over the canonical JSON of a cell's result payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """sha256 over every ``*.py`` source file of the repro package.

    Computed once per process.  ``REPRO_SWEEP_CODE_VERSION`` overrides
    it (useful to share a cache across trivially-different checkouts).
    """
    global _CODE_FINGERPRINT
    override = os.environ.get("REPRO_SWEEP_CODE_VERSION", "").strip()
    if override:
        return override
    if _CODE_FINGERPRINT is not None:
        return _CODE_FINGERPRINT
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: (family, params, seed) plus a unique key."""

    key: str
    family: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("cell key must be non-empty")
        # Fail early if params would not survive the JSON round trip the
        # cache relies on.
        canonical_json(self.params)

    def canonical(self) -> str:
        return canonical_json(
            {"family": self.family, "params": self.params, "seed": self.seed}
        )

    def digest(self, code_version: str | None = None) -> str:
        """Content-addressed cache key for this cell."""
        code = code_version if code_version is not None else code_fingerprint()
        payload = f"{_DIGEST_SCHEMA}\n{code}\n{self.canonical()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "family": self.family,
            "seed": self.seed,
            "params": self.params,
        }


class SweepSpec:
    """An ordered collection of cells with unique keys."""

    def __init__(self, cells: Iterable[CellSpec]) -> None:
        self.cells: tuple[CellSpec, ...] = tuple(cells)
        seen: set[str] = set()
        for cell in self.cells:
            if cell.key in seen:
                raise ValueError(f"duplicate cell key {cell.key!r}")
            seen.add(cell.key)

    def subset(self, keys: Iterable[str]) -> "SweepSpec":
        wanted = set(keys)
        unknown = wanted - {c.key for c in self.cells}
        if unknown:
            raise KeyError(f"unknown cell keys: {sorted(unknown)}")
        return SweepSpec(c for c in self.cells if c.key in wanted)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellSpec]:
        return iter(self.cells)

    def __getitem__(self, key: str) -> CellSpec:
        for cell in self.cells:
            if cell.key == key:
                return cell
        raise KeyError(key)
