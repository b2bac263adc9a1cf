"""Content-addressed on-disk cache of executed experiment points.

A point's result is a pure function of ``(spec, reps, base_seed)`` under
a given model version (see the seeding scheme in
:mod:`repro.harness.experiment`), which makes it safely cacheable: the
cache key is the SHA-256 of the canonical :func:`spec_token` plus the
repetition count and base seed, so *any* change to any spec field lands
in a different entry ("content-addressed" — there is nothing to
invalidate by name, stale keys simply stop being asked for).

Entries are JSON files under ``root/<key[:2]>/<key>.json``.  Each
payload records :data:`~repro.harness.experiment.MODEL_VERSION` (the
simulation semantics) and :data:`RESULT_SCHEMA` (this file layout);
a version mismatch on load counts as an **invalidation** — the entry is
deleted and re-executed — so upgrading the model never serves stale
numbers.  Floats survive the JSON round-trip exactly (Python emits
shortest-round-trip ``repr``), which is what lets a warm-cache figure
build be byte-identical to a cold one.

Hit/miss/invalidation counts accumulate in :class:`CacheStats` and are
surfaced by the CLI and the executor's reports.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigError
from repro.harness.experiment import (
    MODEL_VERSION,
    PointResult,
    PointSpec,
    spec_token,
)

__all__ = ["CacheStats", "ResultCache", "RESULT_SCHEMA", "point_key"]

#: layout version of the cached-result JSON payload
#: 2: added spec.faults + write/read_windows + lost_ops (fault runs)
#: 3: spec stores every PointSpec field (2 dropped spec.cohort)
RESULT_SCHEMA = 3


def point_key(spec: PointSpec, reps: int, base_seed: int = 0) -> str:
    """Content hash addressing one executed point."""
    payload = f"{spec_token(spec)}|reps={reps}|base={base_seed}".encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class CacheStats:
    """Accounting for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    stored: int = 0
    #: subset of ``invalidated`` that was unreadable/corrupt on disk
    #: (truncated, garbage, half-written) rather than version-stale
    corrupt_discarded: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        corrupt = (
            f", {self.corrupt_discarded} corrupt discarded"
            if self.corrupt_discarded
            else ""
        )
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.invalidated} invalidated{corrupt} "
            f"({self.hit_rate:.1%} hit rate)"
        )


class ResultCache:
    """Directory-backed store of :class:`PointResult`\\ s.

    ``model_version`` defaults to the library's
    :data:`~repro.harness.experiment.MODEL_VERSION`; passing another
    value is how tests exercise version invalidation.
    """

    def __init__(
        self,
        root: Union[str, Path],
        model_version: str = MODEL_VERSION,
    ) -> None:
        self.root = Path(root)
        self.model_version = model_version
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- serialisation -------------------------------------------------------
    @staticmethod
    def _encode(result: PointResult) -> Dict[str, Any]:
        # every field, so a field added to PointSpec cannot be dropped
        spec = {f.name: getattr(result.spec, f.name) for f in fields(PointSpec)}
        spec["extra"] = [list(item) for item in result.spec.extra]
        return {
            "spec": spec,
            "write_bw": list(result.write_bw),
            "read_bw": list(result.read_bw),
            "write_iops": list(result.write_iops),
            "read_iops": list(result.read_iops),
            "reps": result.reps,
            "write_windows": [list(w) for w in result.write_windows],
            "read_windows": [list(w) for w in result.read_windows],
            "lost_ops": list(result.lost_ops),
        }

    @staticmethod
    def _decode(doc: Dict[str, Any]) -> PointResult:
        raw = dict(doc["spec"])
        raw["extra"] = tuple((str(k), v) for k, v in raw["extra"])
        spec = PointSpec(**raw)
        return PointResult(
            spec=spec,
            write_bw=(doc["write_bw"][0], doc["write_bw"][1]),
            read_bw=(doc["read_bw"][0], doc["read_bw"][1]),
            write_iops=(doc["write_iops"][0], doc["write_iops"][1]),
            read_iops=(doc["read_iops"][0], doc["read_iops"][1]),
            reps=int(doc["reps"]),
            write_windows=tuple(
                (w[0], w[1], w[2]) for w in doc["write_windows"]
            ),
            read_windows=tuple(
                (w[0], w[1], w[2]) for w in doc["read_windows"]
            ),
            lost_ops=(doc["lost_ops"][0], doc["lost_ops"][1]),
        )

    # -- lookup/store --------------------------------------------------------
    def get(
        self, spec: PointSpec, reps: int, base_seed: int = 0
    ) -> Optional[PointResult]:
        """The cached result, or ``None`` (counted as hit / miss /
        invalidation; invalidated and corrupt entries are deleted)."""
        path = self.path_for(point_key(spec, reps, base_seed))
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"cache entry is a JSON {type(doc).__name__}")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            # unreadable/corrupt entry (truncated write, garbage bytes,
            # valid JSON that is not an object): drop it and re-execute.
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            # (binary garbage) too.
            self.stats.invalidated += 1
            self.stats.corrupt_discarded += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        if (
            doc.get("model_version") != self.model_version
            or doc.get("result_schema") != RESULT_SCHEMA
        ):
            self.stats.invalidated += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        try:
            result = self._decode(doc)
        except (KeyError, TypeError, ValueError, IndexError, ConfigError):
            # parses as JSON but the payload is mangled (half-written or
            # hand-edited): corrupt, not merely version-stale
            self.stats.invalidated += 1
            self.stats.corrupt_discarded += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        return result

    def put(
        self, result: PointResult, base_seed: int = 0
    ) -> None:
        """Store one executed result (atomic rename, so a crashed run
        never leaves a half-written entry behind)."""
        key = point_key(result.spec, result.reps, base_seed)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self._encode(result)
        doc["model_version"] = self.model_version
        doc["result_schema"] = RESULT_SCHEMA
        doc["key"] = key
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self.stats.stored += 1

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # already gone or unwritable: treated as a miss
            pass

    def __len__(self) -> int:
        """Number of entries on disk (walks the tree; for tests/reports)."""
        return sum(1 for _ in self.root.glob("*/*.json"))
