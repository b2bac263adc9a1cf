"""Per-file finding cache for fast incremental lint runs.

Pre-commit hooks re-lint the same files dozens of times a day; most
invocations see an unchanged tree.  The cache keys each file's findings
by ``(mtime_ns, size)`` plus a *configuration fingerprint* — a hash of
the resolved :class:`~repro.lint.config.LintConfig` and the codes of the
rules that ran — so editing the file, touching ``pyproject.toml``
options, or switching rule sets (``--select``/``--ignore``) each
invalidate exactly what they should.

The cache holds *post-suppression* findings: a hit replays precisely
what a fresh check pass of that file would have produced.  Corrupt or
schema-mismatched cache files are discarded wholesale, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule

__all__ = ["FindingCache", "config_fingerprint", "DEFAULT_CACHE_PATH"]

#: bumped whenever the entry layout changes
CACHE_SCHEMA = 1

#: default on-disk location, relative to the invocation directory
DEFAULT_CACHE_PATH = ".simlint-cache.json"


def config_fingerprint(config: LintConfig, rules: Sequence[Rule]) -> str:
    """Stable hash of everything that affects a file's findings besides
    the file's own content."""
    payload = repr((
        CACHE_SCHEMA,
        sorted(config.exclude),
        sorted((c, s.value) for c, s in config.severities.items()),
        sorted(config.wallclock_allow),
        sorted(config.rng_allow),
        sorted(config.select),
        sorted(config.ignore),
        sorted(rule.code for rule in rules),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _finding_to_obj(f: Finding) -> Dict[str, object]:
    obj = f.to_json_obj()
    return obj


def _finding_from_obj(obj: Dict[str, object]) -> Finding:
    return Finding(
        code=str(obj["code"]),
        message=str(obj["message"]),
        path=str(obj["path"]),
        line=int(obj["line"]),  # type: ignore[call-overload]
        col=int(obj["col"]),  # type: ignore[call-overload]
        severity=Severity.parse(str(obj["severity"])),
        rule_name=str(obj.get("rule", "")),
    )


class FindingCache:
    """mtime+size+config-hash keyed findings, persisted as one JSON file."""

    def __init__(self, path: str, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self._load()

    # -- persistence -------------------------------------------------------
    def _load(self) -> None:
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            return
        if doc.get("fingerprint") != self.fingerprint:
            return  # config or rule set changed: every entry is stale
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    def save(self) -> None:
        """Write back atomically; a no-op when nothing changed."""
        if not self._dirty:
            return
        doc = {
            "schema": CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "entries": self._entries,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False

    # -- lookup/store ------------------------------------------------------
    def _stat_key(self, path: Path) -> Optional[List[int]]:
        try:
            st = path.stat()
        except OSError:
            return None
        return [st.st_mtime_ns, st.st_size]

    def lookup(self, path: Path, relpath: str) -> Optional[List[Finding]]:
        """Cached findings for ``relpath``, or None on any mismatch."""
        entry = self._entries.get(relpath)
        stat = self._stat_key(path)
        if entry is None or stat is None or entry.get("stat") != stat:
            self.misses += 1
            return None
        raw = entry.get("findings")
        if not isinstance(raw, list):
            self.misses += 1
            return None
        try:
            findings = [_finding_from_obj(obj) for obj in raw]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def store(self, path: Path, relpath: str, findings: Sequence[Finding]) -> None:
        stat = self._stat_key(path)
        if stat is None:
            return
        self._entries[relpath] = {
            "stat": stat,
            "findings": [_finding_to_obj(f) for f in findings],
        }
        self._dirty = True
