"""Inline suppression comments: ``# simlint: disable=SL001[,SL002] ...``.

A suppression silences matching findings *on its own physical line* (the
line the finding anchors to — for multi-line statements that is the
statement's first line).  ``# simlint: disable`` with no codes silences
every rule on that line.  Text after the code list is free-form
justification and is encouraged::

    except Exception:  # simlint: disable=SL006 -- best-effort cleanup

Suppressions that silence nothing are reported as SL008 so stale pragmas
are removed rather than accumulating; an SL008 finding can never be
silenced by the suppression it is about.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

__all__ = ["Suppression", "SuppressionIndex", "ALL_CODES"]

#: sentinel meaning "every rule" (bare ``# simlint: disable``)
ALL_CODES = "*"

_PRAGMA = re.compile(
    r"#\s*simlint:\s*(?P<verb>disable)\s*(?:=\s*(?P<codes>[A-Za-z0-9_,\s]+?))?\s*(?:--|—|$)"
)


class Suppression:
    """One pragma comment: the line it covers and the codes it silences.

    Usage is tracked *per code*: in a comma-separated multi-rule pragma
    (``# simlint: disable=SL003,SL014``) each code earns its keep
    independently, so a stale code is reported by SL008 even when its
    neighbours still silence findings on the line.
    """

    __slots__ = ("line", "codes", "used")

    def __init__(self, line: int, codes: Set[str]) -> None:
        self.line = line
        self.codes = codes  # {"SL001", ...} or {ALL_CODES}
        self.used: Set[str] = set()  # codes that actually silenced a finding

    def matches(self, code: str) -> bool:
        return ALL_CODES in self.codes or code in self.codes

    def unused_codes(self, out_of_scope: AbstractSet[str] = frozenset()) -> List[str]:
        """Codes this pragma names that silenced nothing, except those
        ``out_of_scope`` (registered rules that did not run).  A bare
        ``disable`` pragma reports as ``[ALL_CODES]`` when wholly unused.
        """
        if ALL_CODES in self.codes:
            return [] if self.used else [ALL_CODES]
        return sorted(self.codes - self.used - out_of_scope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Suppression line={self.line} codes={sorted(self.codes)}>"


class SuppressionIndex:
    """All pragmas in one file, with used/unused tracking."""

    def __init__(self, suppressions: Dict[int, Suppression]) -> None:
        self._by_line = suppressions

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Scan comments via :mod:`tokenize` (never fooled by strings)."""
        pragmas: Dict[int, Suppression] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                parsed = parse_pragma(tok.string)
                if parsed is not None:
                    pragmas[tok.start[0]] = Suppression(tok.start[0], parsed)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # unparseable files are reported as SL000 by the engine;
            # suppression scanning just degrades to "none found"
            return cls({})
        return cls(pragmas)

    def suppresses(self, code: str, line: int) -> bool:
        """True (and marks the matched code used) when ``code`` at
        ``line`` is silenced.  SL008 is exempt: a pragma cannot silence
        the report of its own staleness."""
        if code == "SL008":
            return False
        sup = self._by_line.get(line)
        if sup is not None and sup.matches(code):
            sup.used.add(code)
            return True
        return False

    def unused(self, out_of_scope: AbstractSet[str] = frozenset()) -> List[Tuple[Suppression, List[str]]]:
        """``(pragma, stale codes)`` for every pragma naming at least one
        code that silenced nothing.  A code in ``out_of_scope`` -- a
        registered rule that did not run -- is not stale, it was simply
        out of scope for this run; an unknown code always is."""
        out: List[Tuple[Suppression, List[str]]] = []
        for sup in self._by_line.values():
            stale = sup.unused_codes(out_of_scope)
            if stale:
                out.append((sup, stale))
        return out

    def __len__(self) -> int:
        return len(self._by_line)


def parse_pragma(comment: str) -> Optional[Set[str]]:
    """Extract the code set from a comment, or None if it is not a
    simlint pragma.  Returns ``{ALL_CODES}`` for a bare disable."""
    m = _PRAGMA.search(comment)
    if m is None:
        return None
    raw = m.group("codes")
    if raw is None or not raw.strip():
        return {ALL_CODES}
    return {part.strip().upper() for part in raw.split(",") if part.strip()}
