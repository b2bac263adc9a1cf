"""Rule base class and the global rule registry.

A rule declares a code (``SL00x``), a short name, and a default
severity, and implements ``check`` over a parsed file.  Rules that need
cross-file knowledge (the whole-program SL011–SL014) additionally
implement ``collect``, which the engine runs over *every* file before any
``check`` call — a classic two-pass design so single-file rules stay
trivially simple while call-graph rules see the whole project.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Type

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.config import LintConfig
    from repro.lint.engine import FileContext, ProjectIndex

__all__ = ["Rule", "register", "all_rules", "get_rule", "known_codes"]

#: codes the engine itself emits: unreadable/unparseable file, unused
#: suppression
ENGINE_CODES = frozenset({"SL000", "SL008"})


class Rule:
    """One invariant check.  Subclasses are registered via :func:`register`."""

    code: str = "SL000"
    name: str = "unnamed"
    description: str = ""
    default_severity: Severity = Severity.ERROR

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        """First pass: contribute cross-file facts (optional)."""

    def check(
        self, ctx: "FileContext", project: "ProjectIndex", config: "LintConfig"
    ) -> Iterable[Finding]:
        """Second pass: yield findings for one file."""
        return ()

    def finding(
        self, ctx: "FileContext", line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=ctx.relpath,
            line=line,
            col=col,
            severity=self.default_severity,
            rule_name=self.name,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code or cls.code in _REGISTRY:
        raise ValueError(f"duplicate or empty rule code: {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule exactly
    # once; deferred so `import repro.lint.registry` stays cycle-free.
    import repro.lint.rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def known_codes() -> FrozenSet[str]:
    """Every code a finding can carry: the registry plus the engine's."""
    _ensure_loaded()
    return ENGINE_CODES | frozenset(_REGISTRY)


def get_rule(code: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[code.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r}; known: {sorted(_REGISTRY)}"
        ) from None
