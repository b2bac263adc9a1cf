"""File discovery, the two-pass driver, and suppression accounting."""

from __future__ import annotations

import ast
import fnmatch
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, known_codes
from repro.lint.suppress import ALL_CODES, SuppressionIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.cache import FindingCache

__all__ = ["FileContext", "ProjectIndex", "LintEngine", "lint_paths"]


class FileContext:
    """One parsed source file plus everything rules need to inspect it."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[SyntaxError] = None
        self.suppressions = SuppressionIndex.from_source(source)
        try:
            self.tree = ast.parse(source, filename=relpath)
        except SyntaxError as err:
            self.parse_error = err

    def line_text(self, lineno: int) -> str:
        """The physical source line (1-based); empty when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class ProjectIndex:
    """Cross-file facts gathered in the collect pass, one per run.

    The whole-program rules keep their shared call graph in ``facts``
    (:func:`repro.analysis.facts.graph_for`); single-file rules ignore it.
    """

    def __init__(self) -> None:
        self.facts: Dict[str, object] = {}


class LintEngine:
    """Discover files, run the collect pass, then check every rule."""

    def __init__(self, config: Optional[LintConfig] = None,
                 rules: Optional[Sequence[Rule]] = None):
        self.config = config or LintConfig()
        self.rules = list(rules) if rules is not None else all_rules()

    # -- discovery -----------------------------------------------------------
    def discover(self, paths: Sequence[str]) -> List[Path]:
        """Expand files/directories into a sorted, de-duplicated file list."""
        seen = {}
        for raw in paths:
            p = Path(raw)
            if p.is_dir():
                candidates: Iterable[Path] = sorted(p.rglob("*.py"))
            elif p.is_file():
                candidates = [p]
            else:
                raise FileNotFoundError(f"no such file or directory: {raw}")
            for c in candidates:
                rel = _relpath(c)
                if self._excluded(rel):
                    continue
                seen[rel] = c
        return [seen[rel] for rel in sorted(seen)]

    def _excluded(self, relpath: str) -> bool:
        posix = relpath.replace(os.sep, "/")
        base = posix.rsplit("/", 1)[-1]
        return any(
            fnmatch.fnmatch(posix, pat) or fnmatch.fnmatch(base, pat)
            for pat in self.config.exclude
        )

    # -- the run -------------------------------------------------------------
    def run(
        self,
        paths: Sequence[str],
        targets: Optional[Sequence[str]] = None,
        cache: Optional["FindingCache"] = None,
    ) -> List[Finding]:
        """Lint ``paths``; findings are sorted and suppression-filtered.

        ``targets`` (incremental mode) restricts the *check* pass to the
        named files while the collect pass still covers every discovered
        file, so cross-file rules keep their whole-program facts.  When a
        ``cache`` is given, a target whose mtime/size/configuration
        fingerprint matches the cached entry is served from it without
        re-running the check pass.
        """
        files = self.discover(paths)
        contexts: List[FileContext] = []
        findings: List[Finding] = []
        target_set: Optional[set[str]] = None
        if targets is not None:
            target_set = {_relpath(Path(t)) for t in targets}
        for path in files:
            rel = _relpath(path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                findings.append(Finding(
                    code="SL000", message=f"cannot read file: {err}",
                    path=rel, line=1, severity=Severity.ERROR,
                    rule_name="parse-error",
                ))
                continue
            contexts.append(FileContext(path, rel, source))

        project = ProjectIndex()
        active = [
            (rule, self.config.severity_for(rule.code, rule.default_severity))
            for rule in self.rules
        ]
        for ctx in contexts:
            if ctx.tree is None:
                continue
            for rule, severity in active:
                if severity is not Severity.OFF:
                    rule.collect(ctx, project)

        # a pragma for a registered rule that did not run is out of
        # scope, not stale; one naming an unknown code is always stale
        known = known_codes()
        out_of_scope = known - {
            rule.code for rule, severity in active if severity is not Severity.OFF
        }
        # SL008 is the engine's own check: --select picks rules, not it
        sl008 = (Severity.OFF if "SL008" in self.config.ignore
                 else self.config.severities.get("SL008", Severity.ERROR))
        for ctx in contexts:
            if target_set is not None and ctx.relpath not in target_set:
                continue
            if ctx.parse_error is not None:
                err = ctx.parse_error
                findings.append(Finding(
                    code="SL000", message=f"syntax error: {err.msg}",
                    path=ctx.relpath, line=err.lineno or 1,
                    col=(err.offset or 1) - 1, severity=Severity.ERROR,
                    rule_name="parse-error",
                ))
                continue
            if cache is not None:
                cached = cache.lookup(ctx.path, ctx.relpath)
                if cached is not None:
                    findings.extend(cached)
                    continue
            file_findings: List[Finding] = []
            for rule, severity in active:
                if severity is Severity.OFF:
                    continue
                for finding in rule.check(ctx, project, self.config):
                    # a configured override beats everything; otherwise a
                    # rule may emit individual findings below its default
                    # severity (SL011/SL014 downgrade heuristic cases)
                    if severity is not rule.default_severity:
                        finding.severity = severity
                    if ctx.suppressions.suppresses(finding.code, finding.line):
                        continue
                    file_findings.append(finding)
            if sl008 is not Severity.OFF:
                for sup, stale in ctx.suppressions.unused(out_of_scope):
                    for code in stale:
                        if code == ALL_CODES:
                            label = "all rules"
                        elif code not in known:
                            label = f"{code}, not a known rule code"
                        else:
                            label = code
                        file_findings.append(Finding(
                            code="SL008",
                            message=(
                                f"unused suppression ({label}): nothing "
                                f"to silence on this line"
                            ),
                            path=ctx.relpath, line=sup.line, severity=sl008,
                            rule_name="unused-suppression",
                        ))
            if cache is not None:
                cache.store(ctx.path, ctx.relpath, file_findings)
            findings.extend(file_findings)
        findings.sort(key=Finding.sort_key)
        return findings


def _relpath(path: Path) -> str:
    """Path relative to the working directory when possible (stable,
    clickable in CI logs), absolute otherwise."""
    try:
        return os.path.relpath(path)
    except ValueError:  # pragma: no cover - different drive on windows
        return str(path)


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Convenience: run every registered rule over ``paths``."""
    return LintEngine(config=config).run(paths)
