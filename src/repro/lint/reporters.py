"""Text, JSON, and SARIF reporters over a finding list."""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "error_count",
    "warning_count",
]

#: bumped when the JSON layout changes, so tooling can detect drift
REPORT_SCHEMA = 1


def error_count(findings: Sequence[Finding]) -> int:
    return sum(1 for f in findings if f.severity is Severity.ERROR)


def warning_count(findings: Sequence[Finding]) -> int:
    return sum(1 for f in findings if f.severity is Severity.WARNING)


def render_text(findings: Sequence[Finding], checked_files: int) -> str:
    """One line per finding plus a summary, grep- and IDE-friendly."""
    lines: List[str] = [f.render() for f in findings]
    errors = error_count(findings)
    warnings = warning_count(findings)
    if errors or warnings:
        lines.append(
            f"simlint: {errors} error(s), {warnings} warning(s) "
            f"in {checked_files} file(s)"
        )
    else:
        lines.append(f"simlint: clean ({checked_files} file(s) checked)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], checked_files: int) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "files_checked": checked_files,
        "errors": error_count(findings),
        "warnings": warning_count(findings),
        "findings": [f.to_json_obj() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


#: finding severity -> SARIF result level
_SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def render_sarif(
    findings: Sequence[Finding],
    rules: Optional[Sequence[Rule]] = None,
) -> str:
    """SARIF 2.1.0 report, consumable by GitHub code scanning.

    ``rules`` populates the driver's rule metadata so annotations show
    the rule name and description, not just the code.  Findings for
    codes without a registered rule (SL000/SL008 engine diagnostics)
    get a metadata stub synthesised from the finding itself.
    """
    rule_meta: dict[str, dict[str, object]] = {}
    for rule in rules or ():
        rule_meta[rule.code] = {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description or rule.name},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(rule.default_severity, "error"),
            },
        }
    for f in findings:
        if f.code not in rule_meta:
            rule_meta[f.code] = {
                "id": f.code,
                "name": f.rule_name or f.code,
                "shortDescription": {"text": f.rule_name or f.code},
            }
    ordered_ids = sorted(rule_meta)
    rule_index = {code: i for i, code in enumerate(ordered_ids)}
    results: list[dict[str, object]] = []
    for f in findings:
        results.append({
            "ruleId": f.code,
            "ruleIndex": rule_index[f.code],
            "level": _SARIF_LEVELS.get(f.severity, "error"),
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(1, f.line),
                        # SARIF columns are 1-based; findings carry 0-based
                        "startColumn": max(1, f.col + 1),
                    },
                },
            }],
        })
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "informationUri": "https://github.com/repro/repro",
                    "rules": [rule_meta[code] for code in ordered_ids],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
