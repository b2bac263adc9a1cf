"""Command line front end: ``python -m repro.lint [paths...]``.

One engine pass runs every registered rule: the single-file invariants
(SL001–SL010) and the whole-program analyses (SL011–SL014).

Exit codes are stable so CI can gate on them:

=====  ===============================================================
0      no error-severity findings (warnings may exist)
1      at least one error-severity finding
2      usage or configuration problem (bad path, malformed config,
       unknown rule code)
=====  ===============================================================

Incremental mode (``--changed-only`` or explicit file arguments with
``--cache``) is built for pre-commit hooks: the *collect* pass still
covers the whole default tree so the whole-program rules keep their
call graph, but only the selected files are checked, and unchanged
files are served from an mtime+config-hash finding cache.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.cache import DEFAULT_CACHE_PATH, FindingCache, config_fingerprint
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine
from repro.lint.registry import Rule, all_rules, known_codes
from repro.lint.reporters import (
    error_count,
    render_json,
    render_sarif,
    render_text,
)

__all__ = ["main", "changed_python_files"]

#: the tree the collect pass covers in incremental mode
DEFAULT_PATHS = ["src"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: AST invariant and whole-program checker "
                    "for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    parser.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="write a SARIF 2.1.0 report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="TOML file with a [tool.simlint] table (default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml and run with built-in defaults",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (others are off)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES", default=None,
        help="comma-separated rule codes to disable",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="check only files changed vs git HEAD (plus untracked); the "
             "collect pass still covers the full tree",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse per-file findings from the cache for unchanged files "
             "(implied by --changed-only; see --cache-file)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the finding cache even in --changed-only mode",
    )
    parser.add_argument(
        "--cache-file", metavar="PATH", default=DEFAULT_CACHE_PATH,
        help=f"finding cache location (default: {DEFAULT_CACHE_PATH})",
    )
    return parser


def changed_python_files() -> List[str]:
    """Python files changed vs HEAD plus untracked ones, per git."""
    files: List[str] = []
    for args in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            args, capture_output=True, text=True, check=True,
        )
        files.extend(line for line in proc.stdout.splitlines() if line)
    seen = []
    for f in sorted(set(files)):
        if f.endswith(".py") and Path(f).is_file() and f not in seen:
            seen.append(f)
    return seen


def _list_rules(rules: Sequence[Rule]) -> str:
    lines = []
    for rule in rules:
        lines.append(
            f"{rule.code}  {rule.name:<24} [{rule.default_severity.value}] "
            f"{rule.description}"
        )
    return "\n".join(lines)


def _codes(raw: str) -> List[str]:
    return [c.strip().upper() for c in raw.split(",") if c.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        print(_list_rules(rules))
        return 0
    try:
        config = LintConfig() if args.no_config else load_config(args.config)
    except ValueError as err:
        print(f"simlint: config error: {err}", file=sys.stderr)
        return 2
    if args.select:
        config.select = _codes(args.select)
    if args.ignore:
        config.ignore = _codes(args.ignore)
    unknown = sorted(
        {*config.select, *config.ignore, *config.severities} - known_codes()
    )
    if unknown:
        print(
            f"simlint: config error: unknown rule code(s) "
            f"{', '.join(unknown)} (see --list-rules)",
            file=sys.stderr,
        )
        return 2
    engine = LintEngine(config=config, rules=rules)

    targets: Optional[List[str]] = None
    paths = list(args.paths)
    if args.changed_only:
        try:
            targets = changed_python_files()
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"simlint: --changed-only needs git: {err}", file=sys.stderr)
            return 2
        # collect over the default tree; check only the changed files
        paths = DEFAULT_PATHS
        if not targets:
            print("simlint: no changed python files")
            return 0
    elif any(Path(p).is_file() for p in paths) and (args.cache and not args.no_cache):
        # explicit file arguments with caching: same incremental shape
        # (collect over the default tree when it exists — outside the
        # repo, fall back to collecting over just the named files)
        targets = [p for p in paths if Path(p).is_file()]
        if all(Path(d).exists() for d in DEFAULT_PATHS):
            paths = DEFAULT_PATHS

    cache: Optional[FindingCache] = None
    if (args.changed_only or args.cache) and not args.no_cache:
        cache = FindingCache(args.cache_file, config_fingerprint(config, rules))
    try:
        files = engine.discover(paths)
        findings = engine.run(paths, targets=targets, cache=cache)
    except FileNotFoundError as err:
        print(f"simlint: {err}", file=sys.stderr)
        return 2
    if cache is not None:
        cache.save()
    checked = len(targets) if targets is not None else len(files)
    if args.sarif:
        sarif = render_sarif(findings, rules=rules)
        if args.sarif == "-":
            print(sarif)
        else:
            Path(args.sarif).write_text(sarif + "\n", encoding="utf-8")
    if args.json:
        print(render_json(findings, checked))
    elif args.sarif != "-":
        report = render_text(findings, checked)
        if cache is not None and (cache.hits or cache.misses):
            report += (
                f"\nsimlint: cache {cache.hits} hit(s), "
                f"{cache.misses} miss(es)"
            )
        print(report)
    return 1 if error_count(findings) else 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(main())
