"""Lint configuration: paths, per-rule severity, rule allowlists.

Defaults encode this repository's contracts; a ``[tool.simlint]`` table
in ``pyproject.toml`` (or a file passed via ``--config``) can widen or
narrow them::

    [tool.simlint]
    exclude = ["src/repro/vendored/*"]
    wallclock_allow = ["harness/cli.py", "harness/executor.py"]

    [tool.simlint.severity]
    SL006 = "warning"

Path allowlists match by *posix path suffix* so they are stable no
matter which directory the linter is invoked from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.lint.findings import Severity

try:  # tomllib ships with 3.11+; config loading degrades gracefully on 3.10
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "load_config"]

#: files allowed to read the wall clock (host-cost measurement only —
#: never inside the model, where it would break determinism)
DEFAULT_WALLCLOCK_ALLOW = (
    "harness/cli.py",
    # the executor times how long satisfying a plan took (host cost,
    # reported next to cache stats); the timing wraps around the
    # simulations and never feeds into modelled results
    "harness/executor.py",
    # the resilience layer deadlines points and sleeps chaos directives
    # in host time — by construction it wraps around the simulations
    # (a rerun point re-runs the same pure function, same seed)
    "harness/resilience.py",
    # simprof: ALL of the engine's self-profiling clock reads live in
    # this one module — the kernel calls recorder methods, it never
    # touches time.perf_counter itself, and profile wall-times are
    # host-cost telemetry that cannot feed back into modelled results.
    # The rest of obs/ stays SL001-checked.
    "obs/profile.py",
)

#: files allowed to touch ``random`` / ``numpy.random`` directly (the
#: seeded stream factory every other module must inject from)
DEFAULT_RNG_ALLOW = ("sim/randomness.py",)


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    #: fnmatch globs (posix, matched against the file's relative path and
    #: its basename) excluded from linting
    exclude: List[str] = field(default_factory=list)
    #: rule code -> severity override
    severities: Dict[str, Severity] = field(default_factory=dict)
    #: path suffixes where SL001 (wall clock) does not apply
    wallclock_allow: List[str] = field(
        default_factory=lambda: list(DEFAULT_WALLCLOCK_ALLOW)
    )
    #: path suffixes where SL002 (module RNG) does not apply
    rng_allow: List[str] = field(default_factory=lambda: list(DEFAULT_RNG_ALLOW))
    #: when non-empty, only these rule codes run
    select: List[str] = field(default_factory=list)
    #: rule codes disabled for this run (same as severity "off")
    ignore: List[str] = field(default_factory=list)

    def severity_for(self, code: str, default: Severity) -> Severity:
        if self.select and code not in self.select:
            return Severity.OFF
        if code in self.ignore:
            return Severity.OFF
        return self.severities.get(code, default)

    def path_allowed(self, relpath: str, allowlist: List[str]) -> bool:
        """True when ``relpath`` ends with any allowlisted suffix."""
        posix = relpath.replace("\\", "/")
        return any(posix.endswith(suffix) for suffix in allowlist)


def _from_table(table: dict) -> LintConfig:
    cfg = LintConfig()
    if "exclude" in table:
        cfg.exclude = [str(p) for p in table["exclude"]]
    if "wallclock_allow" in table:
        cfg.wallclock_allow = [str(p) for p in table["wallclock_allow"]]
    if "rng_allow" in table:
        cfg.rng_allow = [str(p) for p in table["rng_allow"]]
    for code, sev in table.get("severity", {}).items():
        cfg.severities[str(code).upper()] = Severity.parse(str(sev))
    return cfg


def load_config(path: Optional[str] = None) -> LintConfig:
    """Load ``[tool.simlint]`` from ``path`` (default: ./pyproject.toml).

    A missing file or missing table yields the defaults; a malformed
    table raises ``ValueError`` so CI fails loudly rather than silently
    linting with the wrong rules.
    """
    candidate = path or "pyproject.toml"
    if tomllib is None:  # pragma: no cover - 3.10 fallback
        return LintConfig()
    try:
        with open(candidate, "rb") as fh:
            doc = tomllib.load(fh)
    except FileNotFoundError:
        if path is not None:
            raise ValueError(f"config file not found: {path}") from None
        return LintConfig()
    except tomllib.TOMLDecodeError as err:
        raise ValueError(f"malformed TOML in {candidate}: {err}") from None
    table = doc.get("tool", {}).get("simlint", {})
    if not isinstance(table, dict):
        raise ValueError(f"[tool.simlint] in {candidate} must be a table")
    return _from_table(table)
