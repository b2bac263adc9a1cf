"""simlint: AST-based invariant checker for the repro codebase.

The reproduction's headline claim — modelled bandwidths are bit-identical
run-to-run and with/without observability — rests on coding contracts
that ``pytest`` cannot enforce: no wall clock inside the model, no
unseeded randomness, instrumentation dormant behind a single
``is not None`` check, observation code that never mutates simulation
state, and unit discipline via :mod:`repro.units`.  This package
machine-checks those contracts on every PR, every rule in one pass::

    python -m repro.lint src tools examples
    python -m repro.lint --json src            # machine-readable output

Rules (see ``docs/LINTING.md`` and ``docs/ANALYSIS.md`` for rationale
and examples):

========  ================================================================
SL001     no wall-clock reads outside the harness allowlist
SL002     no ``random``/``numpy.random`` module RNG outside the seeded
          stream factory (``repro.sim.randomness``)
SL003     no float ``==``/``!=`` without ``math.isclose`` or an
          ``# exact:`` justification comment
SL004     obs-dormancy: attribute access on an ``obs``-named binding must
          be dominated by an ``is not None`` guard
SL006     broad ``except Exception`` without re-raise or justification
SL007     mutable default arguments
SL009     ``except DataLossError`` whose body neither records the loss
          nor re-raises
SL010     ``ledger.op(...)`` contexts must be closed (``with`` or
          ``try/finally``)
SL011     observation code (``obs/``, ``time_probe``/``on_transfer``
          callbacks) is transitively read-only over simulation state;
          covers the retired SL005
SL012     host wall-clock/RNG values never flow into modelled state
SL013     RNG streams seeded from the content hash, stream names unique
SL014     unit-dimension consistency of model arithmetic
SL000     file could not be parsed (reported, never crashes the run)
SL008     unused ``# simlint: disable`` suppression, or one naming an
          unknown code
========  ================================================================

SL011–SL014 are whole-program rules: they live in
:mod:`repro.analysis` and share one call graph per run.

Suppress a finding in place with a trailing comment on the flagged line::

    risky_call()  # simlint: disable=SL006 -- justification here

Suppressions that silence nothing are themselves reported (SL008) so
stale pragmas cannot accumulate.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine, lint_paths
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, get_rule, register
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "load_config",
    "LintEngine",
    "lint_paths",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "render_text",
    "render_json",
    "main",
]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.lint``)."""
    from repro.lint.cli import main as cli_main

    return cli_main(argv)
