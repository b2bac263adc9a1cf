"""SL001: no wall-clock reads inside the model.

The simulator's clock is ``Simulator.now``; results must be a pure
function of (configuration, seed).  Any ``time.time()`` or
``datetime.now()`` inside the model layers couples modelled output to
the host, which breaks the bit-identical-reruns contract that CI
enforces by ``cmp``-ing the quick suite's series against
``benchmarks/quick_series.json``.  Host-cost measurement is legal
only in the allowlisted harness files (``wallclock_allow``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.astutil import WALLCLOCK_CALLS, ImportMap, resolve_call_name
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex


@register
class WallClockRule(Rule):
    code = "SL001"
    name = "no-wall-clock"
    description = (
        "wall-clock reads (time.time/perf_counter/datetime.now) are "
        "forbidden outside the harness allowlist"
    )

    def check(self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig) -> Iterable[Finding]:
        if config.path_allowed(ctx.relpath, config.wallclock_allow):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = resolve_call_name(node.func, imports)
            if full in WALLCLOCK_CALLS:
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"wall-clock read {full}() outside the allowlist; "
                    f"model code must use simulated time (Simulator.now)",
                )
