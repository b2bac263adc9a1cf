"""SL012: host wall-clock/RNG values never flow into modelled state.

SL001/SL002 forbid wall-clock and ambient-RNG *calls* outside a small
allowlist (the CLI and executors time themselves; the profiler reads
``perf_counter``).  That is necessary but not sufficient: an allowlisted
file could read the host clock legally and then pass the value into the
model — as a seed, a latency parameter, a capacity — which couples
modelled output to the machine just as surely as a direct call would.

This rule runs the whole-program taint fixpoint from
:class:`repro.analysis.effects.TaintAnalysis`: every wall-clock or
ambient-RNG call *inside an allowlisted file* is a source; taint flows
through local assignments, function returns, and class attributes; a
finding fires where a tainted value is stored into a modelled-class
attribute, passed as an argument into modelled-package code, or
returned from a modelled-package function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.analysis.facts import graph_for, taint_for
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex


@register
class DeterminismTaintRule(Rule):
    code = "SL012"
    name = "no-host-taint"
    description = (
        "wall-clock/ambient-RNG values read in allowlisted files must "
        "not flow into modelled state, arguments, or seeds"
    )

    def check(
        self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig
    ) -> Iterable[Finding]:
        graph = graph_for(project)
        analysis = taint_for(graph, config)
        findings: List[Finding] = []
        for sink in analysis.sinks:
            if sink.relpath != ctx.relpath:
                continue
            findings.append(Finding(
                code=self.code,
                message=(
                    f"{sink.detail}; host-derived ({sink.source_hint}) "
                    f"values must stay in the harness/observability layer"
                ),
                path=sink.relpath, line=sink.line,
                severity=self.default_severity, rule_name=self.name,
            ))
        return findings

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        if ctx.tree is not None:
            graph_for(project).add_module_once(ctx.relpath, ctx.tree)
