"""SL011: observation code is transitively read-only w.r.t. sim state.

The bit-identical-with-observability-off contract (ROADMAP tier-1)
holds only if nothing under ``obs/`` — and no callback registered on
``time_probe``/``on_transfer`` — can mutate simulation state through
*any* chain of calls.  This rule takes the transitive closure over the
whole-program call graph, so a probe callback that calls a helper that
calls ``net.set_capacity`` is caught even though no single file shows
the violation.  A mutator-named call (``schedule``, ``transfer``,
``cancel``, ...) counts even when its receiver's type is unknown, so
``self.sim.schedule(...)`` two helpers deep is caught too.

Sanctioned observation channels (``sim.metrics = ...``,
``flow.done._subscribe(...)``, ``net.on_transfer.append(...)``) are
writes by AST shape but attachment by contract; they are excluded.
Dynamic dispatch the graph cannot resolve — ``getattr(obj, name)(...)``
or calls routed through a ``__getattr__`` class — reachable from
observation code yields a *warning*: the closure is blind there, and a
human must vouch for the path (or refactor it to be resolvable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, ProjectGraph
from repro.analysis.facts import effects_for, graph_for
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex


def _chain_text(chain: Tuple[str, ...]) -> str:
    return " -> ".join(q.rsplit(".", 2)[-1] if q.count(".") > 2 else q
                       for q in chain)


@register
class ReadOnlyObservationRule(Rule):
    code = "SL011"
    name = "obs-read-only"
    description = (
        "observation code (obs/ and probe/transfer callbacks) must be "
        "transitively read-only over simulation state"
    )

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        if ctx.tree is not None:
            graph_for(project).add_module_once(ctx.relpath, ctx.tree)

    def check(
        self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig
    ) -> Iterable[Finding]:
        findings = self._project_findings(project)
        return [f for f in findings if f.path == ctx.relpath]

    def _project_findings(self, project: "ProjectIndex") -> List[Finding]:
        graph = graph_for(project)
        cached = graph.memo.get("sl011")
        if isinstance(cached, list):
            return cached
        effects = effects_for(graph)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str]] = set()
        warned: Set[Tuple[str, int]] = set()
        for entry in self._entry_points(graph):
            line = getattr(entry.node, "lineno", 1)
            for effect, chain in effects.reachable_effects(entry.qualname):
                if effect.sanctioned:
                    continue
                key = (entry.qualname, effect.detail)
                if key in seen:
                    continue
                seen.add(key)
                verb = ("writes sim state" if effect.kind == "write"
                        else "calls sim-state mutator")
                via = (f" via {_chain_text(chain)}" if len(chain) > 1 else "")
                findings.append(Finding(
                    code=self.code,
                    message=(
                        f"observation code {_chain_text((entry.qualname,))} "
                        f"{verb} {effect.detail} "
                        f"({effect.relpath}:{effect.line}){via}; obs must "
                        f"be read-only over simulation state"
                    ),
                    path=entry.relpath, line=line,
                    severity=self.default_severity, rule_name=self.name,
                ))
            for site, chain in effects.dynamic_calls_reachable(entry.qualname):
                wkey = (entry.qualname, site.node.lineno)
                if wkey in warned:
                    continue
                warned.add(wkey)
                findings.append(Finding(
                    code=self.code,
                    message=(
                        f"observation code reaches dynamic call "
                        f"{site.callee_repr} (line {site.node.lineno}) via "
                        f"{_chain_text(chain)}; the read-only closure "
                        f"cannot see through it — refactor to a static "
                        f"call or suppress with justification"
                    ),
                    path=entry.relpath, line=line,
                    severity=Severity.WARNING, rule_name=self.name,
                ))
        graph.memo["sl011"] = findings
        return findings

    @staticmethod
    def _entry_points(graph: ProjectGraph) -> List[FunctionInfo]:
        entries = {
            info.qualname: info
            for info in graph.functions.values()
            if info.role == "obs"
        }
        for info in graph.callback_functions():
            entries.setdefault(info.qualname, info)
        return [entries[q] for q in sorted(entries)]
