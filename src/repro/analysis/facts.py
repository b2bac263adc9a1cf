"""Shared whole-program fact store for the SL011–SL014 rules.

All four whole-program rules consume the same :class:`ProjectGraph`.
The engine gives rules one shared mutable object per run — the
``ProjectIndex`` — so the graph hangs off its ``facts``: every rule's
collect pass feeds the same graph (idempotently, via
``add_module_once``), and the first rule to need an analysis result
builds it into ``graph.memo`` where the others find it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.callgraph import ProjectGraph
from repro.analysis.effects import EffectAnalysis, TaintAnalysis
from repro.lint.config import LintConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ProjectIndex

__all__ = ["graph_for", "effects_for", "taint_for"]


def graph_for(project: "ProjectIndex") -> ProjectGraph:
    """The per-run ProjectGraph, created on first use."""
    graph = project.facts.get("graph")
    if not isinstance(graph, ProjectGraph):
        graph = ProjectGraph()
        project.facts["graph"] = graph
    return graph


def effects_for(graph: ProjectGraph) -> EffectAnalysis:
    analysis = graph.memo.get("effects")
    if not isinstance(analysis, EffectAnalysis):
        graph.resolve()
        analysis = EffectAnalysis(graph)
        graph.memo["effects"] = analysis
    return analysis


def taint_for(graph: ProjectGraph, config: LintConfig) -> TaintAnalysis:
    analysis = graph.memo.get("taint")
    if not isinstance(analysis, TaintAnalysis):
        graph.resolve()
        analysis = TaintAnalysis(graph, config)
        graph.memo["taint"] = analysis
    return analysis
