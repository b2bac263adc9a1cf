"""SL005: ``time_probe`` callbacks must be pure observers.

``Simulator.time_probe`` fires while the clock advances, *between*
event executions.  A probe that schedules an event, starts or cancels a
flow, or resizes a link changes the event calendar — modelled results
would then differ with and without sampling attached, which is exactly
the drift CI's ``cmp`` against ``benchmarks/quick_series.json`` treats
as a regression.

The rule finds every function registered as a probe (assignments to a
``.time_probe`` attribute anywhere in the linted tree, including
``functools.partial`` and lambda registrations) and walks its body plus
one level of project-local calls (``self.helper()`` / ``helper()``)
looking for scheduling or flow-network mutation.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex

#: method names that schedule events or mutate the flow network
FORBIDDEN_CALLS = frozenset({
    "schedule",          # Simulator.schedule
    "process",           # Simulator.process (schedules the first step)
    "transfer",          # FlowNetwork.transfer
    "transfer_and_wait",
    "cancel",            # FlowNetwork.cancel / EventHandle.cancel
    "set_capacity",
    "add_link",
    "succeed",           # Signal completion schedules waiter callbacks
    "fail",
})


def _callback_name(value: ast.AST) -> Optional[str]:
    """The function name a ``sim.time_probe = ...`` assignment registers."""
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Call):  # functools.partial(fn, ...)
        func = value.func
        is_partial = (isinstance(func, ast.Name) and func.id == "partial") or (
            isinstance(func, ast.Attribute) and func.attr == "partial"
        )
        if is_partial and value.args:
            return _callback_name(value.args[0])
    return None


def _forbidden_calls(body: List[ast.stmt]) -> List[Tuple[int, str]]:
    """(line, rendered call) for every forbidden call in the statements,
    not descending into nested function definitions."""
    out: List[Tuple[int, str]] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                name = None
                if isinstance(child.func, ast.Attribute):
                    name = child.func.attr
                elif isinstance(child.func, ast.Name):
                    name = child.func.id
                if name in FORBIDDEN_CALLS:
                    out.append((child.lineno, ast.unparse(child.func)))
            walk(child)

    for stmt in body:
        walk(stmt)
    return out


def _local_callees(body: List[ast.stmt]) -> List[str]:
    """Names of project-local helpers the body calls directly:
    ``self.helper(...)`` or bare ``helper(...)``."""
    names: List[str] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                names.append(func.attr)
            elif isinstance(func, ast.Name):
                names.append(func.id)
    return names


@register
class TimeProbeRule(Rule):
    code = "SL005"
    name = "probe-purity"
    description = (
        "functions registered as Simulator.time_probe callbacks must not "
        "schedule events or mutate the flow network (one-level walk)"
    )

    def __init__(self) -> None:
        #: lambda registrations found during collect: (relpath, node)
        self._lambda_sites: List[Tuple[str, ast.Lambda]] = []

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "time_probe"):
                    continue
                value = node.value
                if isinstance(value, ast.Constant) and value.value is None:
                    continue
                if isinstance(value, ast.Lambda):
                    self._lambda_sites.append((ctx.relpath, value))
                    continue
                name = _callback_name(value)
                if name is not None:
                    project.add_probe_callback(
                        name, f"{ctx.relpath}:{node.lineno}"
                    )

    def check(self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig) -> Iterable[Finding]:
        # lambdas registered in this file are checked inline
        for relpath, lam in self._lambda_sites:
            if relpath != ctx.relpath:
                continue
            for line, call in _forbidden_calls([ast.Expr(value=lam.body)]):
                yield self.finding(
                    ctx, lam.lineno, lam.col_offset,
                    f"lambda registered as time_probe calls {call}() "
                    f"(line {line}); probes must never schedule or mutate",
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites = project.probe_callbacks.get(node.name)
            if not sites:
                continue
            registered = ", ".join(sites)
            for line, call in _forbidden_calls(node.body):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"time_probe callback {node.name}() (registered at "
                    f"{registered}) calls {call}() at line {line}; probes "
                    f"must never schedule events or mutate the flow network",
                )
            # one-level call-graph walk through project-local helpers
            for callee in sorted(set(_local_callees(node.body))):
                if callee == node.name:
                    continue
                for def_path, def_node in project.functions.get(callee, ()):
                    for line, call in _forbidden_calls(def_node.body):
                        yield self.finding(
                            ctx, node.lineno, node.col_offset,
                            f"time_probe callback {node.name}() (registered "
                            f"at {registered}) reaches {call}() via "
                            f"{callee}() ({def_path}:{line}); probes must "
                            f"never schedule events or mutate the flow "
                            f"network",
                        )
