"""SL013: RNG stream discipline — content-hash seeds, unique names.

Replayability rests on two conventions around
:class:`repro.sim.randomness.RngStreams`:

1. **Seed provenance.**  Every ``RngStreams(...)`` construction outside
   ``sim/randomness.py`` must be seeded from the content-hash scheme —
   a ``point_seed(...)``/``stable_hash64(...)`` call, or a value that
   provably traces back to one through local assignments and function
   parameters (the checker follows call sites interprocedurally).  A
   literal seed, or one whose provenance cannot be traced, silently
   de-correlates repetitions or couples them across points.

2. **Stream-name uniqueness.**  ``rng.stream(name)`` returns the *same*
   generator for the same name, so two components sharing a name drain
   one another's streams — adding a draw in one perturbs the other,
   which is exactly the cross-component coupling named streams exist to
   prevent.  Names are compared as *templates* (f-string holes
   normalised to ``{}``), so ``f"lustre.{node.name}.op-jitter"`` and
   ``f"rados.{node.name}.op-jitter"`` are distinct, but two different
   classes both using ``f"{self.name}.op-jitter"`` collide.

Parameters with no discoverable call sites are treated optimistically
(a public constructor's seed default cannot be judged from here); the
rule errs on false negatives, never on false positives, matching the
other whole-program rules.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import FunctionInfo, ProjectGraph, dotted
from repro.analysis.facts import graph_for
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex

#: calls that are, by definition, content-hash seed derivations
SEED_FUNCTIONS = frozenset({"point_seed", "stable_hash64"})

#: the one module allowed to construct RngStreams however it likes
#: (it *implements* the child-derivation scheme)
RANDOMNESS_HOME = ("sim/randomness.py",)


def _name_template(expr: ast.AST) -> Optional[str]:
    """Stream-name template: constants verbatim, f-string holes as {}."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts: List[str] = []
        for piece in expr.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("{}")
        return "".join(parts)
    return None


class _SiteVisitor(ast.NodeVisitor):
    """Find RngStreams constructions and .stream/.child calls, with the
    enclosing component (class > function > module) for each."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.cls_stack: List[str] = []
        self.fn_stack: List[str] = []
        #: (call node, seed expr or None, enclosing function qual or None)
        self.constructions: List[Tuple[ast.Call, Optional[ast.AST], Optional[str]]] = []
        #: (template, component, line)
        self.stream_names: List[Tuple[str, str, int]] = []

    def _component(self) -> str:
        if self.cls_stack:
            return self.cls_stack[-1]
        if self.fn_stack:
            return self.fn_stack[-1]
        return self.module

    def _enclosing_function(self) -> Optional[str]:
        return self.fn_stack[-1] if self.fn_stack else None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prefix = self.cls_stack[-1] if self.cls_stack else self.module
        self.cls_stack.append(f"{prefix}.{node.name}")
        self.generic_visit(node)
        self.cls_stack.pop()

    def _visit_function(self, node: ast.AST, name: str) -> None:
        if self.fn_stack:
            qual = f"{self.fn_stack[-1]}.<locals>.{name}"
        elif self.cls_stack:
            qual = f"{self.cls_stack[-1]}.{name}"
        else:
            qual = f"{self.module}.{name}"
        self.fn_stack.append(qual)
        self.generic_visit(node)
        self.fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted(node.func)
        if chain is not None and chain.rsplit(".", 1)[-1] == "RngStreams":
            seed: Optional[ast.AST] = None
            for kw in node.keywords:
                if kw.arg == "seed":
                    seed = kw.value
            if seed is None and node.args:
                seed = node.args[0]
            self.constructions.append((node, seed, self._enclosing_function()))
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("stream", "child"):
            arg = node.args[0] if node.args else None
            if arg is not None:
                template = _name_template(arg)
                if template is not None:
                    self.stream_names.append(
                        (template, self._component(), node.lineno)
                    )
        self.generic_visit(node)


@register
class StreamDisciplineRule(Rule):
    code = "SL013"
    name = "rng-stream-discipline"
    description = (
        "RngStreams must be seeded from the point_seed/stable_hash64 "
        "content-hash scheme, and no two components may share a stream name"
    )

    def __init__(self) -> None:
        #: relpath -> visitor results, gathered in the collect pass
        self._sites: Dict[str, _SiteVisitor] = {}
        self._safe_memo: Dict[Tuple[str, str], bool] = {}

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        if ctx.tree is None:
            return
        graph = graph_for(project)
        graph.add_module_once(ctx.relpath, ctx.tree)
        from repro.analysis.callgraph import module_name_for

        visitor = _SiteVisitor(module_name_for(ctx.relpath))
        visitor.visit(ctx.tree)
        self._sites[ctx.relpath] = visitor

    def check(
        self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig
    ) -> Iterable[Finding]:
        graph = graph_for(project)
        graph.resolve()
        visitor = self._sites.get(ctx.relpath)
        if visitor is None:
            return []
        findings: List[Finding] = []
        if not config.path_allowed(ctx.relpath, list(RANDOMNESS_HOME)):
            for node, seed, fn_qual in visitor.constructions:
                findings.extend(
                    self._check_seed(ctx, graph, node, seed, fn_qual)
                )
        findings.extend(self._check_names(ctx, visitor))
        return findings

    # -- seed provenance -----------------------------------------------------
    def _check_seed(
        self,
        ctx: "FileContext",
        graph: ProjectGraph,
        node: ast.Call,
        seed: Optional[ast.AST],
        fn_qual: Optional[str],
    ) -> List[Finding]:
        if seed is None:
            return [self.finding(
                ctx, node.lineno, node.col_offset,
                "RngStreams constructed without an explicit seed; derive "
                "it from point_seed()/stable_hash64()",
            )]
        info = graph.functions.get(fn_qual) if fn_qual else None
        if self._seed_safe(graph, info, seed, depth=0):
            return []
        return [self.finding(
            ctx, node.lineno, node.col_offset,
            f"RngStreams seed {ast.unparse(seed)!r} does not trace back "
            f"to the point_seed()/stable_hash64() content-hash scheme; "
            f"literal or untraceable seeds break replay correlation",
        )]

    def _seed_safe(
        self,
        graph: ProjectGraph,
        info: Optional[FunctionInfo],
        expr: ast.AST,
        depth: int,
    ) -> bool:
        if depth > 6:
            return False
        # any descendant call to a content-hash derivation makes it safe
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                chain = dotted(node.func)
                if chain is not None and chain.rsplit(".", 1)[-1] in SEED_FUNCTIONS:
                    return True
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name) and info is not None:
            assigned = graph._local_assignment(info, expr.id)
            if assigned is not None:
                return self._seed_safe(graph, info, assigned, depth + 1)
            if self._is_parameter(info, expr.id):
                return self._param_safe(graph, info, expr.id, depth)
        return False

    @staticmethod
    def _is_parameter(info: FunctionInfo, name: str) -> bool:
        node = info.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        args = node.args
        return any(
            a.arg == name
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )

    def _param_safe(
        self, graph: ProjectGraph, info: FunctionInfo, param: str, depth: int
    ) -> bool:
        """True when every discoverable call site passes a safe value for
        ``param`` (optimistic when no call site is visible)."""
        key = (info.qualname, param)
        if key in self._safe_memo:
            return self._safe_memo[key]
        self._safe_memo[key] = True  # break recursion optimistically
        node = info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        positional = [
            a.arg for a in list(node.args.posonlyargs) + list(node.args.args)
        ]
        if positional and info.class_qualname is not None \
                and positional[0] in ("self", "cls"):
            positional = positional[1:]
        index = positional.index(param) if param in positional else None
        safe = True
        for caller in graph.functions.values():
            for site in caller.calls:
                if info.qualname not in site.targets:
                    continue
                passed: Optional[ast.AST] = None
                for kw in site.node.keywords:
                    if kw.arg == param:
                        passed = kw.value
                if passed is None and index is not None \
                        and index < len(site.node.args):
                    passed = site.node.args[index]
                if passed is None:
                    continue  # default used: cannot judge, stay optimistic
                if not self._seed_safe(graph, caller, passed, depth + 1):
                    safe = False
        self._safe_memo[key] = safe
        return safe

    # -- stream-name uniqueness ----------------------------------------------
    def _check_names(
        self, ctx: "FileContext", visitor: _SiteVisitor
    ) -> List[Finding]:
        #: template -> components using it (across every collected file)
        owners: Dict[str, Set[str]] = {}
        for vis in self._sites.values():
            for template, component, _line in vis.stream_names:
                owners.setdefault(template, set()).add(component)
        findings: List[Finding] = []
        for template, component, line in visitor.stream_names:
            components = owners.get(template, set())
            if len(components) > 1:
                others = sorted(components - {component}) or sorted(components)
                findings.append(self.finding(
                    ctx, line, 0,
                    f"stream name template {template!r} is shared with "
                    f"{', '.join(others)}; shared streams couple components "
                    f"(draws in one perturb the other)",
                ))
        return findings
