"""Transitive effect inference and determinism-taint analysis.

Built on the :class:`~repro.analysis.callgraph.ProjectGraph`, two
whole-program passes answer the questions behind SL011 and SL012:

**Effects** — for every function, the set of *sim-state writes* it can
perform directly: attribute stores on instances of modelled-package
classes, deletes, subscript stores through such attributes, and calls
to known mutator methods.  Rules take the transitive closure over the
call graph to decide whether an observation entry point can reach any
write, and report the *call chain* as evidence, not just the endpoint.

**Taint** — wall-clock and ambient-RNG calls are legal only in the
allowlisted harness/profiling files (SL001/SL002 police the rest), but
a value read there must never flow into modelled state or seeds.  A
fixpoint over ``returns-tainted`` functions and ``tainted`` class
attributes propagates host-derived values across calls; sinks are
tainted arguments into modelled-package functions, tainted stores into
modelled-class attributes, and tainted returns *from* modelled-package
functions.

Both passes are optimistic where Python is dynamic: an attribute call
on an unknown receiver contributes no taint edge, and no effect unless
its method is mutator-named (``self.sim.schedule(...)`` counts whatever
``self.sim`` is).  The dynamic escape hatches that could hide real
flows (``getattr`` dispatch, ``__getattr__`` classes) are surfaced
separately by the call-graph layer so SL011 can warn about them
instead of silently trusting the closure.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallSite, FunctionInfo, ProjectGraph, dotted
from repro.lint.astutil import WALLCLOCK_CALLS, ImportMap, resolve_call_name
from repro.lint.config import LintConfig

__all__ = [
    "Effect",
    "EffectAnalysis",
    "TaintSink",
    "TaintAnalysis",
    "MUTATOR_METHODS",
    "OBSERVATION_ATTRS",
]

#: methods that schedule events or mutate the flow network when called
#: on a sim-state object, or on a receiver whose type is unknown
MUTATOR_METHODS = frozenset({
    "schedule", "process", "transfer", "transfer_and_wait", "cancel",
    "set_capacity", "add_link", "succeed", "fail",
})

#: sim-state attributes that ARE the sanctioned observation channels:
#: writing them is how observers attach, not a model mutation
OBSERVATION_ATTRS = frozenset({
    "metrics", "profile", "ledger", "time_probe", "on_transfer",
    "track_binding",
})

#: numpy.random constructors that, *given a seed argument*, produce a
#: deterministic generator rather than ambient randomness
_SEEDED_RNG_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
})


class Effect:
    """One direct sim-state write inside a function body."""

    __slots__ = ("kind", "detail", "relpath", "line", "sanctioned")

    def __init__(
        self, kind: str, detail: str, relpath: str, line: int,
        sanctioned: bool = False,
    ) -> None:
        self.kind = kind        # "write" (attr store) or "mutate" (call)
        self.detail = detail    # "Simulator.now" / "FlowNetwork.transfer()"
        self.relpath = relpath
        self.line = line
        self.sanctioned = sanctioned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Effect {self.kind} {self.detail} @{self.relpath}:{self.line}>"


def _store_targets(stmt: ast.stmt) -> List[ast.AST]:
    """Attribute/Subscript targets a statement writes through."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []


def _ordered_statements(node: ast.AST) -> List[ast.stmt]:
    """Every statement in a function body, source order, excluding
    nested function/class bodies (their effects are their own)."""
    out: List[ast.stmt] = []

    def walk(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            out.append(stmt)
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if inner:
                    walk(inner)
            for handler in getattr(stmt, "handlers", ()):
                walk(handler.body)

    body = getattr(node, "body", None)
    if isinstance(body, list):
        walk(body)
    return out


class EffectAnalysis:
    """Per-function direct write-sets plus the transitive closure."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.direct: Dict[str, List[Effect]] = {}
        self._closure: Dict[str, List[Tuple[Effect, Tuple[str, ...]]]] = {}
        for info in graph.functions.values():
            self.direct[info.qualname] = self._direct_effects(info)

    # -- direct effects ------------------------------------------------------
    def _direct_effects(self, info: FunctionInfo) -> List[Effect]:
        effects: List[Effect] = []
        for stmt in _ordered_statements(info.node):
            for target in _store_targets(stmt):
                effect = self._store_effect(info, target)
                if effect is not None:
                    effects.append(effect)
        for site in info.calls:
            effect = self._call_effect(info, site)
            if effect is not None:
                effects.append(effect)
        return effects

    def _store_effect(self, info: FunctionInfo, target: ast.AST) -> Optional[Effect]:
        # peel subscripts: ``obj.attr[k] = v`` writes through obj.attr
        while isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        rcv_type = self.graph.infer_type(info, target.value)
        if rcv_type is None:
            return None
        cls = self.graph.classes.get(rcv_type)
        if cls is None or cls.role != "model":
            return None
        sanctioned = target.attr in OBSERVATION_ATTRS
        return Effect(
            "write", f"{cls.name}.{target.attr}",
            info.relpath, target.lineno, sanctioned=sanctioned,
        )

    def _call_effect(self, info: FunctionInfo, site: CallSite) -> Optional[Effect]:
        """A call that is itself a mutation: a *mutator-named* call the
        graph could not resolve (a resolved callee's writes are covered
        by the closure instead) on a sim-state receiver, on a receiver
        of unknown type, or on a bare name."""
        if site.targets or site.dynamic:
            return None
        func = site.node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            rcv_type = self.graph.infer_type(info, func.value)
        elif isinstance(func, ast.Name):
            method, rcv_type = func.id, None
        else:
            return None
        if method not in MUTATOR_METHODS:
            return None
        if rcv_type is None:
            detail = f"{ast.unparse(func)}()"
        else:
            cls = self.graph.classes.get(rcv_type)
            if cls is None or cls.role != "model":
                return None
            detail = f"{cls.name}.{method}()"
        return Effect("mutate", detail, info.relpath, site.node.lineno)

    # -- transitive closure --------------------------------------------------
    def reachable_effects(
        self, qualname: str
    ) -> List[Tuple[Effect, Tuple[str, ...]]]:
        """Every effect reachable from ``qualname`` through resolved
        call edges, each with the call chain that reaches it (the chain
        starts at ``qualname`` and ends at the function holding the
        effect)."""
        if qualname in self._closure:
            return self._closure[qualname]
        out: List[Tuple[Effect, Tuple[str, ...]]] = []
        seen: Set[str] = set()
        stack: List[Tuple[str, Tuple[str, ...]]] = [(qualname, (qualname,))]
        while stack:
            current, chain = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for effect in self.direct.get(current, ()):
                out.append((effect, chain))
            info = self.graph.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                for target in site.targets:
                    if target not in seen:
                        stack.append((target, chain + (target,)))
        self._closure[qualname] = out
        return out

    def dynamic_calls_reachable(
        self, qualname: str
    ) -> List[Tuple[CallSite, Tuple[str, ...]]]:
        """Dynamic (getattr-style) call sites reachable from
        ``qualname`` — places where the closure is blind."""
        out: List[Tuple[CallSite, Tuple[str, ...]]] = []
        seen: Set[str] = set()
        stack: List[Tuple[str, Tuple[str, ...]]] = [(qualname, (qualname,))]
        while stack:
            current, chain = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.graph.functions.get(current)
            if info is None:
                continue
            for site in info.calls:
                if site.dynamic:
                    out.append((site, chain))
                for target in site.targets:
                    if target not in seen:
                        stack.append((target, chain + (target,)))
        return out


class TaintSink:
    """One place where a host-derived (wall-clock/RNG) value reaches
    modelled state."""

    __slots__ = ("kind", "detail", "relpath", "line", "source_hint")

    def __init__(
        self, kind: str, detail: str, relpath: str, line: int, source_hint: str
    ) -> None:
        self.kind = kind          # "store" | "arg" | "return"
        self.detail = detail
        self.relpath = relpath
        self.line = line
        self.source_hint = source_hint


class TaintAnalysis:
    """Fixpoint propagation of wall-clock/ambient-RNG derived values."""

    def __init__(self, graph: ProjectGraph, config: LintConfig) -> None:
        self.graph = graph
        self.config = config
        self.returns_tainted: Set[str] = set()
        self.tainted_attrs: Set[Tuple[str, str]] = set()
        self.sinks: List[TaintSink] = []
        self._imports: Dict[str, ImportMap] = {}
        self._source_allowed: Dict[str, bool] = {}
        self._run()

    # -- sources -------------------------------------------------------------
    def _import_map(self, info: FunctionInfo) -> ImportMap:
        if info.module not in self._imports:
            facts = self.graph.modules.get(info.module)
            tree: ast.AST = ast.Module(body=[], type_ignores=[])
            # rebuild from the recorded import table: cheap and enough
            imap = ImportMap(tree)
            if facts is not None:
                imap.aliases = dict(facts.imports)
            self._imports[info.module] = imap
        return self._imports[info.module]

    def _is_source_call(self, info: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Name of the wall-clock/RNG primitive this call reads, if any.

        Only calls in *allowlisted* files count as taint sources: outside
        the allowlist the call itself is already an SL001/SL002 error,
        and double-reporting the same line helps nobody.
        """
        full = resolve_call_name(call.func, self._import_map(info))
        if full is None:
            return None
        is_wallclock = full in WALLCLOCK_CALLS
        is_rng = full.startswith("random.") or full.startswith("numpy.random.")
        if is_rng and full.rsplit(".", 1)[-1] in _SEEDED_RNG_CTORS \
                and (call.args or call.keywords):
            # an explicitly seeded generator is deterministic by
            # construction — the sanctioned scheme, not host taint
            return None
        if not (is_wallclock or is_rng):
            return None
        allow = (self.config.wallclock_allow if is_wallclock
                 else self.config.rng_allow)
        if not self.config.path_allowed(info.relpath, allow):
            return None
        return full

    # -- the fixpoint --------------------------------------------------------
    def _run(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for info in self.graph.functions.values():
                if self._scan_function(info, record_sinks=False):
                    changed = True
        for info in self.graph.functions.values():
            self._scan_function(info, record_sinks=True)

    def _scan_function(self, info: FunctionInfo, record_sinks: bool) -> bool:
        node = info.node
        if isinstance(node, ast.Lambda):
            stmts: List[ast.stmt] = [ast.Expr(value=node.body)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stmts = _ordered_statements(node)
        else:  # pragma: no cover - only defs/lambdas are registered
            return False
        changed = False
        tainted_locals: Set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                    and getattr(stmt, "value", None) is not None:
                value = stmt.value
                assert value is not None
                is_tainted = self._expr_tainted(info, value, tainted_locals)
                for target in _store_targets(stmt):
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Name):
                        if is_tainted:
                            tainted_locals.add(target.id)
                        else:
                            tainted_locals.discard(target.id)
                    elif isinstance(target, ast.Attribute) and is_tainted:
                        changed |= self._taint_attr_store(
                            info, target, value, record_sinks
                        )
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self._expr_tainted(info, stmt.value, tainted_locals):
                    if info.qualname not in self.returns_tainted:
                        self.returns_tainted.add(info.qualname)
                        changed = True
                    if record_sinks and info.role == "model":
                        self.sinks.append(TaintSink(
                            "return",
                            f"{info.qualname} returns a host-derived value",
                            info.relpath, stmt.lineno,
                            "wall-clock/ambient-RNG",
                        ))
            if record_sinks:
                self._check_call_sinks(info, stmt, tainted_locals)
        return changed

    def _taint_attr_store(
        self, info: FunctionInfo, target: ast.Attribute, value: ast.AST,
        record_sinks: bool,
    ) -> bool:
        rcv_type = self.graph.infer_type(info, target.value)
        if rcv_type is None:
            return False
        key = (rcv_type, target.attr)
        changed = key not in self.tainted_attrs
        self.tainted_attrs.add(key)
        cls = self.graph.classes.get(rcv_type)
        if record_sinks and cls is not None and cls.role == "model":
            self.sinks.append(TaintSink(
                "store",
                f"host-derived value stored into sim state "
                f"{cls.name}.{target.attr}",
                info.relpath, target.lineno, "wall-clock/ambient-RNG",
            ))
        return changed

    def _check_call_sinks(
        self, info: FunctionInfo, stmt: ast.stmt, tainted_locals: Set[str]
    ) -> None:
        calls_by_id = {id(site.node): site for site in info.calls}
        for node in ast.walk(stmt):
            site = calls_by_id.get(id(node))
            if site is None:
                continue
            for target in site.targets:
                callee = self.graph.functions.get(target)
                if callee is None or callee.role != "model":
                    continue
                assert isinstance(node, ast.Call)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if self._expr_tainted(info, arg, tainted_locals):
                        self.sinks.append(TaintSink(
                            "arg",
                            f"host-derived value passed into modelled "
                            f"code {callee.qualname}()",
                            info.relpath, node.lineno,
                            "wall-clock/ambient-RNG",
                        ))
                        break

    # -- expression taint ----------------------------------------------------
    def _expr_tainted(
        self, info: FunctionInfo, expr: ast.AST, tainted_locals: Set[str]
    ) -> bool:
        calls_by_id = {id(site.node): site for site in info.calls}
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in tainted_locals:
                return True
            if isinstance(node, ast.Call):
                if self._is_source_call(info, node) is not None:
                    return True
                site = calls_by_id.get(id(node))
                if site is not None and any(
                    t in self.returns_tainted for t in site.targets
                ):
                    return True
            if isinstance(node, ast.Attribute):
                rcv_type = self.graph.infer_type(info, node.value)
                if rcv_type is not None and (rcv_type, node.attr) in self.tainted_attrs:
                    return True
        return False
