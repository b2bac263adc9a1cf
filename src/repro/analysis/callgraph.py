"""Whole-program symbol table and call graph over the linted tree.

The whole-program rules (SL011–SL014) need to answer questions
one-file AST walks cannot: *"can this observation callback reach a
simulation-state mutation through any chain of calls?"*.  This module
builds the shared substrate once per run:

- a **symbol table** of every module, class, and function with stable
  qualified names (``repro.daos.client.DaosClient.write``, nested
  functions as ``outer.<locals>.inner``), import maps, decorator and
  property/setter metadata;
- a **call graph**: for every function, the project-local callees each
  call expression can reach.  Resolution is *precise* where the
  receiver is known (bare names through lexical scopes, ``self.m()``
  through the class and its project-local bases, ``obj.m()`` when
  ``obj``'s class is inferable) and deliberately *incomplete* where it
  is not: an attribute call on an unknown receiver contributes no edge,
  and a dynamic ``getattr(x, n)(...)`` call is recorded so rules can
  degrade to a conservative warning instead of guessing (or crashing);
- **callback registries**: functions (including lambdas and
  ``functools.partial`` wrappings) registered on ``time_probe`` or
  ``on_transfer`` — the two sanctioned observation channels.

Package classification drives the rules: a file's role (modelled code,
observation code, harness) is derived from its path segments, so test
fixtures laid out as ``obs/x.py`` / ``sim/y.py`` classify exactly like
the real tree's ``src/repro/obs/x.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallSite",
    "ProjectGraph",
    "MODELLED_PACKAGES",
    "OBSERVATION_PACKAGES",
    "module_name_for",
    "package_role",
]

#: path segments marking simulation-model code: classes defined here are
#: *sim state* and their mutation from observation code is a contract
#: violation
MODELLED_PACKAGES = frozenset({
    "sim", "hardware", "daos", "lustre", "ceph", "dfs", "dfuse", "fdb",
    "workloads", "faults",
})

#: path segments marking observation code (must be transitively
#: read-only w.r.t. sim state)
OBSERVATION_PACKAGES = frozenset({"obs"})


def module_name_for(relpath: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/daos/client.py`` maps to ``repro.daos.client``; paths
    outside a ``src`` root (test fixtures) use their own segments, so
    ``obs/sampler.py`` becomes ``obs.sampler``.
    """
    posix = relpath.replace("\\", "/")
    parts = [p for p in posix.split("/") if p not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def package_role(relpath: str) -> str:
    """``"model"``, ``"obs"``, or ``"other"`` for a source path."""
    posix = relpath.replace("\\", "/")
    segments = set(posix.split("/")[:-1])
    if segments & OBSERVATION_PACKAGES:
        return "obs"
    if segments & MODELLED_PACKAGES:
        return "model"
    return "other"


def dotted(node: ast.AST) -> Optional[str]:
    """Render a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CallSite:
    """One call expression and the project functions it can reach."""

    __slots__ = ("node", "callee_repr", "targets", "dynamic", "receiver")

    def __init__(
        self,
        node: ast.Call,
        callee_repr: str,
        targets: Tuple[str, ...],
        dynamic: bool = False,
        receiver: Optional[ast.AST] = None,
    ) -> None:
        self.node = node
        self.callee_repr = callee_repr
        self.targets = targets   # qualnames of FunctionInfo entries
        self.dynamic = dynamic   # getattr(...)(...) style: unresolvable
        self.receiver = receiver  # the expression before the last attr, if any


class FunctionInfo:
    """A function, method, nested function, or registered lambda."""

    __slots__ = (
        "qualname", "module", "relpath", "node", "class_qualname",
        "decorators", "is_property", "is_setter", "role", "calls",
        "parent_qualname",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        relpath: str,
        node: ast.AST,
        class_qualname: Optional[str],
        decorators: List[str],
        parent_qualname: Optional[str] = None,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.relpath = relpath
        self.node = node
        self.class_qualname = class_qualname
        self.decorators = decorators
        last = [d.rsplit(".", 1)[-1] for d in decorators]
        self.is_property = "property" in last or "cached_property" in last
        self.is_setter = any(d.endswith(".setter") for d in decorators)
        self.role = package_role(relpath)
        self.calls: List[CallSite] = []
        self.parent_qualname = parent_qualname

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """A class: methods, resolved bases, and inferable attribute types."""

    __slots__ = (
        "qualname", "module", "relpath", "node", "base_names", "bases",
        "methods", "attr_types", "role", "has_dynamic_getattr",
    )

    def __init__(
        self, qualname: str, module: str, relpath: str, node: ast.ClassDef
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.relpath = relpath
        self.node = node
        self.base_names: List[str] = [
            d for d in (dotted(b) for b in node.bases) if d is not None
        ]
        self.bases: List[str] = []          # resolved class qualnames
        self.methods: Dict[str, FunctionInfo] = {}
        #: attribute -> class qualname, from annotations and evident
        #: constructor assignments in method bodies
        self.attr_types: Dict[str, str] = {}
        self.role = package_role(relpath)
        #: defines __getattr__/__getattribute__: attribute calls on this
        #: class may go anywhere — rules degrade to a warning
        self.has_dynamic_getattr = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.qualname}>"


class _ModuleFacts:
    __slots__ = ("name", "relpath", "imports", "functions", "classes", "assigns")

    def __init__(self, name: str, relpath: str) -> None:
        self.name = name
        self.relpath = relpath
        #: local name -> dotted target ("repro.sim.core.Simulator" or module)
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, str] = {}  # bare name -> qualname
        self.classes: Dict[str, str] = {}    # bare name -> qualname
        #: module-level ``NAME = <dotted>`` aliases
        self.assigns: Dict[str, str] = {}


class ProjectGraph:
    """The whole-program fact store shared by SL011–SL014."""

    def __init__(self) -> None:
        self.modules: Dict[str, _ModuleFacts] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare function name -> qualnames (by-name fallback, imprecise)
        self.by_name: Dict[str, List[str]] = {}
        #: qualnames of functions registered as time_probe / on_transfer
        #: observation callbacks (includes lambdas, given synthetic names)
        self.probe_callbacks: Dict[str, List[str]] = {}
        self._lambda_counter = 0
        self._resolved = False
        self._added: Set[str] = set()
        #: scratch space for analyses layered on the graph (the four
        #: whole-program rules memoise their results here so rules
        #: sharing one graph never recompute each other's passes)
        self.memo: Dict[str, object] = {}

    # -- phase 1: per-file collection ---------------------------------------
    def add_module_once(self, relpath: str, tree: ast.AST) -> None:
        """Idempotent :meth:`add_module` — every SL011–SL014 rule calls
        this from its collect pass; only the first call per file does
        work."""
        if relpath in self._added:
            return
        self._added.add(relpath)
        self.add_module(relpath, tree)

    def add_module(self, relpath: str, tree: ast.AST) -> None:
        module = module_name_for(relpath)
        facts = _ModuleFacts(module, relpath)
        self.modules[module] = facts
        self._collect_imports(tree, facts)
        body = getattr(tree, "body", [])
        self._collect_scope(body, module, relpath, facts, prefix=module,
                            class_qualname=None)
        self._collect_registrations(tree, module, relpath)

    def _collect_imports(self, tree: ast.AST, facts: _ModuleFacts) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    facts.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: anchor at this package
                    base_parts = facts.name.split(".")
                    base = ".".join(base_parts[:len(base_parts) - node.level + 0])
                    prefix = f"{base}.{node.module}" if node.module else base
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    facts.imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name

    def _collect_scope(
        self,
        body: Iterable[ast.stmt],
        module: str,
        relpath: str,
        facts: _ModuleFacts,
        prefix: str,
        class_qualname: Optional[str],
        parent_function: Optional[str] = None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                decorators = [
                    d for d in (dotted(dec.func if isinstance(dec, ast.Call) else dec)
                                for dec in stmt.decorator_list)
                    if d is not None
                ]
                info = FunctionInfo(
                    qual, module, relpath, stmt, class_qualname, decorators,
                    parent_qualname=parent_function,
                )
                self.functions[qual] = info
                self.by_name.setdefault(stmt.name, []).append(qual)
                if class_qualname is not None and prefix == class_qualname:
                    cls = self.classes[class_qualname]
                    # a property setter shares its getter's name; keep both
                    key = stmt.name if not info.is_setter else f"{stmt.name}.setter"
                    cls.methods.setdefault(key, info)
                    if stmt.name in ("__getattr__", "__getattribute__"):
                        cls.has_dynamic_getattr = True
                elif class_qualname is None and prefix == module:
                    facts.functions[stmt.name] = qual
                # nested scope (methods of nested classes, inner functions)
                self._collect_scope(
                    stmt.body, module, relpath, facts,
                    prefix=f"{qual}.<locals>", class_qualname=None,
                    parent_function=qual,
                )
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}"
                cls = ClassInfo(qual, module, relpath, stmt)
                self.classes[qual] = cls
                if class_qualname is None and prefix == module:
                    facts.classes[stmt.name] = qual
                self._collect_class_annotations(stmt, cls)
                self._collect_scope(
                    stmt.body, module, relpath, facts,
                    prefix=qual, class_qualname=qual,
                    parent_function=parent_function,
                )
            elif isinstance(stmt, ast.Assign) and class_qualname is None:
                value = dotted(stmt.value)
                if value is not None and prefix == module:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            facts.assigns[target.id] = value
            elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
                # conditional defs (TYPE_CHECKING blocks, fallbacks)
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        self._collect_scope(
                            [inner], module, relpath, facts, prefix,
                            class_qualname, parent_function,
                        )

    def _collect_class_annotations(self, node: ast.ClassDef, cls: ClassInfo) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann = dotted(stmt.annotation)
                if ann is not None:
                    cls.attr_types.setdefault(stmt.target.id, ann)

    def _collect_registrations(self, tree: ast.AST, module: str, relpath: str) -> None:
        """Record callbacks registered on the observation channels."""
        for node in ast.walk(tree):
            value: Optional[ast.AST] = None
            channel = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and target.attr == "time_probe":
                        value, channel = node.value, "time_probe"
            elif isinstance(node, ast.Call):
                fn = node.func
                if (isinstance(fn, ast.Attribute) and fn.attr == "append"
                        and isinstance(fn.value, ast.Attribute)
                        and fn.value.attr == "on_transfer" and node.args):
                    value, channel = node.args[0], "on_transfer"
            if value is None or channel is None:
                continue
            if isinstance(value, ast.Constant):
                continue
            self._register_callback(value, channel, module, relpath)

    def _register_callback(
        self, value: ast.AST, channel: str, module: str, relpath: str
    ) -> None:
        if isinstance(value, ast.Lambda):
            self._lambda_counter += 1
            qual = f"{module}.<lambda#{self._lambda_counter}>"
            info = FunctionInfo(qual, module, relpath, value, None, [])
            self.functions[qual] = info
            self.probe_callbacks.setdefault(channel, []).append(qual)
            return
        if isinstance(value, ast.Call):  # functools.partial(fn, ...)
            fn = value.func
            name = fn.attr if isinstance(fn, ast.Attribute) else (
                fn.id if isinstance(fn, ast.Name) else None
            )
            if name == "partial" and value.args:
                self._register_callback(value.args[0], channel, module, relpath)
            return
        chain = dotted(value)
        if chain is None:
            return
        self.probe_callbacks.setdefault(channel, []).append(
            chain.rsplit(".", 1)[-1]
        )

    # -- phase 2: resolution -------------------------------------------------
    def resolve(self) -> None:
        """Resolve class bases and every call site (idempotent)."""
        if self._resolved:
            return
        self._resolved = True
        for cls in self.classes.values():
            for base in cls.base_names:
                resolved = self.resolve_symbol(cls.module, base)
                if resolved in self.classes:
                    cls.bases.append(resolved)
        for cls in self.classes.values():
            self._infer_attr_types(cls)
        for info in list(self.functions.values()):
            self._resolve_calls(info)

    def resolve_symbol(self, module: str, name: str) -> str:
        """Resolve a possibly-dotted local name against a module's
        imports/defs to a project-level dotted path."""
        facts = self.modules.get(module)
        head, _, rest = name.partition(".")
        if facts is not None:
            for table in (facts.classes, facts.functions, facts.imports,
                          facts.assigns):
                if head in table:
                    resolved = table[head]
                    return f"{resolved}.{rest}" if rest else resolved
        return f"{module}.{name}" if f"{module}.{name}" in self.classes else name

    def method_on(self, class_qualname: str, method: str) -> Optional[FunctionInfo]:
        """Look up a method through the class and its resolved bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    def class_of_attr(self, class_qualname: str, attr: str) -> Optional[str]:
        """Declared/inferred type (class qualname) of ``cls.attr``."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            stack.extend(cls.bases)
        return None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        """``self.x = Ctor(...)`` and ``self.x: T`` inside methods."""
        for info in cls.methods.values():
            node = info.node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(node):
                target: Optional[ast.AST] = None
                ann: Optional[ast.AST] = None
                value: Optional[ast.AST] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, ann, value = stmt.target, stmt.annotation, stmt.value
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                resolved: Optional[str] = None
                if ann is not None:
                    chain = dotted(ann)
                    if chain is not None:
                        resolved = self.resolve_symbol(cls.module, chain)
                if resolved not in self.classes and isinstance(value, ast.Call):
                    chain = dotted(value.func)
                    if chain is not None:
                        resolved = self.resolve_symbol(cls.module, chain)
                if resolved in self.classes:
                    cls.attr_types.setdefault(target.attr, resolved)

    # -- call resolution -----------------------------------------------------
    def _local_scopes(self, info: FunctionInfo) -> List[str]:
        """Qualname prefixes for lexical lookup: own <locals>, enclosing
        function <locals> chain, then module level."""
        scopes = [f"{info.qualname}.<locals>"]
        parent = info.parent_qualname
        while parent is not None:
            scopes.append(f"{parent}.<locals>")
            parent = self.functions[parent].parent_qualname if parent in self.functions else None
        scopes.append(info.module)
        return scopes

    def _resolve_calls(self, info: FunctionInfo) -> None:
        node = info.node
        body: List[ast.stmt]
        if isinstance(node, ast.Lambda):
            body = [ast.Expr(value=node.body)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        else:  # pragma: no cover - no other node kinds are registered
            return
        for call in self._calls_in(body):
            info.calls.append(self._resolve_one_call(info, call))

    @staticmethod
    def _calls_in(body: List[ast.stmt]) -> List[ast.Call]:
        """Every call in the statements, excluding nested def/lambda
        bodies (those are their own FunctionInfo scopes)."""
        out: List[ast.Call] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef)):
                    continue
                if isinstance(child, ast.Call):
                    out.append(child)
                walk(child)

        for stmt in body:
            walk(stmt)
        return out

    def _resolve_one_call(self, info: FunctionInfo, call: ast.Call) -> CallSite:
        func = call.func
        # getattr(x, "name")(...) — cannot be resolved statically
        if (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
                and func.func.id == "getattr"):
            return CallSite(call, "getattr(...)", (), dynamic=True)
        if isinstance(func, ast.Name):
            name = func.id
            if name == "getattr":
                # getattr used as a value, not called here
                return CallSite(call, name, (), dynamic=False)
            for scope in self._local_scopes(info):
                qual = f"{scope}.{name}"
                if qual in self.functions:
                    return CallSite(call, name, (qual,))
                if qual in self.classes:  # constructor
                    init = self.method_on(qual, "__init__")
                    targets = (init.qualname,) if init is not None else ()
                    return CallSite(call, name, targets)
            resolved = self.resolve_symbol(info.module, name)
            if resolved in self.functions:
                return CallSite(call, name, (resolved,))
            if resolved in self.classes:
                init = self.method_on(resolved, "__init__")
                return CallSite(call, name, (init.qualname,) if init else ())
            return CallSite(call, name, ())
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            chain = dotted(func)
            if chain is not None:
                # module-level function via import: repro.obs.current()
                resolved = self.resolve_symbol(info.module, chain)
                if resolved in self.functions:
                    return CallSite(call, chain, (resolved,), receiver=receiver)
                if resolved in self.classes:
                    init = self.method_on(resolved, "__init__")
                    return CallSite(
                        call, chain, (init.qualname,) if init else (),
                        receiver=receiver,
                    )
            rcv_type = self.infer_type(info, receiver)
            if rcv_type is not None:
                target = self.method_on(rcv_type, method)
                if target is not None:
                    return CallSite(
                        call, chain or method, (target.qualname,),
                        receiver=receiver,
                    )
                cls = self.classes.get(rcv_type)
                if cls is not None and cls.has_dynamic_getattr:
                    return CallSite(
                        call, chain or method, (), dynamic=True,
                        receiver=receiver,
                    )
            return CallSite(call, chain or method, (), receiver=receiver)
        return CallSite(call, ast.unparse(func), ())

    # -- light type inference -----------------------------------------------
    def infer_type(self, info: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """Class qualname of ``expr`` inside ``info``, where evident.

        Handles ``self``, annotated parameters, attribute chains through
        declared/inferred attribute types, and locals assigned an
        evident constructor call.  Returns None when unknown.
        """
        return self._infer_type(info, expr, depth=0)

    def _infer_type(self, info: FunctionInfo, expr: ast.AST, depth: int) -> Optional[str]:
        if depth > 8:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self" and info.class_qualname is not None:
                return info.class_qualname
            ann = self._param_annotation(info, expr.id)
            if ann is not None:
                resolved = self.resolve_symbol(info.module, ann)
                if resolved in self.classes:
                    return resolved
            assigned = self._local_assignment(info, expr.id)
            if assigned is not None:
                return self._infer_type(info, assigned, depth + 1)
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer_type(info, expr.value, depth + 1)
            if base is None:
                return None
            attr_cls = self.class_of_attr(base, expr.attr)
            if attr_cls is not None:
                resolved = self.resolve_symbol(self.classes[base].module, attr_cls)
                return resolved if resolved in self.classes else None
            prop = self.method_on(base, expr.attr)
            if prop is not None and prop.is_property:
                node = prop.node
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.returns is not None:
                    chain = dotted(node.returns)
                    if chain is not None:
                        resolved = self.resolve_symbol(prop.module, chain)
                        if resolved in self.classes:
                            return resolved
            return None
        if isinstance(expr, ast.Call):
            chain = dotted(expr.func)
            if chain is not None:
                resolved = self.resolve_symbol(info.module, chain)
                if resolved in self.classes:
                    return resolved
                target = self.functions.get(resolved)
                if target is not None:
                    node = target.node
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and node.returns is not None:
                        ret = dotted(node.returns)
                        if ret is not None:
                            r = self.resolve_symbol(target.module, ret)
                            if r in self.classes:
                                return r
            return None
        return None

    def _param_annotation(self, info: FunctionInfo, name: str) -> Optional[str]:
        node = info.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg == name and arg.annotation is not None:
                chain = dotted(arg.annotation)
                if chain is not None:
                    return chain
                # Optional["X"] / string annotations: take the literal
                if isinstance(arg.annotation, ast.Constant) \
                        and isinstance(arg.annotation.value, str):
                    return arg.annotation.value
        return None

    def _local_assignment(self, info: FunctionInfo, name: str) -> Optional[ast.AST]:
        """The single evident assignment to a local, if unambiguous."""
        node = info.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        found: Optional[ast.AST] = None
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        if found is not None:
                            return None  # multiply assigned: ambiguous
                        found = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == name \
                        and stmt.value is not None:
                    if found is not None:
                        return None
                    found = stmt.value
        return found

    # -- queries used by the rules ------------------------------------------
    def callback_functions(self) -> List[FunctionInfo]:
        """FunctionInfos for every registered observation callback."""
        out: List[FunctionInfo] = []
        for names in self.probe_callbacks.values():
            for name in names:
                if name in self.functions:
                    out.append(self.functions[name])
                    continue
                for qual in self.by_name.get(name, ()):
                    out.append(self.functions[qual])
        return out
