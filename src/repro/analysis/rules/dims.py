"""SL014: unit-dimension checking over model arithmetic.

The model computes in plain ``int``/``float`` — bytes, seconds, bytes/s
and events/s all look identical to Python, so a transposed operand in a
service-time formula (``size * bandwidth`` instead of ``size /
bandwidth``) type-checks, runs, and quietly produces numbers in the
wrong unit.  This rule propagates a small abstract dimension domain
through the arithmetic:

========================  ==============================================
source                    dimension
========================  ==============================================
``KiB/MiB/GiB/TiB``       bytes
``Gbps``                  bytes/s
``parse_size(...)``       bytes
``Bytes`` annotation      bytes (param, variable, or class attribute)
``Seconds`` annotation    seconds
``BytesPerSec`` annot.    bytes/s
``EventsPerSec`` annot.   events/s
========================  ==============================================

The algebra is optimistic: UNKNOWN glues everything (un-annotated code
stays silent), ``bytes / seconds`` yields bytes/s, ``seconds × bytes/s``
yields bytes, same/same division is dimensionless.  Findings fire only
on *provable* inconsistency — adding or comparing two operands with
different known dimensions, or passing a known-wrong dimension to
``fmt_bytes``/``fmt_bw``/``fmt_iops`` — plus a warning for raw
power-of-1024 literals mixed into dimensioned arithmetic, which should
be spelled ``KiB``/``MiB``/``GiB``/``TiB``.

Scope is the model arithmetic the paper's numbers depend on: ``sim/``,
``hardware/``, ``daos/``, ``lustre/``, ``ceph/``, ``workloads/``.
``sim/flownet.py`` is deliberately out of scope: a FlowNetwork link
carries bytes/s *or* ops/s depending on the resource it models, so its
internal arithmetic is generic by design.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.lint.astutil import ImportMap, resolve_call_name
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import FileContext, ProjectIndex

BYTES = "bytes"
SECONDS = "seconds"
RATE_BYTES = "bytes/s"
RATE_EVENTS = "events/s"
DIMLESS = "dimensionless"

#: annotation alias (in repro.units) -> dimension
ANNOTATION_DIMS = {
    "Bytes": BYTES,
    "Seconds": SECONDS,
    "BytesPerSec": RATE_BYTES,
    "EventsPerSec": RATE_EVENTS,
    "Dimensionless": DIMLESS,
}

#: unit constants (in repro.units) -> dimension
CONSTANT_DIMS = {
    "KiB": BYTES, "MiB": BYTES, "GiB": BYTES, "TiB": BYTES,
    "Gbps": RATE_BYTES,
}

#: formatter -> dimension its argument must carry
FORMATTER_DIMS = {
    "fmt_bytes": BYTES,
    "fmt_bw": RATE_BYTES,
    "fmt_iops": RATE_EVENTS,
}

#: path segments whose files are dimension-checked
CHECKED_PACKAGES = frozenset({
    "sim", "hardware", "daos", "lustre", "ceph", "workloads",
})

#: generic-rate files exempt from checking (see module docstring)
EXEMPT_SUFFIXES = ("sim/flownet.py",)

_POWERS_OF_1024 = {1024, 1024 ** 2, 1024 ** 3, 1024 ** 4}
_POWER_NAMES = {1024: "KiB", 1024 ** 2: "MiB", 1024 ** 3: "GiB",
                1024 ** 4: "TiB"}

#: builtins transparent to dimensions (dim of their first argument)
_TRANSPARENT_CALLS = frozenset({"abs", "float", "int", "round", "min", "max", "sum"})


def _units_symbol(full: Optional[str]) -> Optional[str]:
    """The ``repro.units`` member a resolved dotted name refers to."""
    if full is None:
        return None
    head, _, last = full.rpartition(".")
    if head.endswith("units") or head == "":
        return last if head else None
    return None


class _FunctionChecker:
    """One forward dimension pass over a function (or module) body."""

    def __init__(self, rule: "DimensionRule", ctx: "FileContext",
                 imports: ImportMap, attr_dims: Dict[str, Optional[str]],
                 node: ast.AST) -> None:
        self.rule = rule
        self.ctx = ctx
        self.imports = imports
        self.attr_dims = attr_dims
        self.env: Dict[str, str] = {}
        self.findings: List[Finding] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                dim = self._annotation_dim(arg.annotation)
                if dim is not None:
                    self.env[arg.arg] = dim

    # -- dimension sources ---------------------------------------------------
    def _annotation_dim(self, annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        full = resolve_call_name(annotation, self.imports)
        symbol = _units_symbol(full)
        if symbol in ANNOTATION_DIMS:
            return ANNOTATION_DIMS[symbol]
        return None

    def dim(self, expr: ast.AST) -> Optional[str]:
        """Dimension of an expression; None when unknown."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            full = resolve_call_name(expr, self.imports)
            symbol = _units_symbol(full)
            if symbol in CONSTANT_DIMS:
                return CONSTANT_DIMS[symbol]
            if isinstance(expr, ast.Name):
                return self.env.get(expr.id)
            return self.attr_dims.get(expr.attr)
        if isinstance(expr, ast.Constant):
            return None  # literals are dimension-ambiguous by nature
        if isinstance(expr, ast.BinOp):
            return self._binop_dim(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.dim(expr.operand)
        if isinstance(expr, ast.Call):
            return self._call_dim(expr)
        if isinstance(expr, ast.IfExp):
            body, orelse = self.dim(expr.body), self.dim(expr.orelse)
            return body if body == orelse else None
        return None

    def _call_dim(self, call: ast.Call) -> Optional[str]:
        full = resolve_call_name(call.func, self.imports)
        symbol = _units_symbol(full)
        if symbol == "parse_size":
            return BYTES
        name = full.rsplit(".", 1)[-1] if full else None
        if name in _TRANSPARENT_CALLS and call.args:
            dims = {self.dim(a) for a in call.args}
            dims.discard(None)
            if len(dims) == 1:
                return dims.pop()
        return None

    def _binop_dim(self, expr: ast.BinOp) -> Optional[str]:
        left, right = self.dim(expr.left), self.dim(expr.right)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            return left or right
        if isinstance(expr.op, ast.Mult):
            if left == DIMLESS or left is None:
                return right if left == DIMLESS else (right and None) or None
            if right == DIMLESS:
                return left
            pair = {left, right}
            if pair == {SECONDS, RATE_BYTES}:
                return BYTES
            if pair == {SECONDS, RATE_EVENTS}:
                return DIMLESS
            return None
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            if left is not None and left == right:
                return DIMLESS
            if right == DIMLESS:
                return left
            if left == BYTES and right == SECONDS:
                return RATE_BYTES
            if left == BYTES and right == RATE_BYTES:
                return SECONDS
            return None
        if isinstance(expr.op, ast.Mod):
            return left if left == right else None
        return None

    # -- the checks ----------------------------------------------------------
    def check_expression(self, expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda,)):
                continue
            if isinstance(node, ast.BinOp):
                self._check_binop(node)
            elif isinstance(node, ast.Compare):
                self._check_compare(node)
            elif isinstance(node, ast.Call):
                self._check_formatter(node)

    def _check_binop(self, node: ast.BinOp) -> None:
        left, right = self.dim(node.left), self.dim(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self.findings.append(self.rule.finding(
                    self.ctx, node.lineno, node.col_offset,
                    f"dimension mismatch: {left} {op} {right}",
                ))
        if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv, ast.Add, ast.Sub)):
            for literal, other_dim in (
                (node.left, right), (node.right, left),
            ):
                if (isinstance(literal, ast.Constant)
                        and isinstance(literal.value, int)
                        and literal.value in _POWERS_OF_1024
                        and other_dim in (BYTES, RATE_BYTES)):
                    suggested = _POWER_NAMES[literal.value]
                    self.findings.append(Finding(
                        code=self.rule.code,
                        message=(
                            f"unit-ambiguous literal {literal.value} in "
                            f"{other_dim} arithmetic; spell it "
                            f"{suggested} (repro.units)"
                        ),
                        path=self.ctx.relpath, line=node.lineno,
                        col=node.col_offset, severity=Severity.WARNING,
                        rule_name=self.rule.name,
                    ))

    def _check_compare(self, node: ast.Compare) -> None:
        dims = [self.dim(node.left)] + [self.dim(c) for c in node.comparators]
        known = [d for d in dims if d is not None]
        if len(set(known)) > 1:
            self.findings.append(self.rule.finding(
                self.ctx, node.lineno, node.col_offset,
                f"dimension mismatch in comparison: {' vs '.join(sorted(set(known)))}",
            ))

    def _check_formatter(self, node: ast.Call) -> None:
        full = resolve_call_name(node.func, self.imports)
        symbol = _units_symbol(full)
        if symbol not in FORMATTER_DIMS or not node.args:
            return
        expected = FORMATTER_DIMS[symbol]
        actual = self.dim(node.args[0])
        if actual is not None and actual != expected and actual != DIMLESS:
            self.findings.append(self.rule.finding(
                self.ctx, node.lineno, node.col_offset,
                f"{symbol}() expects {expected}, got {actual}",
            ))

    # -- statement pass ------------------------------------------------------
    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            self._statement(stmt)
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if inner:
                    self.run(inner)
            for handler in getattr(stmt, "handlers", ()):
                self.run(handler.body)

    def _statement(self, stmt: ast.stmt) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.check_expression(child)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            dim = self.dim(stmt.value)
            name = stmt.targets[0].id
            if dim is not None:
                self.env[name] = dim
            else:
                self.env.pop(name, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            dim = self._annotation_dim(stmt.annotation)
            if dim is None and stmt.value is not None:
                dim = self.dim(stmt.value)
            if dim is not None:
                self.env[stmt.target.id] = dim


@register
class DimensionRule(Rule):
    code = "SL014"
    name = "unit-dimensions"
    description = (
        "bytes/seconds/rates propagated from repro.units must not be "
        "added, compared, or formatted across dimensions"
    )

    def __init__(self) -> None:
        #: attribute name -> dimension, from class-body annotations
        #: across the whole tree (conflicting declarations are dropped)
        self._attr_dims: Dict[str, Optional[str]] = {}

    def collect(self, ctx: "FileContext", project: "ProjectIndex") -> None:
        if ctx.tree is None:
            return
        imports = ImportMap(ctx.tree)
        annotations: List[ast.AnnAssign] = []
        for node in ast.walk(ctx.tree):
            # ``self.attr: Bytes = ...`` anywhere (constructor bodies)
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"):
                annotations.append(node)
            # bare ``attr: Bytes`` only directly in a class body — a
            # *local* annotated the same way must not leak into the
            # attribute namespace
            if isinstance(node, ast.ClassDef):
                annotations.extend(
                    stmt for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
        for node in annotations:
            attr = (node.target.id if isinstance(node.target, ast.Name)
                    else node.target.attr)  # type: ignore[union-attr]
            full = resolve_call_name(node.annotation, imports)
            symbol = _units_symbol(full)
            if symbol not in ANNOTATION_DIMS:
                continue
            dim = ANNOTATION_DIMS[symbol]
            if attr in self._attr_dims and self._attr_dims[attr] != dim:
                self._attr_dims[attr] = None  # conflicting: unusable
            else:
                self._attr_dims[attr] = dim

    def check(
        self, ctx: "FileContext", project: "ProjectIndex", config: LintConfig
    ) -> Iterable[Finding]:
        if ctx.tree is None or not self._in_scope(ctx.relpath):
            return []
        imports = ImportMap(ctx.tree)
        attr_dims = {a: d for a, d in self._attr_dims.items() if d is not None}
        findings: List[Finding] = []
        module_body = list(getattr(ctx.tree, "body", []))
        checker = _FunctionChecker(self, ctx, imports, attr_dims, ctx.tree)
        checker.run(module_body)
        findings.extend(checker.findings)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_checker = _FunctionChecker(self, ctx, imports, attr_dims, node)
                fn_checker.run(node.body)
                findings.extend(fn_checker.findings)
        return findings

    @staticmethod
    def _in_scope(relpath: str) -> bool:
        posix = relpath.replace("\\", "/")
        if any(posix.endswith(suffix) for suffix in EXEMPT_SUFFIXES):
            return False
        segments = set(posix.split("/")[:-1])
        return bool(segments & CHECKED_PACKAGES)
