"""Small AST helpers shared by the rules: the wall-clock call table,
import resolution, dotted names, and block termination."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

__all__ = [
    "WALLCLOCK_CALLS",
    "ImportMap",
    "dotted_name",
    "resolve_call_name",
    "block_terminates",
]


#: fully qualified callables that read the host clock
WALLCLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


class ImportMap:
    """Local alias -> fully qualified dotted prefix for one module.

    ``import numpy as np``          maps ``np -> numpy``;
    ``from datetime import datetime`` maps ``datetime -> datetime.datetime``;
    ``from time import perf_counter as pc`` maps ``pc -> time.perf_counter``.
    Relative imports keep their leading dots so they never collide with
    the absolute names the rules match against.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.aliases[local] = full
            elif isinstance(node, ast.ImportFrom):
                module = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, root: str) -> Optional[str]:
        return self.aliases.get(root)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything richer."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_name(func: ast.AST, imports: ImportMap) -> Optional[str]:
    """Fully qualified dotted name of a call target, import-aware.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` aliases ``numpy``; unresolvable roots (locals, ``self``)
    return the raw dotted chain so suffix checks still work.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    full_root = imports.resolve(root)
    if full_root is None:
        return dotted
    return f"{full_root}.{rest}" if rest else full_root


def block_terminates(stmts: List[ast.stmt]) -> bool:
    """True when control cannot fall off the end of the statement list
    (last statement returns, raises, breaks, or continues)."""
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.If) and last.orelse:
        return block_terminates(last.body) and block_terminates(last.orelse)
    return False
