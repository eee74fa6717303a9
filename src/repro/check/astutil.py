"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set

__all__ = ["ImportMap", "collect_imports", "dotted_name", "module_level_nodes"]


@dataclass
class ImportMap:
    """Aliases a module's imports bind, resolved to dotted origins.

    ``aliases`` maps each bound local name to the dotted thing it refers
    to — ``import numpy as np`` binds ``np -> numpy``; ``from threading
    import Lock as L`` binds ``L -> threading.Lock``.
    """

    aliases: Dict[str, str] = field(default_factory=dict)
    #: dotted modules imported at module (or class) level, in order
    module_imports: Dict[str, int] = field(default_factory=dict)
    #: dotted modules imported anywhere (including inside functions)
    all_imports: Dict[str, int] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its dotted origin.

        Returns ``None`` when the chain's head was never imported — a
        local variable that merely shadows a module name must not
        trigger module-targeted rules.
        """
        chain = dotted_name(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains as a dotted string."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_level_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Yield statements executed at import time: module body plus class
    bodies, *not* function bodies (lazy imports break cycles at runtime
    and are an accepted pattern in this codebase, e.g. the CLI)."""
    stack = list(getattr(tree, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(getattr(node, "body", []))
        stack.extend(getattr(node, "orelse", []))
        stack.extend(getattr(node, "finalbody", []))
        for handler in getattr(node, "handlers", []):
            stack.extend(handler.body)


def collect_imports(tree: ast.AST) -> ImportMap:
    """Build the :class:`ImportMap` of a module AST."""
    imports = ImportMap()
    toplevel: Set[int] = {id(n) for n in module_level_nodes(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imports.aliases.setdefault(
                    bound, alias.name if alias.asname else bound
                )
                _record(imports, alias.name, node, toplevel)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: not used in this tree
                continue
            base = node.module or ""
            for alias in node.names:
                dotted = f"{base}.{alias.name}" if base else alias.name
                imports.aliases.setdefault(alias.asname or alias.name, dotted)
                _record(imports, dotted, node, toplevel)
    return imports


def _record(
    imports: ImportMap, dotted: str, node: ast.AST, toplevel: Set[int]
) -> None:
    lineno = int(getattr(node, "lineno", 1))
    imports.all_imports.setdefault(dotted, lineno)
    if id(node) in toplevel:
        imports.module_imports.setdefault(dotted, lineno)
