"""Shared-state ownership: protected state is touched only by its owners.

The lock-free CAS + lazy-aggregation protocol is only safe because each
piece of shared state has exactly one sanctioned write path: the CAS
record changes only through ``cas``/``swap``, the serve cache's memory
tier only through ``get``/``put``.  The dynamic race detector (:mod:`repro.check.races`)
certifies this *for the schedules it runs*; this analyzer is the static
complement, checking every call path the code can express.

Driven by the declared facts table
(:data:`repro.check.facts.OWNERSHIP_FACTS`).  Two classes of finding:

* a **foreign access**: any read, write or method call of a protected
  attribute (``atoms._degree[i]``, ``cache._memory``,
  ``atoms._child.copy()``) in a module under ``repro/`` outside the
  attribute's owner set, module level included, and
* an **escaped mutator**: a function inside the owner module that
  writes the attribute, is *not* a declared protocol entry point, and
  is reachable through the call graph from outside the owner set
  without crossing an entry point.  The finding lands on the write
  (the sink) with the offending caller chain in ``Finding.trace``.

Mutation is an attribute store/aug-store/delete, a store through a
subscript of the attribute, or an in-place container call
(``.append``/``.pop``/...) on the attribute.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence

from repro.check.callgraph import FuncDef
from repro.check.engine import FileContext, Finding, Rule, register_rule
from repro.check.facts import OWNERSHIP_FACTS, OwnershipFact
from repro.check.interproc import ProjectState, format_path, project_state

__all__ = ["StateOwnership"]

#: container methods that mutate their receiver in place
_MUTATOR_METHODS = {
    "append", "extend", "insert", "pop", "popitem", "clear", "remove",
    "sort", "update", "setdefault", "move_to_end", "fill",
}


def _attr_of(node: ast.AST, attr: str) -> Optional[ast.Attribute]:
    """The ``<expr>.attr`` attribute node if *node* targets it (directly
    or through one subscript level), else ``None``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr == attr:
        return node
    return None


def _writes_in(body: Iterator[ast.AST], attr: str) -> List[ast.AST]:
    """Every mutation of ``.attr`` among *body* nodes."""
    writes: List[ast.AST] = []
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if _attr_of(target, attr) is not None:
                    writes.append(node)
                    break
        elif isinstance(node, ast.Delete):
            if any(_attr_of(t, attr) is not None for t in node.targets):
                writes.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and _attr_of(func.value, attr) is not None
            ):
                writes.append(node)
    return writes


def _function_body(fnode: FuncDef) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(fnode.body)
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


class StateOwnership(Rule):
    id = "state-ownership"
    rationale = (
        "All cross-thread state flows through its owner's protocol "
        "(load/swap/cas on the atomic record, get/put on the cache); "
        "touching the private storage from outside, or reaching an "
        "internal writer around the protocol, bypasses the single-writer "
        "discipline, the locking and the race detector's instrumentation."
    )
    project_wide = True

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        state = project_state(ctxs)
        by_attr = {fact.attr: fact for fact in OWNERSHIP_FACTS}
        for ctx in ctxs:
            if ctx.module is not None:
                yield from self._foreign_accesses(ctx, ctx.module, by_attr)
        for fact in OWNERSHIP_FACTS:
            yield from self._escaped_mutators(state, fact)

    def _foreign_accesses(
        self, ctx: FileContext, module: str, by_attr: Dict[str, OwnershipFact]
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            fact = by_attr.get(node.attr)
            if fact is None or module in fact.owner_modules:
                continue
            yield ctx.finding(
                self.id,
                node,
                f"access to protected .{fact.attr} ({fact.note}) outside "
                f"its owner module(s) {', '.join(fact.owner_modules)}; go "
                "through the owner's protocol operations instead",
            )

    def _escaped_mutators(
        self, state: ProjectState, fact: OwnershipFact
    ) -> Iterator[Finding]:
        owners = set(fact.owner_modules)
        entries = set(fact.entry_points)
        for qualname, (ctx, fnode) in sorted(state.graph.functions.items()):
            node = state.graph.nodes.get(qualname)
            if node is None or node.module not in owners or qualname in entries:
                continue
            writes = _writes_in(_function_body(fnode), fact.attr)
            if not writes:
                continue
            chains = state.outside_paths(
                qualname,
                inside_modules=owners,
                entry_points=entries,
                match_dynamic=True,
            )
            if not chains:
                continue
            chain = chains[0]
            extra = (
                f" (+{len(chains) - 1} more caller chain(s))"
                if len(chains) > 1
                else ""
            )
            for write in writes:
                trace = format_path(state, chain) + (
                    f"writes .{fact.attr} at {ctx.rel}:"
                    f"{int(getattr(write, 'lineno', node.line))}",
                )
                yield ctx.finding(
                    self.id,
                    write,
                    f"non-entry-point mutator {qualname.rsplit('.', 1)[-1]}() "
                    f"writes protected .{fact.attr} and is reachable from "
                    f"{chain[0]} outside the owner protocol{extra}; declare "
                    "it an entry point in the facts table or route callers "
                    "through the protocol",
                    trace=trace,
                )


register_rule(StateOwnership())
