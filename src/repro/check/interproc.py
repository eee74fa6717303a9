"""Shared interprocedural-analysis state and traversal helpers.

The three dataflow analyzers (:mod:`repro.check.analyzers`) are ordinary
project-wide lint rules, but they all need the same expensive artifact:
the project call graph.  :func:`project_state` builds it once per
``run_check`` invocation and memoises on the identity of the parsed
file set, so running all three analyzers costs one graph build.

On top of the raw graph this module provides the traversals the
analyzers share:

* :meth:`ProjectState.walk_paths` — BFS from a set of roots along
  selected edge kinds, yielding each reached edge with the *shortest
  call path* from its nearest root (used to attach a human-readable
  call chain to every finding).
* :meth:`ProjectState.outside_paths` — reverse reachability from a
  function to callers outside a module set, stopping at sanctioned
  entry points (the ownership analyzer's core question).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.callgraph import (
    DYNAMIC_PREFIX,
    CallEdge,
    CallGraph,
    build_callgraph,
)
from repro.check.engine import FileContext

__all__ = ["ProjectState", "project_state", "format_path"]


@dataclass
class ProjectState:
    """Everything interprocedural analyzers share for one file set."""

    ctxs: List[FileContext]
    graph: CallGraph

    # -- forward traversal -----------------------------------------------
    def walk_paths(
        self,
        roots: Sequence[str],
        *,
        kinds: Set[str],
    ) -> Iterator[Tuple[CallEdge, Tuple[str, ...]]]:
        """BFS from *roots* along edges whose kind is in *kinds*.

        Yields every traversed edge together with the call path
        ``(root, ..., caller)`` that reached its caller — the shortest
        one, since the walk is breadth-first.  Each callee node is
        expanded once (first, shortest reach wins); every edge out of an
        expanded node is still yielded exactly once.
        """
        parents: Dict[str, Tuple[str, ...]] = {r: (r,) for r in roots}
        queue: List[str] = list(roots)
        seen: Set[str] = set(roots)
        while queue:
            current = queue.pop(0)
            path = parents[current]
            for edge in self.graph.out_edges(current):
                if edge.kind not in kinds:
                    continue
                yield edge, path
                callee = edge.callee
                if callee in seen or callee not in self.graph.nodes:
                    continue
                seen.add(callee)
                parents[callee] = path + (callee,)
                queue.append(callee)

    # -- reverse traversal -----------------------------------------------
    def outside_paths(
        self,
        target: str,
        *,
        inside_modules: Set[str],
        entry_points: Set[str],
        kinds: Optional[Set[str]] = None,
        match_dynamic: bool = False,
    ) -> List[Tuple[str, ...]]:
        """Caller chains that reach *target* from outside *inside_modules*
        without passing through a sanctioned entry point.

        Walks the call graph backwards from *target*.  A chain stops
        (sanctioned) when it hits an entry point; it is reported when it
        reaches a function whose module is not in *inside_modules*.
        Returns the shortest offending chain per outside caller, ordered
        caller-first (``(outsider, ..., target)``).

        With *match_dynamic*, a method node also collects callers of
        ``<dyn>.<name>`` — attribute calls whose receiver the builder
        could not type.  Name-keyed and therefore conservative, but the
        typical protected-state caller receives the object as a
        parameter, which is exactly the untyped case.
        """
        if kinds is None:
            kinds = {"direct", "method", "registry", "executor", "spawn"}
        if match_dynamic:
            kinds = kinds | {"dynamic"}
        found: Dict[str, Tuple[str, ...]] = {}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(target, (target,))]
        seen: Set[str] = {target}
        while queue:
            current, path = queue.pop(0)
            in_edges = list(self.graph.in_edges(current))
            node_kind = self.graph.nodes.get(current)
            if match_dynamic and node_kind is not None and node_kind.kind == "method":
                alias = f"{DYNAMIC_PREFIX}.{current.rsplit('.', 1)[-1]}"
                in_edges.extend(self.graph.in_edges(alias))
            for edge in in_edges:
                if edge.kind not in kinds:
                    continue
                caller = edge.caller
                if caller in entry_points:
                    continue  # sanctioned protocol boundary
                node = self.graph.nodes.get(caller)
                if node is None:
                    continue
                if node.module not in inside_modules:
                    if caller not in found:
                        found[caller] = (caller,) + path
                    continue
                if caller in seen:
                    continue
                seen.add(caller)
                queue.append((caller, (caller,) + path))
        return [found[k] for k in sorted(found)]

    def node_line(self, qualname: str) -> str:
        node = self.graph.nodes.get(qualname)
        if node is None:
            return qualname
        return f"{qualname} ({node.path}:{node.line})"


def format_path(state: ProjectState, path: Sequence[str]) -> Tuple[str, ...]:
    """Render a qualname chain with file:line anchors for reports."""
    return tuple(state.node_line(q) for q in path)


_CACHE: Dict[Tuple[int, ...], ProjectState] = {}


def project_state(ctxs: Sequence[FileContext]) -> ProjectState:
    """The memoised :class:`ProjectState` for this exact set of parsed
    files (identity-keyed: one build per ``run_check`` invocation)."""
    key = tuple(sorted(id(ctx) for ctx in ctxs))
    state = _CACHE.get(key)
    if state is None:
        state = ProjectState(ctxs=list(ctxs), graph=build_callgraph(ctxs))
        _CACHE.clear()  # keep exactly one build alive
        _CACHE[key] = state
    return state
