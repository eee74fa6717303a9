"""Async-reachability: blocking sinks reachable from coroutines.

The daemon's whole concurrency story is one event loop shuffling frames
while blocking work runs on an executor; a single ``time.sleep``/
``open``/``subprocess.run`` on the loop stalls *every* connection —
including the ``status`` probes an operator uses to diagnose exactly
that stall.  The call can sit in the coroutine itself or any number of
sync hops away::

    async def handle(self, req):       # on the event loop
        meta = self._describe(req)     # sync helper — looks harmless

    def _describe(self, req):
        return Path(req.path).read_text()   # blocks the whole loop

This analyzer walks the project call graph from every coroutine along
``direct``/``method``/``registry`` edges — *not* ``executor``/``spawn``
edges, since a function reference handed to ``run_in_executor`` (or a
thread) is exactly the sanctioned way off the loop — and flags every
blocking sink reached, whether the coroutine calls it directly or
through sync helpers.  A nested sync ``def`` is its own call-graph node
and a lambda body is skipped, so handing either to the executor keeps
its calls off the loop; a module that binds ``open`` to something else
(``from gzip import open``) is not calling the builtin.

Findings land at the sink call line (suppressible there) with the full
coroutine→helper→sink path in ``Finding.trace``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.check.callgraph import DYNAMIC_PREFIX
from repro.check.engine import FileContext, Finding, Rule, register_rule
from repro.check.interproc import format_path, project_state

__all__ = ["AsyncBlockingReachable"]

#: dotted blocking callables -> remediation advice
_BLOCKING_SINKS: Dict[str, str] = {
    "time.sleep": "use 'await asyncio.sleep(...)' or run the helper on the executor",
    "io.open": "do file IO via loop.run_in_executor",
    "open": "do file IO via loop.run_in_executor",
    "subprocess.run": "use asyncio.create_subprocess_exec, or the executor",
    "subprocess.call": "use asyncio.create_subprocess_exec, or the executor",
    "subprocess.check_call": "use asyncio.create_subprocess_exec, or the executor",
    "subprocess.check_output": "use asyncio.create_subprocess_exec, or the executor",
    "subprocess.Popen": "use asyncio.create_subprocess_exec, or the executor",
    "os.system": "use asyncio.create_subprocess_exec, or the executor",
    "socket.create_connection": "use asyncio.open_connection",
    "urllib.request.urlopen": "use an executor thread for HTTP",
}

#: method names that block regardless of receiver type (Path IO);
#: matched against dynamic (untyped-receiver) call edges
_DYNAMIC_SINKS: Dict[str, str] = {
    "read_text": "Path.read_text blocks; run it on the executor",
    "write_text": "Path.write_text blocks; run it on the executor",
    "read_bytes": "Path.read_bytes blocks; run it on the executor",
    "write_bytes": "Path.write_bytes blocks; run it on the executor",
}

#: edge kinds the walk follows/yields.  ``external``/``dynamic`` callees
#: are not graph nodes, so including them yields the sink edges without
#: traversing past them; ``executor``/``spawn`` stay excluded (handing a
#: reference off the loop is the sanctioned pattern).
_TRAVERSE_KINDS: Set[str] = {"direct", "method", "registry", "external", "dynamic"}


class AsyncBlockingReachable(Rule):
    id = "async-blocking-reachable"
    rationale = (
        "A blocking call on the daemon's event loop, written in a "
        "coroutine or reached from one through sync helpers, stalls every "
        "connection at once (the status probes used to diagnose the stall "
        "included); blocking work belongs on the executor via "
        "loop.run_in_executor."
    )
    project_wide = True

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        state = project_state(ctxs)
        graph = state.graph
        roots = sorted(n.qualname for n in graph.async_nodes())
        if not roots:
            return
        seen: Set[Tuple[str, int, str]] = set()
        by_rel = {ctx.rel: ctx for ctx in ctxs}
        for edge, path in state.walk_paths(roots, kinds=_TRAVERSE_KINDS):
            caller = graph.nodes.get(edge.caller)
            if caller is None:
                continue
            sink = _sink_advice(edge.callee)
            if sink is None:
                continue
            key = (edge.path, edge.line, edge.callee)
            if key in seen:
                continue
            seen.add(key)
            ctx = by_rel.get(edge.path)
            if ctx is None:
                continue
            label = edge.callee
            if label.startswith(DYNAMIC_PREFIX + "."):
                label = label[len(DYNAMIC_PREFIX) + 1:] + " (on an untyped receiver)"
            trace = format_path(state, path) + (
                f"{label} called at {edge.path}:{edge.line}",
            )
            if caller.is_async:
                origin = f"called directly in coroutine {edge.caller}"
            else:
                origin = (
                    f"reachable from coroutine {path[0]} through sync "
                    f"helper {edge.caller.rsplit('.', 1)[-1]}()"
                )
            yield ctx.finding_at(
                self.id,
                edge.line,
                f"blocking {label} is {origin}; {sink}",
                col=edge.col,
                trace=trace,
            )


def _sink_advice(callee: str) -> str | None:
    advice = _BLOCKING_SINKS.get(callee)
    if advice is not None:
        return advice
    if callee.startswith(DYNAMIC_PREFIX + "."):
        return _DYNAMIC_SINKS.get(callee[len(DYNAMIC_PREFIX) + 1:])
    return None


register_rule(AsyncBlockingReachable())
