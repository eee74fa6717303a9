"""Concurrency discipline for the lock-free aggregation path.

The paper's Algorithm 3 is correct because *all* cross-thread state
flows through the 16-byte CAS record (:class:`AtomicPairArray`), and
because workers never block each other.  ``lock-in-lockfree-path``
keeps the second half true as the code grows: no blocking primitive
(``threading.Lock`` & friends) is named inside ``repro/rabbit/`` or
``repro/parallel/`` — called, passed as a ``default_factory``, or
annotated, one finding per reference.  The first half — nobody outside
the atomic layer touches its private storage — is the
``state-ownership`` analyzer's (:mod:`repro.check.analyzers.ownership`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.astutil import collect_imports
from repro.check.engine import FileContext, Finding, Rule, register_rule

__all__ = ["LockInLockfreePath"]

#: Blocking primitives whose every reference the rule flags.
_BLOCKING = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}


class LockInLockfreePath(Rule):
    id = "lock-in-lockfree-path"
    rationale = (
        "Algorithm 3 is lock-free: workers synchronise only through the "
        "CAS record.  A blocking primitive introduced into the worker "
        "path silently changes the concurrency model the paper's claims "
        "(and the scalability cost model) rest on."
    )
    scope = ("repro/rabbit/", "repro/parallel/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = collect_imports(ctx.tree)
        called = {
            id(node.func) for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            resolved = imports.resolve(node)
            if resolved is None or not resolved.startswith("threading."):
                continue
            if resolved.split(".", 1)[1] not in _BLOCKING:
                continue
            use = (
                f"{resolved}() constructed" if id(node) in called
                else f"{resolved} referenced"
            )
            yield ctx.finding(
                self.id,
                node,
                f"blocking primitive {use} on the lock-free aggregation "
                "path; synchronise through AtomicPairArray instead",
            )


register_rule(LockInLockfreePath())
