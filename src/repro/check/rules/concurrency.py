"""Concurrency-discipline rules for the lock-free aggregation path.

The paper's Algorithm 3 is correct because *all* cross-thread state
flows through the 16-byte CAS record (:class:`AtomicPairArray`), and
because workers never block each other.  Two rules keep that true as the
code grows:

* ``lock-in-lockfree-path`` — no new blocking primitives
  (``threading.Lock`` & friends) inside ``repro/rabbit/`` or
  ``repro/parallel/``.  The sharded locks that *implement* the atomics
  are the intentional, suppressed exceptions.
* ``private-atomic-state`` — nothing outside the owning layer may reach
  into concurrent private storage: :class:`AtomicPairArray`'s arrays
  (``_degree``, ``_child``, ``_locks``, ``_lock_for``) or the other
  protected attributes of the ownership table.  Shared mutable state is
  only touched through the owner's operations (``load``/``swap``/``cas``)
  or the quiesced bulk views.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.astutil import collect_imports
from repro.check.engine import FileContext, Finding, Rule, register_rule
from repro.check.facts import lexical_owner_files

__all__ = ["LockInLockfreePath", "PrivateAtomicState"]

#: Blocking primitives whose construction the rule flags.
_BLOCKING = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}

#: Private concurrent-state attributes, each mapped to the owner files
#: allowed to touch them.  The protected attrs and their owning modules
#: come from the shared ownership table
#: (:func:`repro.check.facts.lexical_owner_files`) so this rule and the
#: interprocedural ``state-ownership`` analyzer never disagree on who
#: owns what; the lock internals below are extra — they are atomic-layer
#: implementation details rather than protocol state, so only the
#: lexical rule polices them.
_PRIVATE_STATE_OWNERS: dict[str, tuple[str, ...]] = {
    **lexical_owner_files(),
    "_locks": ("repro/parallel/atomics.py",),
    "_lock_for": ("repro/parallel/atomics.py",),
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
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith("threading.") and (
                resolved.split(".", 1)[1] in _BLOCKING
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"blocking primitive {resolved}() constructed on the "
                    "lock-free aggregation path; synchronise through "
                    "AtomicPairArray/AtomicCounter instead",
                )


class PrivateAtomicState(Rule):
    id = "private-atomic-state"
    rationale = (
        "All cross-thread state must flow through its owning layer's "
        "public operations (load/swap/cas on the atomic record); "
        "touching the private storage bypasses both the locking and the "
        "race detector's instrumentation."
    )
    scope = ("repro/rabbit/", "repro/parallel/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            owners = _PRIVATE_STATE_OWNERS.get(node.attr)
            if owners is None or any(ctx.rel.endswith(o) for o in owners):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"access to concurrent-layer private state .{node.attr} "
                f"(owned by {', '.join(owners)}); use the owner's public "
                "operations or the *_view() bulk accessors",
            )


register_rule(LockInLockfreePath())
register_rule(PrivateAtomicState())
