"""Declared facts the interprocedural analyzers consume.

Static analysis of a dynamic language needs a small amount of ground
truth that no resolver can recover: which registry tables dispatch to
what, and which private arrays belong to which protocol.  Both live
here, as plain reviewable data.

Two tables:

* :data:`DISPATCH_EDGES` — call edges that exist at runtime through
  table-driven dispatch (the Table III ordering registry).  The call-graph builder adds them with kind
  ``registry`` so reachability analyses see through the tables.  A fact
  that no longer binds to a real function is surfaced by the self-host
  test (``CallGraph.unbound_facts``) — facts must not rot.

* :data:`OWNERSHIP_FACTS` — the shared-state ownership table: each
  protected attribute (the atomic record's two arrays, the serve
  cache's LRU dict, the daemon's coalescing table) maps to its owning
  module(s) and the *protocol entry points* through which other
  modules are sanctioned to reach it.  The ``state-ownership`` analyzer
  flags any access to a protected attribute from outside its owners, and
  any write reachable from outside an owner context without passing
  through an entry point — the static complement of the dynamic race
  detector in :mod:`repro.check.races`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "OwnershipFact",
    "OWNERSHIP_FACTS",
    "DISPATCH_EDGES",
]


@dataclass(frozen=True)
class OwnershipFact:
    """One protected attribute and the protocol that guards it."""

    #: the private attribute name (``_degree``, ``_memory``, ...)
    attr: str
    #: dotted modules allowed to touch the attribute directly
    owner_modules: Tuple[str, ...]
    #: qualnames other modules may call to reach the state (the public
    #: protocol ops: everything else that writes the attr is internal)
    entry_points: Tuple[str, ...]
    #: one-line description for reports and docs
    note: str


OWNERSHIP_FACTS: Tuple[OwnershipFact, ...] = (
    OwnershipFact(
        attr="_degree",
        owner_modules=("repro.parallel.atomics", "repro.parallel.faults"),
        entry_points=(
            "repro.parallel.atomics.AtomicPairArray.__init__",
            "repro.parallel.atomics.AtomicPairArray.swap_degree",
            "repro.parallel.atomics.AtomicPairArray.store_degree",
            "repro.parallel.atomics.AtomicPairArray.cas",
        ),
        note="the 16-byte CAS record's degree half (Algorithm 3)",
    ),
    OwnershipFact(
        attr="_child",
        owner_modules=("repro.parallel.atomics", "repro.parallel.faults"),
        entry_points=(
            "repro.parallel.atomics.AtomicPairArray.__init__",
            "repro.parallel.atomics.AtomicPairArray.cas",
        ),
        note="the CAS record's child half",
    ),
    OwnershipFact(
        attr="_memory",
        owner_modules=("repro.serve.cache",),
        entry_points=(
            "repro.serve.cache.PermutationCache.__init__",
            "repro.serve.cache.PermutationCache.get",
            "repro.serve.cache.PermutationCache.put",
        ),
        note="the permutation cache's memory-tier LRU dict",
    ),
    OwnershipFact(
        attr="_inflight",
        owner_modules=("repro.serve.daemon",),
        entry_points=(
            "repro.serve.daemon.ReorderServer.__init__",
            "repro.serve.daemon.ReorderServer._permutation_for",
        ),
        note="the daemon's request-coalescing table (event-loop only)",
    ),
)


#: (caller qualname, callee qualname, why the edge exists) — dynamic
#: dispatch no static resolver can see.  Keep in sync with the tables
#: they describe; the self-host test fails on unbound facts.
DISPATCH_EDGES: Tuple[Tuple[str, str, str], ...] = (
    # The Table III ordering registry: get_algorithm() hands out every
    # registered ordering callable (each wrapped by traced_ordering).
    *(
        (
            "repro.order.registry.get_algorithm",
            callee,
            "ALGORITHMS registry dispatch",
        )
        for callee in (
            "repro.order.rabbit_adapter.rabbit_order_result",
            "repro.order.rabbit_adapter.rabbit_dict_order_result",
            "repro.order.rabbit_adapter.rabbit_par_order_result",
            "repro.order.slashburn.slashburn_order",
            "repro.order.bfs_rcm.bfs_order",
            "repro.order.bfs_rcm.rcm_order",
            "repro.order.bfs_rcm.cuthill_mckee_order",
            "repro.order.nd.nd_order",
            "repro.order.llp.llp_order",
            "repro.order.shingle.shingle_order",
            "repro.order.simple.degree_order",
            "repro.order.simple.random_order",
        )
    ),
)
