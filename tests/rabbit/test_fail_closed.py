"""Every walk over a dendrogram's child/sibling links fails closed on
links that are not a forest (the shared ``NOT_FORESTS`` table).

A walk that meets the damage raises ``GraphFormatError`` with the case's
phrase; one that cannot see it (see ``not_forests``) returns.  The
auditor reports the damage as a ``forest:`` violation instead of raising,
and crash recovery raises ``AuditError``.  The ``alarm`` fixture turns a
walk that never ends into a failure within seconds.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.community.dendrogram import chain_walk, dfs_preorder
from repro.errors import AuditError, GraphFormatError
from repro.graph import CSRGraph
from repro.order.rabbit_adapter import dendrogram_critical_path
from repro.parallel.atomics import INVALID_DEGREE, AtomicPairArray
from repro.rabbit import ordering_generation_seq
from repro.rabbit.audit import audit_dendrogram
from repro.rabbit.common import AggregationState
from repro.rabbit.par import _recover_from_faults, _subtree_degree
from tests.rabbit.not_forests import NOT_FORESTS

pytestmark = pytest.mark.usefixtures("alarm")

CASES = sorted(NOT_FORESTS)

#: Walks from every root: they meet every case.
FROM_THE_ROOTS = {
    "dfs_preorder": lambda d: dfs_preorder(d.child, d.sibling, d.toplevel),
    "dfs_visit_order": lambda d: d.dfs_visit_order(),
    "ordering": lambda d: d.ordering(),
    "validate": lambda d: d.validate(),
    "ordering_generation_seq": ordering_generation_seq,
    "critical_path": lambda d: dendrogram_critical_path(
        d, np.ones(d.num_vertices)
    ),
    "community_labels": lambda d: d.community_labels(),
}

#: Walks from one root at a time.
FROM_ONE_ROOT = {
    "members": lambda d: [d.members(int(r)) for r in d.toplevel],
}

#: Walks along child→sibling chains, which read no roots.
ALONG_CHAINS = {
    "chain_walk": lambda d: chain_walk(d.child, d.sibling, range(d.num_vertices)),
    "children": lambda d: [d.children(v) for v in range(d.num_vertices)],
}

#: Chain walks that follow one vertex's chain per call, so a vertex
#: linked from two heads is never seen twice by one walk.
ONE_CHAIN_PER_CALL = {"children"}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("walk", sorted(FROM_THE_ROOTS))
def test_walks_from_the_roots_raise(walk, name):
    case = NOT_FORESTS[name]
    with pytest.raises(GraphFormatError, match=case.phrase):
        FROM_THE_ROOTS[walk](case.dendrogram)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("walk", sorted(FROM_ONE_ROOT))
def test_walks_from_one_root(walk, name):
    case = NOT_FORESTS[name]
    if case.between_roots:
        FROM_ONE_ROOT[walk](case.dendrogram)  # each subtree alone is a tree
        return
    with pytest.raises(GraphFormatError, match=case.phrase):
        FROM_ONE_ROOT[walk](case.dendrogram)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("walk", sorted(ALONG_CHAINS))
def test_walks_along_chains(walk, name):
    case = NOT_FORESTS[name]
    linked_twice = case.linked_twice and walk not in ONE_CHAIN_PER_CALL
    if not (case.in_chains or linked_twice):
        ALONG_CHAINS[walk](case.dendrogram)  # every chain ends in range
        return
    with pytest.raises(GraphFormatError, match=case.phrase):
        ALONG_CHAINS[walk](case.dendrogram)


@pytest.mark.parametrize("name", CASES)
def test_audit_reports_a_forest_violation(name):
    case = NOT_FORESTS[name]
    graph = CSRGraph.empty(case.dendrogram.num_vertices)
    report = audit_dendrogram(graph, case.dendrogram)
    forest = [v for v in report.violations if v.startswith("forest: ")]
    assert len(forest) == 1
    assert re.search(case.phrase, forest[0])
    assert "forest" not in report.passed


@pytest.mark.parametrize("name", CASES)
def test_degree_restore_raises_audit_error(name):
    case = NOT_FORESTS[name]
    d = case.dendrogram
    base = np.ones(d.num_vertices)

    def restore_every_root():
        return [_subtree_degree(d.child, d.sibling, base, r) for r in d.toplevel]

    if case.between_roots:
        restore_every_root()
        return
    with pytest.raises(AuditError, match=case.phrase):
        restore_every_root()


@pytest.mark.parametrize(
    "name",
    [name for name in CASES
     if NOT_FORESTS[name].in_chains or NOT_FORESTS[name].linked_twice],
)
def test_recovery_raises_audit_error(name):
    """Recovery's parent scan reads every chain of the live arrays."""
    d = NOT_FORESTS[name].dendrogram
    n = d.num_vertices
    state = AggregationState.initialize(CSRGraph.empty(n))
    atoms = AtomicPairArray(np.ones(n))
    atoms.children_view()[:] = d.child
    atoms.degrees_view()[:] = INVALID_DEGREE
    state.child = atoms.children_view()
    state.sibling[:] = d.sibling
    with pytest.raises(AuditError, match=NOT_FORESTS[name].phrase):
        _recover_from_faults(
            state, atoms, np.ones(n), [], np.ones(n, dtype=bool),
            vertex_work=np.zeros(n, dtype=np.int64),
            merge_threshold=0.0, max_attempts=4,
        )
