"""BFS ordering and (Reverse) Cuthill-McKee."""

import numpy as np
import pytest

from repro.analysis.diameter import pseudo_diameter
from repro.analysis.traversal import bfs
from repro.graph import CSRGraph, invert_permutation, random_permutation
from repro.graph.generators import rmat_graph, road_lattice_graph
from repro.graph.perm import permutation_from_order
from repro.metrics import bandwidth
from repro.order import bfs_order, cuthill_mckee_order, rcm_order
from repro.order.base import OrderingStats
from tests.conftest import GRAPH_ZOO


class TestBFSOrder:
    def test_level_contiguity(self, paper_graph_unweighted):
        from repro.analysis.traversal import bfs_forest

        res = bfs_order(paper_graph_unweighted)
        order = invert_permutation(res.permutation)
        levels = bfs_forest(paper_graph_unweighted).level[order]
        # Visit order is level-monotone within a component traversal.
        assert np.all(np.diff(levels) >= -max(levels))

    def test_levels_recorded(self, paper_graph):
        res = bfs_order(paper_graph)
        assert res.extra["levels"] >= 1


class TestRCM:
    def test_reduces_bandwidth_on_banded_matrix(self):
        """RCM's home turf: a shuffled path graph should return to a
        bandwidth close to 1."""
        n = 60
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        shuffled = g.permute(random_permutation(n, rng=0))
        res = rcm_order(shuffled)
        assert bandwidth(shuffled.permute(res.permutation)) <= 2

    def test_reduces_bandwidth_on_road_graph(self):
        g = road_lattice_graph(12, 12, rng=1)
        res = rcm_order(g)
        assert bandwidth(g.permute(res.permutation)) < bandwidth(g)

    def test_rcm_is_reverse_of_cm(self, paper_graph):
        cm = cuthill_mckee_order(paper_graph)
        rcm = rcm_order(paper_graph)
        n = paper_graph.num_vertices
        cm_order = invert_permutation(cm.permutation)
        rcm_order_ = invert_permutation(rcm.permutation)
        assert np.array_equal(cm_order[::-1], rcm_order_)

    def test_handles_disconnected(self):
        g = CSRGraph.from_edges([0, 3], [1, 4], num_vertices=6)
        res = rcm_order(g)
        assert res.permutation.size == 6

    def test_span_tracks_levels(self):
        n = 40
        path = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        star = CSRGraph.from_edges(np.zeros(n - 1, dtype=int), np.arange(1, n))
        # A path has ~n BFS levels; a star has 2: spans must reflect it.
        assert rcm_order(path).stats.span > rcm_order(star).stats.span



def _reference_cm(graph):
    """Cuthill–McKee one component at a time through the public
    ``pseudo_diameter`` and ``bfs``, each on fresh arrays: the reference
    for the shared-state forest and its isolated-vertex shortcut."""
    stats = OrderingStats()
    visited = np.zeros(graph.num_vertices, dtype=bool)
    degrees = graph.degrees()
    chunks = [np.empty(0, dtype=np.int64)]
    for s in np.argsort(degrees, kind="stable"):
        if visited[s]:
            continue
        pd = pseudo_diameter(graph, source=int(s))
        r = bfs(graph, pd.endpoints[1], sorted_neighbors=True)
        visited[r.order] = True
        chunks.append(r.order)
        levels = r.eccentricity + 1
        work = float(degrees[r.order].sum() + r.order.size)
        sweeps = float(pd.num_sweeps)
        stats.add("peripheral", work=sweeps * work, span=sweeps * levels,
                  barriers=sweeps * levels)
        stats.add("bfs", work=work, span=float(levels), barriers=float(levels))
    return np.concatenate(chunks), stats


CM_GRAPHS = {
    **GRAPH_ZOO,
    "rmat-isolated": rmat_graph(8, edge_factor=2, rng=1),
    "loops-and-isolated": CSRGraph.from_edges([0, 3, 3], [1, 4, 3], num_vertices=8),
}


@pytest.mark.parametrize("name", sorted(CM_GRAPHS))
def test_cm_matches_the_per_component_reference(name):
    g = CM_GRAPHS[name]
    order, stats = _reference_cm(g)
    cm = cuthill_mckee_order(g)
    assert np.array_equal(cm.permutation, permutation_from_order(order))
    assert (cm.stats.work, cm.stats.span, cm.stats.barriers) == (
        stats.work, stats.span, stats.barriers)
    assert cm.stats.phases == stats.phases
