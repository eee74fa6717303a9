"""BFS and DFS; the compiled BFS walk against its numpy oracle."""

import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.components import connected_components
from repro.analysis.traversal import (
    UNREACHED,
    _numpy_walk,
    bfs,
    bfs_forest,
    dfs,
    dfs_forest,
)
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph, road_lattice_graph
from repro.obs import trace
from repro.order.bfs_rcm import bfs_order, rcm_order
from repro.rabbit import native
from tests.conftest import to_networkx

requires_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


@pytest.fixture
def no_compiler(monkeypatch):
    """Forget the loaded library and hide the compiler from the loader,
    so every walk takes the numpy path."""
    monkeypatch.setattr(native, "_STATE", {})
    monkeypatch.setattr(native.shutil, "which", lambda name: None)


class TestBFS:
    def test_levels_match_networkx(self):
        import networkx as nx

        g = rmat_graph(7, rng=2)
        r = bfs(g, 0)
        sp = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v, d in sp.items():
            assert r.level[v] == d
        assert r.num_reached == len(sp)

    def test_unreached_marked(self):
        g = CSRGraph.from_edges([0, 2], [1, 3])
        r = bfs(g, 0)
        assert r.level[2] == UNREACHED and r.level[3] == UNREACHED
        assert r.parent[2] == UNREACHED

    def test_parent_is_one_level_up(self):
        g = rmat_graph(6, rng=4)
        r = bfs(g, 0)
        for v in r.order[1:]:
            p = r.parent[v]
            assert r.level[v] == r.level[p] + 1
            assert g.has_edge(int(p), int(v))

    def test_order_is_level_monotone(self):
        g = rmat_graph(6, rng=1)
        r = bfs(g, 0)
        levels = r.level[r.order]
        assert np.all(np.diff(levels) >= 0)

    def test_sorted_neighbors_orders_levels_by_degree(self):
        # Star plus chain: level 1 of the star's BFS sorted by degree.
        g = CSRGraph.from_edges([0, 0, 0, 1], [1, 2, 3, 4])
        r = bfs(g, 0, sorted_neighbors=True)
        lvl1 = [v for v in r.order if r.level[v] == 1]
        degs = g.degrees()[lvl1]
        assert np.all(np.diff(degs) >= 0)

    def test_eccentricity_path(self):
        n = 12
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        assert bfs(g, 0).eccentricity == n - 1
        assert bfs(g, n // 2).eccentricity == max(n // 2, n - 1 - n // 2)

    def test_single_vertex(self):
        r = bfs(CSRGraph.empty(1), 0)
        assert r.order.tolist() == [0]
        assert r.eccentricity == 0

    def test_invalid_source(self):
        with pytest.raises(GraphFormatError):
            bfs(CSRGraph.empty(2), 5)

    def test_forest_covers_all(self):
        g = CSRGraph.from_edges([0, 2, 4], [1, 3, 5])
        r = bfs_forest(g)
        assert sorted(r.order.tolist()) == list(range(6))
        assert np.all(r.level >= 0)

    def test_level_order_and_first_parent(self):
        # 0 reaches 3, 1 and 2 (slot order); 1 and 2 both reach 4.
        g = CSRGraph(
            indptr=np.array([0, 3, 4, 6, 6, 6]),
            indices=np.array([3, 1, 2, 4, 4, 2]),
        )
        r = bfs(g, 0)
        assert r.order.tolist() == [0, 1, 2, 3, 4]  # each level by id
        assert r.parent.tolist() == [-1, 0, 0, 0, 1]  # 1 precedes 2
        by_degree = bfs(g, 0, sorted_neighbors=True)
        assert by_degree.order.tolist() == [0, 3, 1, 2, 4]  # (degree, id)
        assert by_degree.parent.tolist() == [-1, 0, 0, 0, 1]


@pytest.mark.parametrize("engine", ["native", "numpy"])
def test_directed_forest_visits_each_vertex_once(engine, request):
    """A walk never re-enters a vertex an earlier walk reached: on
    1 -> 0 <- 2 every vertex is its own walk's seed."""
    if engine == "numpy":
        request.getfixturevalue("no_compiler")
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    g = CSRGraph.from_edges([1, 2], [0, 0], symmetrize=False)
    with trace.capture() as cap:
        r = bfs_forest(g)
    assert cap.find("analysis.bfs_forest")[0].attrs["engine"] == engine
    assert r.order.tolist() == [0, 1, 2]
    assert r.level.tolist() == [0, 0, 0]
    assert r.parent.tolist() == [-1, -1, -1]
    assert bfs_order(g).permutation.tolist() == [0, 1, 2]


@st.composite
def graphs(draw, max_n=12):
    """Directed or symmetric graphs built through the CSRGraph
    constructor: rows keep the drawn slot order, so slots come unsorted,
    duplicated and as self-loops; undrawn vertices are isolated.  A hub
    (vertex 0 pointing at every other vertex) makes levels of more than
    the compiled walk's 32-vertex insertion-sort cutoff, which its radix
    sort orders, over ids of more than one byte once ``max_n`` > 256."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * max_n))
    if draw(st.booleans()):
        pairs += [(0, v) for v in draw(st.permutations(range(1, n)))]
    if draw(st.booleans()):
        pairs += [(v, u) for u, v in pairs]
    slots = sorted(pairs, key=lambda pair: pair[0])  # stable: drawn order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([u for u, _ in slots], minlength=n), out=indptr[1:])
    indices = np.array([v for _, v in slots], dtype=np.int64)
    return CSRGraph(indptr=indptr, indices=indices)


def _both_engines(graph, seeds, visited, sorted_neighbors):
    """Run the compiled and the numpy walk from the same state."""
    out = []
    for walk in (native.bfs_walk, _numpy_walk):
        level = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        parent = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        level[visited] = 7  # visited before the walk: never entered
        order, levels = walk(graph, np.asarray(seeds, dtype=np.int64), level,
                             parent, sorted_neighbors)
        out.append((order.tolist(), levels, level.tolist(), parent.tolist()))
    return out


@requires_cc
class TestCompiledWalkMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(max_n=48), sorted_neighbors=st.booleans())
    def test_every_source(self, graph, sorted_neighbors):
        for source in range(graph.num_vertices):
            compiled, oracle = _both_engines(graph, [source], [], sorted_neighbors)
            assert compiled == oracle

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(max_n=600), sorted_neighbors=st.booleans(), data=st.data())
    def test_forest_over_shared_state(self, graph, sorted_neighbors, data):
        n = graph.num_vertices
        seeds = data.draw(st.permutations(range(n)))
        visited = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        compiled, oracle = _both_engines(graph, seeds, visited, sorted_neighbors)
        assert compiled == oracle

    def test_public_walks_report_the_engine_and_levels(self):
        g = CSRGraph.from_edges(np.arange(9), np.arange(1, 10))
        with trace.capture() as cap:
            bfs(g, 0)
            bfs_forest(g)
        (one,) = cap.find("analysis.bfs")
        assert one.attrs["engine"] == "native" and one.attrs["levels"] == 10
        (forest,) = cap.find("analysis.bfs_forest")
        assert forest.attrs["engine"] == "native" and forest.attrs["levels"] == 10


@requires_cc
def test_concurrent_walks_share_no_state():
    """The C keeps no global state and ctypes drops the GIL around it, so
    walks on one graph from several threads at once (as concurrent daemon
    analyses run them) give the sequential answers."""
    g = road_lattice_graph(120, 120, rng=3)  # levels of up to ~120 ids
    sources = list(range(0, g.num_vertices, 97))

    def walk(source):
        r = bfs(g, source, sorted_neighbors=source % 2 == 1)
        return r.order.tolist(), r.level.tolist(), r.parent.tolist()

    expected = [walk(s) for s in sources]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(walk, sources, timeout=60))
    finally:
        sys.setswitchinterval(previous)
    assert got == expected


@requires_cc
def test_no_compiler_path_returns_the_same_results(request):
    g = rmat_graph(8, edge_factor=3, rng=5)  # R-MAT leaves isolated vertices

    def run():
        walks = [bfs(g, s, sorted_neighbors=srt)
                 for s in range(0, g.num_vertices, 17) for srt in (False, True)]
        forests = [bfs_forest(g, sorted_neighbors=srt) for srt in (False, True)]
        flat = [a.tolist() for r in walks + forests
                for a in (r.order, r.level, r.parent)]
        return (flat, connected_components(g).labels.tolist(),
                rcm_order(g).permutation.tolist())

    compiled = run()
    request.getfixturevalue("no_compiler")
    with trace.capture() as cap:
        fallback = run()
    assert fallback == compiled
    engines = {s.attrs["engine"] for s in cap.find("analysis.bfs")}
    assert engines == {"numpy"}


def test_edgeless_forest_is_linear(alarm):
    """65,536 components, one walk each on shared state: O(n) in all,
    where two n-sized arrays per walk would take tens of seconds."""
    n = 1 << 16
    g = CSRGraph.empty(n)
    forest = bfs_forest(g)
    assert np.array_equal(forest.order, np.arange(n))
    assert connected_components(g).num_components == n
    assert rcm_order(g).permutation.tolist() == list(range(n - 1, -1, -1))


class TestDFS:
    def test_discovery_order_is_depth_first(self):
        # Path graph: DFS from 0 runs straight down.
        n = 8
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        r = dfs(g, 0)
        assert r.order.tolist() == list(range(n))

    def test_timestamps_nest(self):
        g = rmat_graph(6, rng=5)
        r = dfs(g, 0)
        reached = r.order
        # Parenthesis property: intervals either nest or are disjoint.
        intervals = sorted(
            (int(r.discovered[v]), int(r.finished[v])) for v in reached
        )
        stack = []
        for d, f in intervals:
            while stack and stack[-1] < d:
                stack.pop()
            for open_f in stack:
                assert f < open_f  # nested
            stack.append(f)

    def test_discovered_before_finished(self):
        g = rmat_graph(6, rng=6)
        r = dfs(g, 0)
        for v in r.order:
            assert r.discovered[v] < r.finished[v]

    def test_unreached(self):
        g = CSRGraph.from_edges([0, 2], [1, 3])
        r = dfs(g, 0)
        assert r.discovered[2] == UNREACHED

    def test_forest_covers_all(self):
        g = CSRGraph.from_edges([0, 2, 4], [1, 3, 5])
        r = dfs_forest(g)
        assert sorted(r.order.tolist()) == list(range(6))

    def test_deep_path_no_recursion_error(self):
        n = 50_000
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        r = dfs(g, 0)
        assert r.order.size == n

    def test_invalid_source(self):
        with pytest.raises(GraphFormatError):
            dfs(CSRGraph.empty(1), -1)

    def test_directed_forest_visits_each_vertex_once(self):
        """On 1 -> 0 <- 2 every vertex is its own walk's seed, and the
        walks share one clock."""
        g = CSRGraph.from_edges([1, 2], [0, 0], symmetrize=False)
        r = dfs_forest(g)
        assert r.order.tolist() == [0, 1, 2]
        assert r.discovered.tolist() == [0, 2, 4]
        assert r.finished.tolist() == [1, 3, 5]

    def test_edgeless_forest_is_linear(self, alarm):
        """65,536 components, one walk each on shared state, under one
        span: O(n) in all, where two n-sized arrays per walk would take
        minutes."""
        n = 1 << 16
        with trace.capture() as cap:
            r = dfs_forest(CSRGraph.empty(n))
        assert [s.name for s in cap.walk()] == ["analysis.dfs_forest"]
        assert np.array_equal(r.order, np.arange(n))
        assert np.array_equal(r.discovered, 2 * np.arange(n))
        assert np.array_equal(r.finished, 2 * np.arange(n) + 1)

    @pytest.mark.parametrize("g", [
        rmat_graph(7, edge_factor=2, rng=3),
        erdos_renyi_graph(200, 0.004, rng=4),
        road_lattice_graph(9, 11, rng=5),
        CSRGraph.from_edges([0, 2, 4], [1, 3, 5], num_vertices=9),
    ], ids=["rmat", "er", "road", "isolated"])
    def test_forest_matches_per_component_walks(self, g):
        """On a symmetric graph the shared walk equals one dfs() per
        component with its timestamps shifted past the earlier ones."""
        n = g.num_vertices
        discovered = np.full(n, UNREACHED, dtype=np.int64)
        finished = np.full(n, UNREACHED, dtype=np.int64)
        chunks, shift = [], 0
        for s in range(n):
            if discovered[s] != UNREACHED:
                continue
            r = dfs(g, s)
            discovered[r.order] = r.discovered[r.order] + shift
            finished[r.order] = r.finished[r.order] + shift
            shift += 2 * r.order.size
            chunks.append(r.order)
        forest = dfs_forest(g)
        assert np.array_equal(forest.order, np.concatenate(chunks))
        assert np.array_equal(forest.discovered, discovered)
        assert np.array_equal(forest.finished, finished)
