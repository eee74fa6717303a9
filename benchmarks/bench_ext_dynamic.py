"""Extension bench: just-in-time reordering of an evolving graph.

The paper's §I motivation: graphs change continuously, so orderings must
be recomputed just in time.  The realistic erosion scenario is *growth*:
new vertices join existing communities, but the stale ordering assigned
their ids before their edges existed, so their rows land far from their
communities.  (Pure random edge noise is the wrong test — no ordering
can localise random pairs, so reordering can never pay there.)

We take a hierarchical community graph, start with 55% of its vertices
"active", and stream the remaining vertices' edges in bursts.  Three
policies are compared on cumulative simulated cost (reorder at the
48-thread projection + one PageRank-iteration analysis per burst):

* **never**  — reorder once at the start, let newcomers sit badly;
* **jit**    — :class:`DynamicReorderer` re-reorders at 10% staleness;
* **always** — reorder before every analysis.
"""

import numpy as np
import pytest

from repro.cache import cycles_of_sim, scaled_machine, simulate_spmv
from repro.experiments.config import ExperimentConfig, reordering_cycles
from repro.experiments.report import format_table
from repro.graph import CSRGraph
from repro.graph.generators import hierarchical_community_graph
from repro.order.rabbit_adapter import rabbit_order_result
from repro.rabbit import DynamicReorderer

ROUNDS = 8
ACTIVE_FRACTION = 0.55
NUM_VERTICES = 6000


def growth_scenario(rng):
    """Initial graph + per-burst edge batches of the arriving vertices."""
    full = hierarchical_community_graph(NUM_VERTICES, rng=rng).graph
    n = full.num_vertices
    active = np.zeros(n, dtype=bool)
    active[rng.permutation(n)[: int(ACTIVE_FRACTION * n)]] = True
    src, dst, _ = full.edge_array()
    keep = src < dst  # one slot per undirected edge
    src, dst = src[keep], dst[keep]
    both_active = active[src] & active[dst]
    start = CSRGraph.from_edges(
        src[both_active], dst[both_active], num_vertices=n, symmetrize=True
    )
    rest_s, rest_d = src[~both_active], dst[~both_active]
    shuffle = rng.permutation(rest_s.size)
    rest_s, rest_d = rest_s[shuffle], rest_d[shuffle]
    bursts = [
        (chunk_s, chunk_d)
        for chunk_s, chunk_d in zip(
            np.array_split(rest_s, ROUNDS), np.array_split(rest_d, ROUNDS)
        )
    ]
    return start, bursts


def _simulate_policy(start, bursts, policy: str, config) -> float:
    machine = scaled_machine()
    n = start.num_vertices
    total = 0.0

    def reorder_cost_and_perm(g):
        res = rabbit_order_result(g)
        return reordering_cycles(res.stats, config), res.permutation

    if policy == "jit":
        dr = DynamicReorderer(start, staleness_threshold=0.10)
        cost, _ = reorder_cost_and_perm(start)
        total += cost
        for bs, bd in bursts:
            if dr.add_edges(bs, bd):
                cost, _ = reorder_cost_and_perm(dr.graph)
                total += cost
            total += cycles_of_sim(simulate_spmv(dr.current_view(), machine))
        return total

    cost, perm = reorder_cost_and_perm(start)
    total += cost
    current = start
    for bs, bd in bursts:
        src, dst, _ = current.edge_array()
        current = CSRGraph.from_edges(
            np.concatenate([src, bs]),
            np.concatenate([dst, bd]),
            num_vertices=n,
            symmetrize=True,
        )
        if policy == "always":
            cost, perm = reorder_cost_and_perm(current)
            total += cost
        total += cycles_of_sim(simulate_spmv(current.permute(perm), machine))
    return total


@pytest.fixture(scope="module")
def scenario():
    return growth_scenario(np.random.default_rng(7))


@pytest.fixture(scope="module")
def table(config, scenario):
    start, bursts = scenario
    rows = []
    for policy in ("never", "jit", "always"):
        cycles = _simulate_policy(start, bursts, policy, config)
        rows.append([policy, cycles / 1e6])
    text = format_table(
        ["policy", "total Mcycles (reorder + analyses)"],
        rows,
        title=f"Extension: JIT reordering under vertex arrivals "
        f"({ROUNDS} bursts, {1 - ACTIVE_FRACTION:.0%} of the graph arrives)",
    )
    print("\n" + text)
    return text


def test_ext_dynamic_table(table):
    assert "jit" in table


def test_ext_dynamic_jit_beats_never(config, scenario, table):
    start, bursts = scenario
    never = _simulate_policy(start, bursts, "never", config)
    jit = _simulate_policy(start, bursts, "jit", config)
    assert jit < never


def test_ext_dynamic_bench(benchmark, config, scenario, table):
    start, bursts = scenario
    benchmark.pedantic(
        lambda: _simulate_policy(start, bursts, "jit", config),
        rounds=2,
        iterations=1,
    )
