"""Figure 10: projected reordering speedup at 12/24/48 threads.

Prints the projection table (paper: Rabbit best at 17.4x on 48 threads,
BFS/LLP ~12x, SlashBurn omitted as sequential) and benchmarks the
Algorithm 3 interleaving model at several modelled thread counts (one OS
thread — the point of benchmarking it is to confirm the lock-free
protocol adds no pathological overhead as the window widens).
"""

import pytest

from repro.experiments.config import prepared
from repro.experiments.scalability import figure10_table
from repro.rabbit import community_detection_par


@pytest.fixture(scope="module")
def table(config):
    text = figure10_table(config)
    print("\n" + text)
    return text


def test_fig10_table_regenerates(table):
    assert "48 threads" in table


@pytest.mark.parametrize("threads", [1, 4, 8])
def test_fig10_bench_threaded_detection(benchmark, config, threads, table):
    g = prepared("ljournal", config).graph
    benchmark.pedantic(
        lambda: community_detection_par(g, num_threads=threads),
        rounds=2,
        iterations=1,
    )
