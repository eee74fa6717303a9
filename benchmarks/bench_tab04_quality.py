"""Table IV: modularity and PageRank runtime, sequential vs parallel
Rabbit Order.

Prints the table (paper: parallel matches or exceeds sequential quality;
runtime changes within a few percent) and benchmarks both detection
modes.
"""

import pytest

from repro.experiments.config import prepared
from repro.experiments.quality import table4_table
from repro.rabbit import (
    community_detection_par,
    ordering_generation_seq,
    rabbit_order,
)


@pytest.fixture(scope="module")
def table(config):
    text = table4_table(config, num_threads=8)
    print("\n" + text)
    return text


def test_tab4_table_regenerates(table):
    assert "Q (seq)" in table


def test_tab4_bench_sequential_rabbit(benchmark, config, table):
    g = prepared("ljournal", config).graph
    benchmark.pedantic(lambda: rabbit_order(g), rounds=3, iterations=1)


def test_tab4_bench_parallel_rabbit(benchmark, config, table):
    g = prepared("ljournal", config).graph
    benchmark.pedantic(
        lambda: ordering_generation_seq(
            community_detection_par(g, num_threads=8).dendrogram
        ),
        rounds=3,
        iterations=1,
    )
