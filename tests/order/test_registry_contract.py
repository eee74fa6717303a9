"""Generic contract: every Table III algorithm must produce a valid
permutation (and sane stats) on every graph in the zoo — including the
degenerate ones (empty, isolated vertices, self-loops, disconnected)."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import validate_permutation
from repro.graph.generators import rmat_graph
from repro.order import ALGORITHMS, TABLE3_ORDER, get_algorithm, list_algorithms, reorder


class TestRegistry:
    def test_table3_roster(self):
        assert list_algorithms() == list(TABLE3_ORDER)
        assert set(TABLE3_ORDER) == {
            "Rabbit", "Slash", "BFS", "RCM", "ND", "LLP", "Shingle",
            "Degree", "Random",
        }

    def test_unknown_algorithm(self):
        with pytest.raises(DatasetError, match="unknown reordering"):
            get_algorithm("Sort-of-sorted")

    def test_reorder_dispatch(self, paper_graph):
        res = reorder(paper_graph, "Degree", rng=0)
        assert res.name == "Degree"


class TestEngineAliases:
    """Off-roster engine rows the bench suites measure side by side."""

    @pytest.mark.parametrize("name", ["RabbitDict", "RabbitPar"])
    def test_registered_and_valid(self, name, paper_graph):
        res = ALGORITHMS[name](paper_graph, rng=0)
        assert res.name == name
        validate_permutation(res.permutation, paper_graph.num_vertices)

    def test_rabbit_par_replayable(self, paper_graph):
        """The interleave-scheduled parallel row must be deterministic —
        the property that makes it benchable without schedule noise."""
        a = ALGORITHMS["RabbitPar"](paper_graph, rng=17)
        b = ALGORITHMS["RabbitPar"](paper_graph, rng=17)
        assert np.array_equal(a.permutation, b.permutation)

    def test_rabbit_dict_matches_rabbit(self, paper_graph):
        a = ALGORITHMS["Rabbit"](paper_graph, rng=0)
        b = ALGORITHMS["RabbitDict"](paper_graph, rng=0)
        assert np.array_equal(a.permutation, b.permutation)


@pytest.mark.parametrize("algorithm", TABLE3_ORDER)
class TestContract:
    def test_valid_permutation_on_zoo(self, algorithm, zoo_graph):
        res = ALGORITHMS[algorithm](zoo_graph, rng=0)
        validate_permutation(res.permutation, zoo_graph.num_vertices)

    def test_name_matches(self, algorithm, paper_graph):
        assert ALGORITHMS[algorithm](paper_graph, rng=0).name == algorithm

    def test_nonnegative_work_profile(self, algorithm, paper_graph):
        stats = ALGORITHMS[algorithm](paper_graph, rng=0).stats
        assert stats.work >= 0
        assert 0 <= stats.span
        assert stats.span <= stats.work + 1e-9 or not stats.parallelizable

    def test_deterministic_given_seed(self, algorithm, paper_graph):
        a = ALGORITHMS[algorithm](paper_graph, rng=17)
        b = ALGORITHMS[algorithm](paper_graph, rng=17)
        assert np.array_equal(a.permutation, b.permutation)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_unseeded_call_replays(name):
    """Every registry entry called without a seed is a function of the
    graph: ND, LLP, Shingle and Random default to seed 0 instead of OS
    entropy."""
    graph = rmat_graph(9, edge_factor=3, rng=0)
    first = get_algorithm(name)(graph)
    second = get_algorithm(name)(graph)
    assert np.array_equal(first.permutation, second.permutation)
