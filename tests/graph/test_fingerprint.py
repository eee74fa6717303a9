"""Shared graph fingerprint: stability, sensitivity, key derivation."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.fingerprint import fingerprint_key, graph_fingerprint
from repro.graph.generators import rmat_graph


def _graph(seed=3):
    return rmat_graph(5, edge_factor=4, rng=seed)


class TestStability:
    def test_identical_graphs_identical_fingerprint(self):
        a, b = _graph(), _graph()
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_stable_across_csr_cache_state(self):
        """The CSRGraph lazy caches (degrees/row_of_slot/edge_weights/
        matvec_operator) materialise on use; the fingerprint must not see
        them."""
        g = _graph()
        before = graph_fingerprint(g)
        g.degrees()
        g.row_of_slot()
        g.edge_weights()
        g.matvec_operator()
        assert graph_fingerprint(g) == before

    def test_stable_across_serialisation_roundtrip(self, tmp_path):
        from repro.graph import load_npz, save_npz

        g = _graph()
        save_npz(g, tmp_path / "g.npz")
        assert graph_fingerprint(load_npz(tmp_path / "g.npz")) == graph_fingerprint(g)

    def test_checkpoint_reexport_is_the_same_function(self):
        from repro.resilience import checkpoint

        assert checkpoint.graph_fingerprint is graph_fingerprint


class TestSensitivity:
    def test_different_graphs_differ(self):
        assert graph_fingerprint(_graph(1)) != graph_fingerprint(_graph(2))

    def test_weights_matter(self):
        unweighted = CSRGraph.from_edges([0, 1], [1, 2], symmetrize=True)
        weighted = CSRGraph.from_edges(
            [0, 1], [1, 2], weights=[2.0, 3.0], symmetrize=True
        )
        assert graph_fingerprint(unweighted) != graph_fingerprint(weighted)

    def test_weight_values_matter(self):
        a = CSRGraph.from_edges([0], [1], weights=[1.0], symmetrize=True)
        b = CSRGraph.from_edges([0], [1], weights=[2.0], symmetrize=True)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"merge_threshold": 0.25},
            {"visit": "random"},
            {"visit_rng": 7},
            {"visit_rng": None},
        ],
    )
    def test_decision_parameters_matter(self, kwargs):
        g = _graph()
        assert graph_fingerprint(g, **kwargs) != graph_fingerprint(g)

    def test_content_digest_is_full_sha256(self):
        """The content component must be collision-resistant: a 32-bit
        checksum would let distinct graphs share a cache key at the
        birthday bound and serve a wrong permutation as authoritative."""
        fp = graph_fingerprint(_graph())
        assert "graph_crc32" not in fp
        assert len(fp["graph_sha256"]) == 64
        int(fp["graph_sha256"], 16)  # parses as hex

    def test_isolated_vertex_changes_fingerprint(self):
        # Same edge set, different vertex count: indptr differs.
        a = CSRGraph.from_edges([0], [1], num_vertices=2, symmetrize=True)
        b = CSRGraph.from_edges([0], [1], num_vertices=3, symmetrize=True)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestKey:
    def test_key_is_fixed_width_hex(self):
        key = fingerprint_key(graph_fingerprint(_graph()))
        assert len(key) == 32
        int(key, 16)  # parses as hex

    def test_key_insensitive_to_dict_order(self):
        fp = graph_fingerprint(_graph())
        shuffled = dict(reversed(list(fp.items())))
        assert fingerprint_key(fp) == fingerprint_key(shuffled)

    def test_key_collision_free_over_graph_family(self):
        keys = {
            fingerprint_key(graph_fingerprint(_graph(seed))) for seed in range(30)
        }
        assert len(keys) == 30

    def test_key_depends_on_every_field(self):
        fp = graph_fingerprint(_graph())
        for field in fp:
            mutated = dict(fp)
            mutated[field] = "x"
            assert fingerprint_key(mutated) != fingerprint_key(fp)
