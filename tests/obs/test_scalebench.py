"""Scale bench suite: runner output, oracle gate, schema validity."""

import pytest

from repro.errors import ReproError
from repro.obs import bench, scalebench
from repro.obs.schema import validate_bench


@pytest.fixture(scope="module")
def scale_doc():
    """One shrunken real run of the scale suite, shared by this module."""
    import unittest.mock as mock

    with mock.patch.object(scalebench, "SCALE_GRAPH", ("rmat-s6", 6, 4, 3)):
        return bench.run_suite("scale")


class TestScaleSuite:
    def test_registered(self):
        assert "scale" in bench.list_suites()

    def test_document_is_schema_valid(self, scale_doc):
        assert validate_bench(scale_doc) == []
        assert scale_doc["suite"] == "scale"

    def test_cell_roster(self, scale_doc):
        cells = [r["ordering"] for r in scale_doc["results"]]
        assert cells == ["fastseq", "seq-dict"]

    def test_cells_record_host_topology(self, scale_doc):
        for r in scale_doc["results"]:
            assert r["counters"]["machine.physical_cores"] >= 1.0
            assert r["counters"]["machine.hardware_threads"] >= 1.0

    def test_deterministic_cells_carry_gap_metric(self, scale_doc):
        gaps = {
            r["locality"]["average_neighbor_gap"] for r in scale_doc["results"]
        }
        # both cells are deterministic and compute the same permutation
        assert len(gaps) == 1

    def test_percentiles_per_cell(self, scale_doc):
        for r in scale_doc["results"]:
            assert set(r["percentiles"]) == {"reorder_s"}

    def test_self_compare_is_clean(self, scale_doc):
        report = bench.compare(scale_doc, scale_doc)
        assert report.ok

    def test_oracle_divergence_fails_the_run(self, monkeypatch):
        """The equivalence gate is live: a dict cell whose permutation
        differs from the fastseq permutation aborts the suite."""
        import unittest.mock as mock

        real = scalebench.rabbit_order

        def sabotaged(graph, **kwargs):
            res = real(graph, **kwargs)
            if kwargs.get("engine") == "dict":
                res.permutation[:2] = res.permutation[:2][::-1]
            return res

        monkeypatch.setattr(scalebench, "rabbit_order", sabotaged)
        with mock.patch.object(
            scalebench, "SCALE_GRAPH", ("rmat-s6", 6, 4, 3)
        ):
            with pytest.raises(ReproError, match="diverged"):
                scalebench.run_scale_suite()
