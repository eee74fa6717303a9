"""Benchmark runner, schema validation, and regression comparison."""

import copy
import json

import pytest

from repro.errors import BenchFormatError, DatasetError
from repro.obs import bench
from repro.obs.schema import SCHEMA_ID, SCHEMA_VERSION, require_valid_bench, validate_bench
from tests.conftest import run_in_fresh_interpreter


@pytest.fixture(scope="module")
def smoke_doc():
    """One real run of the tiny CI suite, shared across this module."""
    return bench.run_suite("smoke")


class TestSuiteRegistry:
    def test_core_and_smoke_registered(self):
        assert {"core", "smoke"} <= set(bench.list_suites())

    def test_core_meets_acceptance_floor(self):
        # The committed BENCH_core.json must span >=3 orderings x >=2 graphs.
        suite = bench.get_suite("core")
        assert len(suite.orderings) >= 3
        assert len(suite.graphs) >= 2
        assert len(suite.analyses) >= 1

    def test_unknown_suite(self):
        with pytest.raises(DatasetError):
            bench.get_suite("nope")

    def test_unknown_analysis_rejected_at_definition(self):
        with pytest.raises(DatasetError):
            bench.BenchSuite(
                name="bad", graphs=(), orderings=("Rabbit",),
                analyses=("quantum-walk",),
            )


class TestRunSuite:
    def test_document_is_schema_valid(self, smoke_doc):
        assert smoke_doc["schema"] == SCHEMA_ID
        assert smoke_doc["schema_version"] == SCHEMA_VERSION
        assert validate_bench(smoke_doc) == []

    def test_full_cartesian_coverage(self, smoke_doc):
        suite = bench.get_suite("smoke")
        cells = {(r["graph"], r["ordering"]) for r in smoke_doc["results"]}
        assert cells == {
            (g.name, o) for g in suite.graphs for o in suite.orderings
        }

    def test_phases_separate_reorder_from_analysis(self, smoke_doc):
        for r in smoke_doc["results"]:
            phases = r["phases"]
            assert phases["reorder_s"] >= 0.0
            assert set(phases["analysis_s"]) == {"pagerank"}
            assert phases["analysis_total_s"] == pytest.approx(
                sum(phases["analysis_s"].values())
            )
            assert r["total_s"] >= phases["reorder_s"]

    def test_locality_and_spans_recorded(self, smoke_doc):
        for r in smoke_doc["results"]:
            assert r["locality"]["average_neighbor_gap"] > 0
            assert "bench.reorder" in r["spans"]
            # The instrumented library phases show up inside the bench spans.
            assert any(k.startswith("analysis.") for k in r["spans"])

    def test_rabbit_cells_carry_counters(self, smoke_doc):
        rabbit = [r for r in smoke_doc["results"] if r["ordering"] == "Rabbit"]
        assert rabbit
        for r in rabbit:
            assert r["counters"].get("rabbit.merges", 0) > 0

    def test_repeats_override(self):
        doc = bench.run_suite("smoke", repeats=2)
        assert all(r["repeats"] == 2 for r in doc["results"])

    def test_no_cell_pays_the_lazy_scipy_import(self):
        """The first PageRank in a process imports scipy (~0.2 s); the
        runner pays that before timing any cell, in a fresh process."""
        code = (
            "import sys\n"
            "from repro.obs import bench\n"
            "seen = []\n"
            "run_cell = bench._run_cell\n"
            "def spy(*args):\n"
            "    seen.append('scipy' in sys.modules)\n"
            "    return run_cell(*args)\n"
            "bench._run_cell = spy\n"
            "bench.run_suite('smoke')\n"
            "assert seen and all(seen), seen\n"
        )
        proc = run_in_fresh_interpreter(code)
        assert proc.returncode == 0, proc.stderr


class TestSaveLoad:
    def test_round_trip(self, smoke_doc, tmp_path):
        path = tmp_path / "b.json"
        bench.save_bench(smoke_doc, path)
        assert bench.load_bench(path) == json.loads(path.read_text())

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchFormatError):
            bench.load_bench(path)

    def test_load_rejects_wrong_schema(self, smoke_doc, tmp_path):
        doc = copy.deepcopy(smoke_doc)
        doc["schema"] = "something/else"
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchFormatError):
            bench.load_bench(path)

    def test_validator_pinpoints_missing_fields(self, smoke_doc):
        doc = copy.deepcopy(smoke_doc)
        del doc["results"][0]["phases"]["reorder_s"]
        errors = validate_bench(doc)
        assert errors
        assert any("reorder_s" in e for e in errors)
        with pytest.raises(BenchFormatError):
            require_valid_bench(doc, "test doc")


class TestCompare:
    def test_self_compare_is_clean(self, smoke_doc):
        report = bench.compare(smoke_doc, smoke_doc)
        assert report.ok
        assert report.regressions == []
        assert "no regressions" in report.table()

    def test_injected_slowdown_regresses(self, smoke_doc):
        slow = copy.deepcopy(smoke_doc)
        cell = slow["results"][0]
        cell["phases"]["analysis_total_s"] = (
            smoke_doc["results"][0]["phases"]["analysis_total_s"] * 10 + 1.0
        )
        report = bench.compare(smoke_doc, slow)
        assert not report.ok
        metrics = {(r.graph, r.ordering, r.metric): r.verdict for r in report.rows}
        key = (cell["graph"], cell["ordering"], "analysis_total_s")
        assert metrics[key] == bench.REGRESSION
        assert "REGRESSION" in report.table()

    def test_locality_regression_detected(self, smoke_doc):
        worse = copy.deepcopy(smoke_doc)
        cell = worse["results"][0]
        cell["locality"]["average_neighbor_gap"] *= 2.0
        report = bench.compare(smoke_doc, worse)
        assert not report.ok
        assert any(
            r.metric == "average_neighbor_gap" and r.verdict == bench.REGRESSION
            for r in report.rows
        )

    def test_small_jitter_tolerated(self, smoke_doc):
        jitter = copy.deepcopy(smoke_doc)
        for r in jitter["results"]:
            r["phases"]["reorder_s"] *= 1.3  # inside rel_tolerance=0.5
        assert bench.compare(smoke_doc, jitter).ok

    def test_missing_cell_fails(self, smoke_doc):
        shrunk = copy.deepcopy(smoke_doc)
        dropped = shrunk["results"].pop(0)
        report = bench.compare(smoke_doc, shrunk)
        assert not report.ok
        assert any(
            r.verdict == bench.MISSING and r.graph == dropped["graph"]
            for r in report.rows
        )

    def test_new_cell_is_ok(self, smoke_doc):
        grown = copy.deepcopy(smoke_doc)
        extra = copy.deepcopy(grown["results"][0])
        extra["ordering"] = "SomethingNew"
        grown["results"].append(extra)
        assert bench.compare(smoke_doc, grown).ok

    def test_detection_counters_are_gated_exactly(self, smoke_doc):
        rabbit = next(
            i for i, r in enumerate(smoke_doc["results"])
            if "rabbit.edges_scanned" in r["counters"]
        )
        report = bench.compare(smoke_doc, smoke_doc)
        rows = {r.metric: r.verdict for r in report.rows if r.metric.startswith("rabbit.")}
        assert rows["rabbit.edges_scanned"] == rows["rabbit.merges"] == bench.OK

        more = copy.deepcopy(smoke_doc)
        cell = more["results"][rabbit]
        cell["counters"]["rabbit.edges_scanned"] += 1
        report = bench.compare(smoke_doc, more)
        assert not report.ok
        (row,) = [r for r in report.regressions]
        assert (row.graph, row.ordering) == (cell["graph"], cell["ordering"])
        assert (row.metric, row.verdict) == ("rabbit.edges_scanned", bench.REGRESSION)

        fewer = copy.deepcopy(smoke_doc)
        del fewer["results"][rabbit]["counters"]["rabbit.merges"]
        (row,) = bench.compare(smoke_doc, fewer).regressions
        assert (row.metric, row.verdict) == ("rabbit.merges", bench.MISSING)

    def test_engine_provenance_is_not_gated(self, smoke_doc):
        other = copy.deepcopy(smoke_doc)
        for r in other["results"]:
            r["counters"]["rabbit.engine.dict"] = 7.0
            r["counters"].pop("rabbit.engine.native", None)
        base = copy.deepcopy(smoke_doc)
        for r in base["results"]:
            r["counters"]["rabbit.native.fallback.no-compiler"] = 1.0
        report = bench.compare(base, other)
        assert report.ok
        assert not any(".engine." in r.metric or ".native." in r.metric for r in report.rows)

    def test_improvement_labelled(self, smoke_doc):
        fast = copy.deepcopy(smoke_doc)
        base = copy.deepcopy(smoke_doc)
        for r in base["results"]:
            r["phases"]["analysis_total_s"] = 10.0
        for r in fast["results"]:
            r["phases"]["analysis_total_s"] = 1.0
        report = bench.compare(base, fast)
        assert report.ok
        assert any(r.verdict == bench.IMPROVED for r in report.rows)


class TestCLI:
    def test_bench_cli_run_validate_compare(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "BENCH_smoke.json")
        assert main(["bench", "--suite", "smoke", "--out", out]) == 0
        assert main(["bench", "--validate", out]) == 0
        assert "valid" in capsys.readouterr().out
        # Self-compare two files without re-running.
        assert main(["bench", "--against", out, "--compare", out]) == 0

    def test_bench_cli_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "core" in out and "smoke" in out

    def test_bench_cli_compare_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        doc = bench.run_suite("smoke")
        bench.save_bench(doc, good)
        slow = copy.deepcopy(doc)
        for r in slow["results"]:
            r["phases"]["reorder_s"] = r["phases"]["reorder_s"] * 10 + 1.0
        bench.save_bench(slow, bad)
        rc = main(["bench", "--against", str(bad), "--compare", str(good)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_cli_against_requires_compare(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "--against", str(tmp_path / "x.json")]) == 2
        assert "--compare" in capsys.readouterr().err


class TestPercentiles:
    """Schema v2: per-cell latency percentiles (p50/p95/p99)."""

    def test_percentile_summary_nearest_rank(self):
        # Same index convention as obs.metrics.Histogram.percentile:
        # round(q/100 * (n-1)) into the sorted samples.
        samples = [float(i) for i in range(1, 101)]
        summary = bench.percentile_summary(samples)
        assert summary == {"p50": 51.0, "p95": 95.0, "p99": 99.0}
        assert summary["p95"] == sorted(samples)[round(0.95 * 99)]

    def test_percentile_summary_single_sample(self):
        assert bench.percentile_summary([0.25]) == {
            "p50": 0.25, "p95": 0.25, "p99": 0.25,
        }

    def test_percentile_summary_empty(self):
        assert bench.percentile_summary([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_run_suite_emits_percentiles(self, smoke_doc):
        for result in smoke_doc["results"]:
            assert "percentiles" in result
            pct = result["percentiles"]["reorder_s"]
            assert set(pct) == {"p50", "p95", "p99"}
            assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_v1_documents_still_validate(self, smoke_doc):
        doc = copy.deepcopy(smoke_doc)
        doc["schema"] = "repro.bench/1"
        doc["schema_version"] = 1
        for result in doc["results"]:
            del result["percentiles"]
        assert validate_bench(doc) == []

    def test_schema_version_must_match_schema_id(self, smoke_doc):
        doc = copy.deepcopy(smoke_doc)
        doc["schema"] = "repro.bench/1"  # still claims v2 in schema_version
        errors = validate_bench(doc)
        assert any("disagrees" in e for e in errors)

    def test_unknown_version_rejected(self, smoke_doc):
        doc = copy.deepcopy(smoke_doc)
        doc["schema"] = "repro.bench/99"
        doc["schema_version"] = 99
        assert validate_bench(doc)

    def test_malformed_percentiles_rejected(self, smoke_doc):
        doc = copy.deepcopy(smoke_doc)
        doc["results"][0]["percentiles"] = {"reorder_s": {"p50": "slow"}}
        errors = validate_bench(doc)
        assert any("p50" in e for e in errors)
        assert any("missing 'p95'" in e for e in errors)

    def test_compare_judges_percentiles_when_both_sides_have_them(self, smoke_doc):
        slow = copy.deepcopy(smoke_doc)
        for r in slow["results"]:
            for labels in r["percentiles"].values():
                for label in labels:
                    labels[label] = labels[label] * 10 + 1.0
        report = bench.compare(smoke_doc, slow)
        assert not report.ok
        assert any(".p95" in r.metric for r in report.regressions)

    def test_compare_v1_baseline_has_no_percentile_rows(self, smoke_doc):
        v1 = copy.deepcopy(smoke_doc)
        v1["schema"] = "repro.bench/1"
        v1["schema_version"] = 1
        for result in v1["results"]:
            del result["percentiles"]
        report = bench.compare(v1, smoke_doc)
        assert report.ok
        assert not any("p95" in r.metric for r in report.rows)
