"""Command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.graph import load_npz, save_npz, validate_permutation
from repro.graph.generators import hierarchical_community_graph
from tests.conftest import HUGE_ID_EDGE_LIST, forge_graph_npz


@pytest.fixture
def graph_file(tmp_path):
    g = hierarchical_community_graph(200, rng=1).graph
    p = tmp_path / "g.npz"
    save_npz(g, p)
    return str(p), g


class TestReorder:
    def test_writes_permutation_and_graph(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        perm_out = str(tmp_path / "perm.npy")
        graph_out = str(tmp_path / "out.npz")
        rc = main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", perm_out,
             "--graph-out", graph_out]
        )
        assert rc == 0
        perm = np.load(perm_out)
        validate_permutation(perm, g.num_vertices)
        out = load_npz(graph_out)
        assert out.num_edges == g.num_edges

    @pytest.mark.parametrize("algo", ["Degree", "RCM", "BFS"])
    def test_other_algorithms(self, graph_file, algo, capsys):
        path, _ = graph_file
        assert main(["reorder", path, "-a", algo]) == 0

    def test_unknown_algorithm_fails_cleanly(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["reorder", path, "-a", "Quicksort"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verbose_prints_span_breakdown(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["reorder", path, "-a", "Rabbit", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "order.Rabbit" in out
        assert "rabbit.detect" in out
        assert "ms" in out

    def test_non_verbose_hides_breakdown(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["reorder", path, "-a", "Rabbit"]) == 0
        assert "rabbit.detect" not in capsys.readouterr().out


class TestAnalyze:
    MARKERS = {
        "pagerank": "pagerank:",
        "bfs": "bfs from",
        "dfs": "dfs: visited",
        "scc": "scc:",
        "components": "components:",
        "diameter": "pseudo-diameter:",
        "kcore": "k-core:",
    }

    @pytest.mark.parametrize("analysis", sorted(MARKERS))
    def test_all_analyses_run(self, graph_file, analysis, capsys):
        path, _ = graph_file
        assert main(["analyze", path, analysis]) == 0
        assert self.MARKERS[analysis] in capsys.readouterr().out

    def test_verbose_prints_span_breakdown(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["analyze", path, "pagerank", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "analyze.pagerank" in out
        assert "analysis.pagerank" in out


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        path, g = graph_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices        {g.num_vertices}" in out
        assert "bandwidth" in out

    def test_spy_plot(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["stats", path, "--spy", "8"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 10

    def test_forged_archive_header_is_an_error_not_a_crash(self, graph_file, capsys):
        """A member whose npy header declares 2**45 elements is refused
        before anything of that size is allocated."""
        path, _ = graph_file
        forge_graph_npz(Path(path))
        assert main(["stats", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read graph archive")
        assert "declares shape" in err

    def test_unallocatable_vertex_count_is_an_error_not_a_crash(
        self, tmp_path, capsys, refuse_huge_arrays
    ):
        path = tmp_path / "huge_id.txt"
        path.write_text(HUGE_ID_EDGE_LIST)
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate the row index")
        assert "3000000001 vertices" in err


class TestGenerate:
    def test_generate_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "tw.npz")
        assert main(["generate", "twitter", out, "--scale", "tiny"]) == 0
        g = load_npz(out)
        assert g.num_vertices > 0

    def test_unknown_dataset(self, tmp_path, capsys):
        assert main(["generate", "nope", str(tmp_path / "x.npz")]) == 2

    def test_edge_list_output(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "berkstan", out, "--scale", "tiny"]) == 0
        from repro.graph.io import read_edge_list

        g = read_edge_list(out, undirected=False)
        assert g.num_vertices > 0


class TestFormats:
    def test_metis_round_trip_via_cli(self, tmp_path, capsys):
        src = str(tmp_path / "a.graph")
        assert main(["generate", "road-usa", src, "--scale", "tiny"]) == 0
        dst = str(tmp_path / "b.mtx")
        assert main(["reorder", src, "-a", "Degree", "--graph-out", dst]) == 0
        from repro.graph.io import read_matrix_market

        assert read_matrix_market(dst).num_vertices > 0


class TestStress:
    def test_quick_stress_smoke(self, capsys):
        assert main(["stress", "--quick", "--scale", "5"]) == 0
        out = capsys.readouterr().out
        assert "stress sweep" in out
        assert "all runs passed the audit" in out
        # Fault/recovery tallies now surface via the metrics registry.
        assert "metrics registry (this sweep):" in out
        assert "rabbit.merges" in out

    def test_stress_reports_failures_with_nonzero_exit(self, capsys, monkeypatch):
        from repro.errors import AuditError
        from repro.experiments import stress as stress_mod

        def boom(*args, **kwargs):
            raise AuditError("synthetic failure")

        monkeypatch.setattr(stress_mod, "community_detection_par", boom)
        assert main(["stress", "--quick", "--scale", "4"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_zero_seeds_rejected_not_vacuously_green(self, capsys):
        assert main(["stress", "--seeds", "0", "--scale", "4"]) == 2
        assert "--seeds must be >= 1" in capsys.readouterr().err


class TestCheck:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        d = tmp_path / "repro" / "order"
        d.mkdir(parents=True)
        (d / "fine.py").write_text("import numpy as np\nx = np.int64(3)\n")
        assert main(["check", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        d = tmp_path / "repro" / "parallel"
        d.mkdir(parents=True)
        (d / "bad.py").write_text("import threading\nx = threading.Lock()\n")
        assert main(["check", str(tmp_path)]) == 1
        assert "[lock-in-lockfree-path]" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        import json

        d = tmp_path / "repro" / "parallel"
        d.mkdir(parents=True)
        (d / "bad.py").write_text("import threading\nx = threading.Lock()\n")
        assert main(["check", str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["findings"][0]["rule"] == "lock-in-lockfree-path"

    def test_rule_selection(self, tmp_path, capsys):
        d = tmp_path / "repro" / "parallel"
        d.mkdir(parents=True)
        (d / "bad.py").write_text("import threading\nx = threading.Lock()\n")
        assert main(["check", str(tmp_path), "--rule", "layering"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--rule", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-in-lockfree-path" in out
        assert "import-cycle" in out and "[project]" in out

    def test_own_source_tree_is_clean(self, capsys):
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        assert main(["check", str(src)]) == 0


class TestStressRaces:
    def test_races_flag_smoke(self, capsys):
        assert main(
            ["stress", "--quick", "--scale", "5", "--seeds", "2", "--races"]
        ) == 0
        out = capsys.readouterr().out
        assert "race detection on" in out
        assert "races" in out  # table column


class TestBenchCompareExit:
    @pytest.fixture(scope="class")
    def bench_docs(self, tmp_path_factory):
        import copy

        from repro.obs import bench as ob

        doc = ob.run_suite("smoke", repeats=1)
        base = tmp_path_factory.mktemp("bench") / "base.json"
        ob.save_bench(doc, base)
        regressed = copy.deepcopy(doc)
        regressed["results"][0]["phases"]["reorder_s"] = (
            doc["results"][0]["phases"]["reorder_s"] * 100.0 + 10.0
        )
        reg = base.parent / "regressed.json"
        ob.save_bench(regressed, reg)
        missing = copy.deepcopy(doc)
        missing["results"] = missing["results"][1:]
        mis = base.parent / "missing.json"
        ob.save_bench(missing, mis)
        return str(base), str(reg), str(mis)

    def test_identical_docs_exit_zero(self, bench_docs, capsys):
        base, _, _ = bench_docs
        assert main(["bench", "--compare", base, "--against", base]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, bench_docs, capsys):
        base, reg, _ = bench_docs
        assert main(["bench", "--compare", base, "--against", reg]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_cell_exits_nonzero(self, bench_docs, capsys):
        base, _, mis = bench_docs
        assert main(["bench", "--compare", base, "--against", mis]) == 1
        assert "MISSING" in capsys.readouterr().out


class TestReorderResilience:
    def test_checkpoint_dir_writes_snapshots(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        ck = tmp_path / "ck"
        rc = main(
            ["reorder", path, "-a", "Rabbit",
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        )
        assert rc == 0
        assert list(ck.glob("*.rbk")), "expected checkpoint files"

    def test_resume_flag_matches_uninterrupted(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        ck = tmp_path / "ck"
        base_out = str(tmp_path / "base.npy")
        assert main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", base_out,
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        ) == 0
        resumed_out = str(tmp_path / "resumed.npy")
        assert main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", resumed_out,
             "--resume", str(ck)]
        ) == 0
        assert np.array_equal(np.load(base_out), np.load(resumed_out))

    def test_resume_verb_round_trip(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        ck = tmp_path / "ck"
        base_out = str(tmp_path / "base.npy")
        assert main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", base_out,
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        ) == 0
        resumed_out = str(tmp_path / "resumed.npy")
        assert main(
            ["resume", str(ck), path, "--perm-out", resumed_out]
        ) == 0
        assert "resumed" in capsys.readouterr().out
        perm = np.load(resumed_out)
        validate_permutation(perm, g.num_vertices)
        assert np.array_equal(np.load(base_out), perm)

    def test_resume_verb_finishes_a_model_run(self, graph_file, tmp_path, capsys):
        """A snapshot of the Algorithm 3 model resumes through
        ``community_detection_par`` with its own threads and seed."""
        from repro.rabbit import community_detection_par, ordering_generation_seq
        from repro.resilience import CheckpointConfig

        path, g = graph_file
        ck = tmp_path / "ck"
        res = community_detection_par(
            g, num_threads=2, scheduler_seed=3,
            checkpoint=CheckpointConfig(directory=ck, every=50),
        )
        resumed_out = str(tmp_path / "resumed.npy")
        assert main(["resume", str(ck), path, "--perm-out", resumed_out]) == 0
        assert "resumed par detection" in capsys.readouterr().out
        assert np.array_equal(
            np.load(resumed_out), ordering_generation_seq(res.dendrogram)
        )

    def test_supervised_ladder_prints_report(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        perm_out = str(tmp_path / "perm.npy")
        rc = main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", perm_out,
             "--time-budget", "60"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rung" in out  # the RunReport summary
        validate_permutation(np.load(perm_out), g.num_vertices)

    def test_time_budget_without_ladder_uses_default(
        self, graph_file, tmp_path, capsys
    ):
        # regression: --time-budget alone crashed on parse_ladder(None)
        path, g = graph_file
        perm_out = str(tmp_path / "perm.npy")
        rc = main(
            ["reorder", path, "-a", "Rabbit", "--perm-out", perm_out,
             "--time-budget", "60"]
        )
        assert rc == 0
        validate_permutation(np.load(perm_out), g.num_vertices)

    def test_resilience_flags_need_rabbit(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        rc = main(
            ["reorder", path, "-a", "Degree",
             "--checkpoint-dir", str(tmp_path / "ck")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_combined_with_budget_rejected(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        ck = tmp_path / "ck"
        assert main(
            ["reorder", path, "-a", "Rabbit",
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        ) == 0
        rc = main(
            ["reorder", path, "-a", "Rabbit", "--resume", str(ck),
             "--time-budget", "60"]
        )
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [["--time-budget", "60"],
                                        ["--mem-budget", "8192"]])
    def test_engine_combined_with_budget_rejected(
        self, graph_file, tmp_path, capsys, budget
    ):
        """A budgeted run takes its engines from the ladder, so naming
        the dict engine beside a budget is refused, not overridden."""
        path, _ = graph_file
        perm_out = tmp_path / "perm.npy"
        rc = main(
            ["reorder", path, "-a", "RabbitDict",
             "--perm-out", str(perm_out), *budget]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: -a RabbitDict does not combine")
        assert not perm_out.exists()

    @pytest.mark.parametrize("algorithm,engine", [("Rabbit", "fast"),
                                                  ("RabbitDict", "dict")])
    def test_algorithm_name_picks_the_checkpoint_engine(
        self, graph_file, tmp_path, capsys, algorithm, engine
    ):
        from repro.resilience.checkpoint import load_checkpoint

        path, g = graph_file
        ck = tmp_path / "ck"
        base_out = str(tmp_path / "base.npy")
        assert main(
            ["reorder", path, "-a", algorithm, "--perm-out", base_out,
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        ) == 0
        snapshots = sorted(ck.glob("*.rbk"))
        assert snapshots
        assert {load_checkpoint(p).engine for p in snapshots} == {engine}
        resumed_out = str(tmp_path / "resumed.npy")
        assert main(
            ["reorder", path, "-a", algorithm, "--perm-out", resumed_out,
             "--resume", str(snapshots[0])]
        ) == 0
        assert np.array_equal(np.load(base_out), np.load(resumed_out))

    def test_ladder_flags_are_gone(self, graph_file, capsys):
        path, _ = graph_file
        for argv in (["reorder", path, "--ladder", "fastseq,dict"],
                     ["serve", "--ladder", "fastseq,dict"]):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
            assert "--ladder" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--time-budget", "60"]])
    def test_engine_flag_is_gone(self, graph_file, tmp_path, capsys, extra):
        """``-a Rabbit`` and ``-a RabbitDict`` name the engine; there is
        no second way to pick it."""
        path, _ = graph_file
        perm_out = tmp_path / "perm.npy"
        with pytest.raises(SystemExit) as exc_info:
            main(["reorder", path, "--engine", "dict",
                  "--perm-out", str(perm_out), *extra])
        assert exc_info.value.code == 2
        assert "--engine" in capsys.readouterr().err
        assert not perm_out.exists()

    def test_resume_verb_missing_checkpoint_fails_cleanly(
        self, graph_file, tmp_path, capsys
    ):
        path, _ = graph_file
        rc = main(["resume", str(tmp_path / "empty"), path])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStressChaos:
    def test_chaos_quick_smoke(self, capsys):
        assert main(["stress", "--chaos", "--quick", "--scale", "5"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "resumed" in out


class TestWorkerCountValidation:
    """``--threads`` below 1 fails identically everywhere:
    ``error: --threads must be >= 1`` on stderr, exit code 2."""

    @pytest.mark.parametrize("flag", ["--threads"])
    def test_resume_rejects_nonpositive(self, graph_file, tmp_path, flag, capsys):
        path, _ = graph_file
        ck = tmp_path / "ck"
        assert main(
            ["reorder", path, "-a", "Rabbit",
             "--checkpoint-dir", str(ck), "--checkpoint-every", "50"]
        ) == 0
        rc = main(["resume", str(ck), path, flag, "0"])
        assert rc == 2
        assert f"error: {flag} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--threads"])
    def test_stress_rejects_nonpositive(self, flag, capsys):
        rc = main(["stress", "--quick", flag, "0"])
        assert rc == 2
        assert f"error: {flag} must be >= 1" in capsys.readouterr().err

    def test_valid_counts_still_accepted(self, capsys):
        rc = main(
            ["stress", "--quick", "--scale", "4", "--seeds", "1",
             "--threads", "2"]
        )
        assert rc == 0
        assert "all runs passed the audit" in capsys.readouterr().out


class TestNumericFlagsFailClosed:
    """A numeric flag outside its range is ``error: ...`` and exit 2:
    never a traceback, never a run without the budget asked for."""

    def test_negative_spy_grid(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["stats", path, "--spy", "-2"]) == 2
        assert capsys.readouterr().err.startswith("error: --spy must be >= 0")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_mem_budget_is_checked_before_conversion(
        self, graph_file, tmp_path, capsys, value
    ):
        path, _ = graph_file
        perm_out = tmp_path / "perm.npy"
        rc = main(["reorder", path, "--perm-out", str(perm_out),
                   "--mem-budget", value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --mem-budget must be positive and finite")
        assert not perm_out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_time_budget_that_never_trips(
        self, graph_file, tmp_path, capsys, value
    ):
        path, _ = graph_file
        perm_out = tmp_path / "perm.npy"
        rc = main(["reorder", path, "--perm-out", str(perm_out),
                   "--time-budget", value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: budget time_s must be positive and finite")
        assert not perm_out.exists()

    @pytest.mark.parametrize("flags", [
        ["--time-budget", "0"],
        ["--time-budget", "-1"],
        ["--time-budget", "nan"],
        ["--merge-threshold", "nan"],
    ])
    def test_serve_refuses_at_boot(self, tmp_path, capsys, monkeypatch, flags):
        import repro.serve.daemon as daemon

        booted = []
        monkeypatch.setattr(daemon, "run_server", booted.append)
        rc = main(["serve", "--socket", str(tmp_path / "s.sock"), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert booted == []


class TestResumeRetiredSnapshot:
    """Snapshots written by the removed thread and process-pool executors
    fail closed with a typed CheckpointError naming the executor."""

    @pytest.mark.parametrize("engine,config", [
        ("par", {"engine": "par", "executor": "threads", "parallel": True,
                 "num_threads": 4, "scheduler_seed": None}),
        ("procs", {"engine": "procs", "executor": "procs",
                   "parallel": True, "num_threads": 2}),
        ("procs", {"parallel": True}),
    ])
    def test_retired_executor_fails_closed(
        self, graph_file, tmp_path, capsys, engine, config
    ):
        from repro.cli import build_parser
        from repro.community.dendrogram import NO_VERTEX
        from repro.errors import CheckpointError
        from repro.rabbit.common import RabbitStats
        from repro.resilience.checkpoint import (
            build_snapshot,
            graph_fingerprint,
            save_checkpoint,
        )

        path, g = graph_file
        n = g.num_vertices
        snap = build_snapshot(
            engine=engine,
            progress=0,
            order=np.arange(n),
            dest=np.arange(n),
            child=np.full(n, NO_VERTEX),
            sibling=np.full(n, NO_VERTEX),
            comm_deg=np.zeros(n),
            toplevel=[],
            adjacency=[None] * n,
            stats=RabbitStats(vertex_work=np.zeros(n, dtype=np.int64)),
            fingerprint=graph_fingerprint(g),
            config=config,
        )
        ck = save_checkpoint(tmp_path / "ckpt-000000000000.rbk", snap)
        retired = config.get("executor", engine)
        args = build_parser().parse_args(["resume", str(ck), path])
        with pytest.raises(CheckpointError, match=repr(retired)):
            args.fn(args)
        assert main(["resume", str(tmp_path), path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(retired) in err
        assert "Traceback" not in err
