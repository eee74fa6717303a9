"""RunSupervisor: budgets, watchdog triggers, ladder degradation."""

import time

import numpy as np
import pytest

from repro.errors import AttemptAbortedError, BudgetExceededError, ReproError
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.graph.perm import validate_permutation
from repro.rabbit import rabbit_order
from repro.resilience import (
    Budgets,
    CheckpointConfig,
    LadderRung,
    RunSupervisor,
    SupervisorPolicy,
    default_ladder,
    heartbeat,
    parse_ladder,
    supervised_rabbit_order,
)


@pytest.fixture
def graph():
    return erdos_renyi_graph(120, 0.06, rng=11)


def one_rung(name="only", **budget_kwargs):
    return SupervisorPolicy(
        budgets=Budgets(poll_interval_s=0.01, **budget_kwargs),
        ladder=(LadderRung(name=name),),
        final_rung_unbudgeted=False,
    )


class TestWatchdogTriggers:
    def test_time_budget_trips(self):
        policy = one_rung(time_s=0.05)

        def attempt(rung):
            while True:
                heartbeat()
                time.sleep(0.005)

        with pytest.raises(BudgetExceededError) as exc_info:
            RunSupervisor(policy).run(attempt)
        report = exc_info.value.run_report
        assert not report.success
        assert report.attempts[-1].trigger == "time"
        assert report.attempts[-1].outcome == "aborted"

    def test_rss_budget_trips(self):
        policy = one_rung(rss_bytes=1)  # any real process exceeds 1 byte

        def attempt(rung):
            while True:
                heartbeat()
                time.sleep(0.005)

        with pytest.raises(BudgetExceededError) as exc_info:
            RunSupervisor(policy).run(attempt)
        report = exc_info.value.run_report
        assert report.attempts[-1].trigger == "rss"
        assert report.attempts[-1].rss_peak_bytes > 1

    def test_abort_is_cooperative_not_asynchronous(self):
        """A cancelled attempt keeps running until its next heartbeat."""
        policy = one_rung(time_s=0.02)
        reached = []

        def attempt(rung):
            time.sleep(0.1)  # budget long expired, but no heartbeat yet
            reached.append("pre-beat work survived")
            heartbeat()
            raise AssertionError("heartbeat must have raised")

        with pytest.raises(BudgetExceededError):
            RunSupervisor(policy).run(attempt)
        assert reached == ["pre-beat work survived"]


class TestLadder:
    def test_degrades_until_a_rung_succeeds(self):
        policy = SupervisorPolicy(
            budgets=Budgets(poll_interval_s=0.01),
            ladder=(
                LadderRung(name="a"),
                LadderRung(name="b"),
                LadderRung(name="c"),
            ),
        )
        calls = []

        def attempt(rung):
            calls.append(rung.name)
            if rung.name != "c":
                raise AttemptAbortedError(f"{rung.name} failed")
            return "done"

        report = RunSupervisor(policy).run(attempt)
        assert calls == ["a", "b", "c"]
        assert report.success and report.result == "done"
        assert report.final_rung == "c"
        assert report.degradations == 2

    def test_repro_errors_degrade_other_exceptions_propagate(self):
        policy = SupervisorPolicy(
            ladder=(
                LadderRung(name="x"),
                LadderRung(name="y"),
            ),
        )

        def repro_fail(rung):
            if rung.name == "x":
                raise ReproError("engine error")
            return "recovered"

        assert RunSupervisor(policy).run(repro_fail).result == "recovered"

        def bug(rung):
            raise ZeroDivisionError("a genuine bug")

        with pytest.raises(ZeroDivisionError):
            RunSupervisor(policy).run(bug)

    def test_final_rung_unbudgeted_guarantees_result(self):
        """Even a hopeless time budget must end in a valid result: the
        last attempt runs without a watchdog."""
        policy = SupervisorPolicy(
            budgets=Budgets(time_s=0.001, poll_interval_s=0.005),
            ladder=(
                LadderRung(name="first"),
                LadderRung(name="last"),
            ),
        )

        def attempt(rung):
            for _ in range(20):
                heartbeat()
                time.sleep(0.005)
            return "finished"

        report = RunSupervisor(policy).run(attempt)
        assert report.success and report.result == "finished"

    def test_report_to_dict_and_summary(self):
        policy = one_rung(time_s=60.0)
        report = RunSupervisor(policy).run(lambda rung: "ok")
        doc = report.to_dict()
        assert doc["success"] is True
        assert doc["attempts"][0]["rung"] == "only"
        assert "ok" in report.summary()


class TestPolicyHelpers:
    def test_parse_ladder_roundtrip(self):
        rungs = parse_ladder("dict,fastseq")
        assert [r.name for r in rungs] == ["dict", "fastseq"]
        assert rungs[0].engine == "dict"
        assert rungs[1].engine == "fast"

    def test_parse_ladder_rejects_unknown_rung(self):
        with pytest.raises(ReproError) as excinfo:
            parse_ladder("fastseq,warp-drive")
        # the error catalogues every canonical rung name
        for name in ("fastseq", "dict"):
            assert name in str(excinfo.value)

    def test_parse_ladder_rejects_empty_spec(self):
        with pytest.raises(ReproError, match="selects no rungs"):
            parse_ladder("")
        with pytest.raises(ReproError, match="selects no rungs"):
            parse_ladder(" , ,")

    def test_parse_ladder_rejects_duplicate_rungs(self):
        with pytest.raises(ReproError, match="duplicate ladder rung"):
            parse_ladder("fastseq,dict,fastseq")

    def test_parse_ladder_strips_whitespace(self):
        rungs = parse_ladder("  fastseq ,dict ")
        assert [r.name for r in rungs] == ["fastseq", "dict"]

    def test_default_ladder_order(self):
        assert [r.name for r in default_ladder()] == ["fastseq", "dict"]
        assert [r.engine for r in default_ladder()] == ["fast", "dict"]


class TestSupervisedRabbitOrder:
    def test_succeeds_on_first_rung_with_room(self, graph):
        policy = SupervisorPolicy(
            budgets=Budgets(time_s=120.0, poll_interval_s=0.01)
        )
        result, report = supervised_rabbit_order(graph, policy=policy)
        assert report.success
        assert report.final_rung == "fastseq"
        assert len(report.attempts) == 1
        validate_permutation(result.permutation, graph.num_vertices)

    def test_exhausted_budget_degrades_to_valid_audited_result(self, tmp_path):
        """The acceptance scenario: a time budget the first rung cannot
        meet must walk down the ladder and still return a valid
        dendrogram, with checkpoints carrying progress across rungs."""
        # large enough that the first rung's checkpoint writes alone
        # outlast the budget many times over
        graph = erdos_renyi_graph(1500, 0.01, rng=13)
        policy = SupervisorPolicy(
            budgets=Budgets(time_s=0.02, poll_interval_s=0.005),
            checkpoint=CheckpointConfig(directory=tmp_path / "ck", every=40),
        )
        result, report = supervised_rabbit_order(graph, policy=policy)
        assert report.success
        assert report.degradations >= 1
        assert any(a.outcome == "aborted" for a in report.attempts)
        validate_permutation(result.permutation, graph.num_vertices)
        result.dendrogram.validate()
        # checkpoints carried progress: some attempt after the first
        # started from a snapshot, so its heartbeat count is below n
        assert (tmp_path / "ck").exists()

    def test_failure_attaches_report(self):
        # large enough that the single budgeted rung cannot finish before
        # the watchdog's first poll, even on the compiled sweep
        big = rmat_graph(15, edge_factor=8, rng=17)
        policy = SupervisorPolicy(
            budgets=Budgets(time_s=0.001, poll_interval_s=0.002),
            ladder=(LadderRung(name="budgeted"),),
            final_rung_unbudgeted=False,
        )
        with pytest.raises(AttemptAbortedError) as exc_info:
            supervised_rabbit_order(big, policy=policy)
        report = exc_info.value.run_report
        assert not report.success
        assert report.final_rung == "budgeted"

    def test_result_does_not_depend_on_the_rung(self, graph, monkeypatch):
        """When the fastseq rung fails, the dict rung finishes the run
        with the very permutation fastseq would have produced."""
        import repro.rabbit.native as native_mod

        expected = rabbit_order(graph).permutation

        def broken(*args, **kwargs):
            raise ReproError("injected fastseq failure")

        monkeypatch.setattr(
            native_mod, "community_detection_fastseq", broken
        )
        policy = SupervisorPolicy()
        result, report = supervised_rabbit_order(graph, policy=policy)
        assert [a.rung for a in report.attempts] == ["fastseq", "dict"]
        assert report.attempts[0].outcome == "error"
        assert report.final_rung == "dict"
        assert np.array_equal(result.permutation, expected)
