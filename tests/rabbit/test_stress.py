"""Seed-sweep stress tests: hostile schedules and fault plans must still
yield complete, auditable dendrograms (ISSUE acceptance criteria)."""

import numpy as np
import pytest

from repro.graph import validate_permutation
from repro.graph.generators import rmat_graph
from repro.parallel.faults import FaultPlan
from repro.rabbit import community_detection_par

#: Shared small R-MAT instance (32 vertices) for the sweeps.
GRAPH = rmat_graph(5, edge_factor=4, rng=3)

CHAOS = FaultPlan(
    cas_failure_rate=0.4,
    spurious_invalid_rate=0.1,
    spurious_window=4,
    stall_rate=0.03,
    stall_steps=30,
    max_stalls=8,
    crash_rate=0.02,
    max_crashes=3,
)


def _check(res, n):
    res.dendrogram.validate()
    validate_permutation(res.dendrogram.ordering(), n)
    assert res.stats.merges + res.stats.toplevels == n
    assert res.dendrogram.toplevel.size == res.stats.toplevels


class TestSeedSweep:
    @pytest.mark.parametrize("seed", range(50))
    def test_fault_free_sweep(self, seed):
        """50 interleaving seeds without fault injection."""
        res = community_detection_par(
            GRAPH, scheduler_seed=seed, num_threads=8, audit=True
        )
        _check(res, GRAPH.num_vertices)
        assert res.fault_counters is None

    @pytest.mark.parametrize("seed", range(50))
    def test_chaos_sweep(self, seed):
        """The same 50 seeds under the chaos fault plan: forced CAS
        failures, spurious invalidations, stalls, and worker crashes."""
        import dataclasses

        plan = dataclasses.replace(CHAOS, seed=seed)
        res = community_detection_par(
            GRAPH,
            scheduler_seed=seed,
            num_threads=8,
            fault_plan=plan,
            audit=True,
        )
        _check(res, GRAPH.num_vertices)

    def test_sweep_actually_injected_faults(self):
        """Sanity: across the chaos sweep, every fault class fires at
        least once (otherwise the sweep above proves nothing)."""
        import dataclasses

        totals = {"forced_cas_failures": 0, "spurious_invalid_reads": 0,
                  "stalls": 0, "crashes": 0}
        recovered = 0
        for seed in range(10):
            plan = dataclasses.replace(CHAOS, seed=seed)
            res = community_detection_par(
                GRAPH, scheduler_seed=seed, fault_plan=plan
            )
            for key, value in res.fault_counters.snapshot().items():
                totals[key] += value
            recovered += res.stats.orphans_recovered
        assert all(v > 0 for v in totals.values()), totals
        assert recovered > 0


class TestExtremeFaults:
    def test_total_cas_failure_terminates_all_toplevel(self):
        """100% forced CAS failure: nothing can merge, yet the run
        terminates with a valid all-singleton dendrogram."""
        res = community_detection_par(
            GRAPH,
            scheduler_seed=0,
            fault_plan=FaultPlan(cas_failure_rate=1.0),
            audit=True,
        )
        _check(res, GRAPH.num_vertices)
        assert res.stats.merges == 0
        assert res.stats.toplevels == GRAPH.num_vertices
        assert res.fault_counters.forced_cas_failures > 0

    def test_all_workers_crash_immediately(self):
        """Every task crashes on its first step: the entire graph is
        orphaned and the sequential fallback does all the work."""
        plan = FaultPlan(seed=0, crash_rate=1.0, max_crashes=10**9)
        res = community_detection_par(
            GRAPH, scheduler_seed=1, fault_plan=plan, audit=True
        )
        n = GRAPH.num_vertices
        _check(res, n)
        assert res.stats.orphans_recovered == n
        assert res.stats.fallback_merges + res.stats.fallback_toplevels == n
        # The fallback still finds real structure, not just singletons.
        assert res.stats.fallback_merges > 0

    def test_crash_recovery_restores_invalidated_vertices(self):
        """Crashed-mid-merge vertices are repaired: no root may remain in
        the invalidated state (checked by the auditor's degree pass)."""
        for seed in range(20):
            plan = FaultPlan(seed=seed, crash_rate=0.05, max_crashes=5)
            res = community_detection_par(
                GRAPH, scheduler_seed=seed, fault_plan=plan, audit=True
            )
            _check(res, GRAPH.num_vertices)

    def test_disabled_plan_changes_nothing(self):
        """A FaultPlan with all rates zero must reproduce the unfaulted
        run exactly, counters included."""
        plain = community_detection_par(GRAPH, scheduler_seed=4)
        nofault = community_detection_par(
            GRAPH, scheduler_seed=4, fault_plan=FaultPlan(seed=99)
        )
        assert np.array_equal(
            plain.dendrogram.child, nofault.dendrogram.child
        )
        assert np.array_equal(
            plain.dendrogram.sibling, nofault.dendrogram.sibling
        )
        assert np.array_equal(
            plain.dendrogram.toplevel, nofault.dendrogram.toplevel
        )
        assert plain.stats.merges == nofault.stats.merges
        assert plain.stats.toplevels == nofault.stats.toplevels
        assert plain.stats.retries == nofault.stats.retries
        assert plain.op_counter.snapshot() == nofault.op_counter.snapshot()


class TestStressHarness:
    def test_quick_sweep_all_green(self):
        from repro.experiments.stress import run_stress

        report = run_stress(scale=5, num_seeds=2, quick=True)
        assert report.ok
        assert len(report.outcomes) > 0
        text = report.table()
        assert "chaos" in text and "baseline" in text

    def test_failures_are_reported_not_raised(self, monkeypatch):
        from repro.experiments import stress as stress_mod

        def boom(*args, **kwargs):
            from repro.errors import AuditError

            raise AuditError("synthetic failure")

        monkeypatch.setattr(stress_mod, "community_detection_par", boom)
        report = stress_mod.run_stress(scale=4, num_seeds=1, quick=True)
        assert not report.ok
        assert all("AuditError" in o.error for o in report.outcomes)
        assert "FAILED" in report.table()
