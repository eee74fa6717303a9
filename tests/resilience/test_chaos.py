"""Chaos campaign: a real SIGKILLed subprocess must resume bit-identically."""

from repro.experiments.stress import run_chaos


class TestChaosCampaign:
    def test_sigkill_resume_interleave(self):
        report = run_chaos(scale=6, num_seeds=1, engines=("fast", "dict"))
        assert report.ok, report.table()
        # every cell really was killed mid-run and resumed from a snapshot
        assert all(o.resumed_from > 0 for o in report.outcomes)
        assert [o.engine for o in report.outcomes] == ["fast", "dict"]
