"""Cooperative cancellation plumbing: RunControl, heartbeat, installation."""

import pytest

from repro.errors import AttemptAbortedError, BudgetExceededError
from repro.resilience.runtime import (
    PROGRESS_COUNTER,
    RunControl,
    current_control,
    heartbeat,
)


class TestHeartbeat:
    def test_noop_when_unsupervised(self):
        assert current_control() is None
        heartbeat()  # must not raise, must not require any setup
        heartbeat(0)

    def test_counts_units_while_installed(self):
        control = RunControl()
        with control.installed():
            assert current_control() is control
            heartbeat(3)
            heartbeat()  # default: one unit
            heartbeat(0)  # a cancel check without progress
        assert current_control() is None
        assert control.progress == 4

    def test_progress_is_relative_to_this_control(self):
        first = RunControl()
        with first.installed():
            heartbeat(10)
        second = RunControl()  # same process-wide counter underneath
        assert second.progress == 0
        with second.installed():
            heartbeat(2)
        assert second.progress == 2
        assert first.progress == 12

    def test_cancel_delivers_stored_reason_at_next_beat(self):
        control = RunControl()
        reason = BudgetExceededError("out of time")
        control.cancel(reason)
        control.cancel(AttemptAbortedError("too late, first reason wins"))
        with control.installed():
            with pytest.raises(BudgetExceededError, match="out of time"):
                heartbeat()

    def test_zero_unit_beat_still_delivers_cancel(self):
        control = RunControl()
        control.cancel(AttemptAbortedError("stop"))
        with control.installed():
            with pytest.raises(AttemptAbortedError):
                heartbeat(0)

    def test_installed_restores_previous_control(self):
        outer, inner = RunControl(), RunControl()
        with outer.installed():
            with inner.installed():
                assert current_control() is inner
            assert current_control() is outer
        assert current_control() is None


def test_progress_counter_name_is_public():
    assert PROGRESS_COUNTER == "resilience.progress"


def test_engines_beat_under_installed_control():
    """Both sequential engines feed the counter: one unit per vertex."""
    from repro.graph.generators import erdos_renyi_graph
    from repro.rabbit.order import rabbit_order

    g = erdos_renyi_graph(50, 0.1, rng=3)
    for engine in ("fast", "dict"):
        control = RunControl()
        with control.installed():
            rabbit_order(g, engine=engine)
        assert control.progress == g.num_vertices, engine
