"""The seeded interleaving scheduler and the single-task driver."""

import pytest

from repro.errors import SchedulerError
from repro.parallel.scheduler import InterleavingScheduler, drive


def appender(log, name, steps):
    for i in range(steps):
        log.append((name, i))
        yield


class TestInterleavingScheduler:
    def test_all_tasks_complete(self):
        log = []
        InterleavingScheduler(seed=0).run(
            [appender(log, "a", 3), appender(log, "b", 3)]
        )
        assert sorted(log) == [(n, i) for n in "ab" for i in range(3)]

    def test_replay_identical(self):
        def run(seed):
            log = []
            InterleavingScheduler(seed=seed).run(
                [appender(log, n, 5) for n in "abcd"]
            )
            return log

        assert run(7) == run(7)

    def test_different_seeds_differ(self):
        def run(seed):
            log = []
            InterleavingScheduler(seed=seed).run(
                [appender(log, n, 10) for n in "abcd"]
            )
            return tuple(log)

        outcomes = {run(s) for s in range(10)}
        assert len(outcomes) > 1

    def test_window_limits_concurrency(self):
        """With window=1 tasks run one at a time, in admission order."""
        log = []
        InterleavingScheduler(seed=3).run(
            [appender(log, n, 3) for n in "ab"], window=1
        )
        assert log == [("a", i) for i in range(3)] + [("b", i) for i in range(3)]

    def test_spawned_tasks_run(self):
        log = []

        def parent():
            yield appender(log, "child", 2)
            log.append(("parent", 0))
            yield

        InterleavingScheduler(seed=0).run([parent()])
        assert ("child", 1) in log and ("parent", 0) in log

    def test_livelock_detected(self):
        def forever():
            while True:
                yield

        with pytest.raises(SchedulerError, match="quiesce"):
            InterleavingScheduler(seed=0, max_steps=100).run([forever()])

    def test_steps_counted(self):
        s = InterleavingScheduler(seed=0)
        s.run([appender([], "a", 4)])
        assert s.steps_taken == 5  # 4 yields + StopIteration

    def test_empty_task_set(self):
        InterleavingScheduler(seed=0).run([])


class TestHelpers:
    def test_drive_runs_to_completion(self):
        log = []
        drive(appender(log, "x", 3))
        assert len(log) == 3

    def test_drive_recurses_into_spawned(self):
        log = []

        def parent():
            yield appender(log, "c", 2)

        drive(parent())
        assert len(log) == 2
