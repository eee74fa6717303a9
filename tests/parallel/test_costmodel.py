"""Work-span scalability projections."""

import pytest

from repro.errors import ReproError
from repro.order.base import OrderingStats
from repro.parallel.costmodel import (
    ParallelMachine,
    projected_speedup,
    projected_time,
)


def stats(work, span, parallelizable=True):
    s = OrderingStats(parallelizable=parallelizable)
    s.work = work
    s.span = span
    return s


class TestParallelMachine:
    def test_linear_until_cores(self):
        m = ParallelMachine(physical_cores=24, hardware_threads=48)
        assert m.effective_parallelism(1) == 1
        assert m.effective_parallelism(12) == 12
        assert m.effective_parallelism(24) == 24

    def test_smt_discounted(self):
        m = ParallelMachine(
            physical_cores=24, hardware_threads=48, smt_efficiency=0.5
        )
        assert m.effective_parallelism(48) == 24 + 0.5 * 24

    def test_capped_at_hardware_threads(self):
        m = ParallelMachine(physical_cores=24, hardware_threads=48)
        assert m.effective_parallelism(96) == m.effective_parallelism(48)

    def test_validation(self):
        with pytest.raises(ReproError):
            ParallelMachine(physical_cores=0)
        with pytest.raises(ReproError):
            ParallelMachine(physical_cores=8, hardware_threads=4)
        with pytest.raises(ReproError):
            ParallelMachine(smt_efficiency=2.0)
        with pytest.raises(ReproError):
            ParallelMachine().effective_parallelism(0)


class TestProjection:
    def test_one_thread_is_total_work(self):
        assert projected_time(stats(1000, 10), 1) == pytest.approx(1000)

    def test_embarrassingly_parallel_scales(self):
        t12 = projected_time(stats(12000, 1), 12)
        assert t12 == pytest.approx(1 + 11999 / 12)

    def test_span_bounds_speedup(self):
        s = stats(1000, 500)
        t = projected_time(s, 48)
        assert t >= 500

    def test_sequential_never_speeds_up(self):
        s = stats(1000, 1000, parallelizable=False)
        assert projected_time(s, 48) == 1000

    def test_span_clamped_to_work(self):
        s = stats(100, 500)  # inconsistent profile: span > work
        assert projected_time(s, 4) == pytest.approx(100)

    def test_speedup_monotone_in_threads(self):
        s = stats(100_000, 100)
        speeds = [projected_speedup(s, s, p) for p in (1, 12, 24, 48)]
        assert speeds == sorted(speeds)
        assert speeds[0] == pytest.approx(1.0)

    def test_ht_sublinear(self):
        """Doubling 24 -> 48 threads must gain less than 2x (HT discount),
        matching the paper's 17.4x-at-48 shape."""
        m = ParallelMachine(memory_parallelism_cap=64.0)  # isolate SMT effect
        s = stats(1_000_000, 1)
        s24 = projected_speedup(s, s, 24, m)
        s48 = projected_speedup(s, s, 48, m)
        assert s48 > s24
        assert s48 < 1.5 * s24

    def test_memory_cap_limits_speedup(self):
        s = stats(10_000_000, 1)
        m = ParallelMachine(memory_parallelism_cap=20.0)
        assert projected_speedup(s, s, 48, m) <= 20.0 + 1e-9

    def test_barriers_cost_grows_with_threads(self):
        s = stats(10_000, 10)
        s.barriers = 50
        t2 = projected_time(s, 2)
        t32 = projected_time(s, 32)
        # The parallel work shrinks but the barrier term grows with log p;
        # at this work size the barrier term is visible.
        assert t32 > (10 + (10_000 - 10) / 20)  # more than barrier-free time

    def test_barrier_free_at_one_thread(self):
        s = stats(10_000, 10)
        s.barriers = 50
        assert projected_time(s, 1) == pytest.approx(10_000)

    def test_contention_work_lowers_speedup(self):
        base = stats(1000, 10)
        contended = stats(1400, 10)  # 40% redone work at high concurrency
        assert projected_speedup(contended, base, 24) < projected_speedup(
            base, base, 24
        )
