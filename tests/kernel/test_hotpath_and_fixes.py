"""Regression tests for the stats/kernel correctness fixes and the
event-kernel hot-path overhaul (same-time batch drain, timeout free list,
tracing guard).

Each stats/validation test here fails on the pre-fix implementations:

* ``ThroughputMeter`` treated a sample at t=0 as "no window" (``last_ps or
  0``) and reported 0.0 despite recorded bytes;
* ``UtilizationTracker.utilization(since=...)`` counted busy time from
  before the window against the window (masked by a ``min(1.0, ...)``
  clamp);
* ``Simulator.call_at`` leaked ``Timeout``'s raw ``ValueError`` for past
  times, and ``run(until=True)`` silently ran to t=1.
"""

import pytest

from repro.kernel import (SimulationError, Simulator, disable_tracing,
                          enable_tracing)
from repro.kernel.stats import ThroughputMeter, UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


class TestThroughputMeterTimeZero:
    def test_sample_at_time_zero_not_dropped(self, sim):
        meter = ThroughputMeter(sim)
        meter.record(1_000_000)  # 1 MB at t=0
        sim.timeout(10**12)      # advance the clock one second
        sim.run()
        assert meter.megabytes_per_second() == pytest.approx(1.0)
        assert meter.iops() == pytest.approx(1.0)

    def test_sample_at_time_zero_with_clock_still_at_zero(self, sim):
        meter = ThroughputMeter(sim)
        meter.record(4096)
        # Degenerate: no time has passed at all — nothing meaningful to
        # report, but it must not crash.
        assert meter.megabytes_per_second() == 0.0
        assert meter.iops() == 0.0

    def test_later_samples_unaffected(self, sim):
        meter = ThroughputMeter(sim)

        def proc():
            meter.record(1_000_000)      # t=0
            yield 10**12
            meter.record(1_000_000)      # t=1s

        sim.process(proc())
        sim.run()
        assert meter.megabytes_per_second() == pytest.approx(2.0)


class TestWindowedUtilization:
    def test_pre_window_busy_not_counted(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 1000           # busy [0, 1000)
            tracker.set_idle()
            yield 1000           # idle [1000, 2000)

        sim.process(proc())
        sim.run()
        # All busy time precedes the window: must be 0, not the clamped 1.0
        # the old implementation produced.
        assert tracker.utilization(since=1000) == 0.0
        assert tracker.busy_time(since=1000) == 0
        assert tracker.utilization() == pytest.approx(0.5)

    def test_straddling_segment_split(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 1000           # busy [0, 1000)
            tracker.set_idle()
            yield 500            # idle [1000, 1500)

        sim.process(proc())
        sim.run()
        # Window [500, 1500): only [500, 1000) of the busy segment counts.
        assert tracker.busy_time(since=500) == 500
        assert tracker.utilization(since=500) == pytest.approx(0.5)

    def test_open_segment_clipped_to_window(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            yield 100
            tracker.set_busy()   # busy [100, ...)
            yield 900

        sim.process(proc())
        sim.run()
        assert tracker.busy_time(since=500) == 500
        assert tracker.utilization(since=500) == pytest.approx(1.0)

    def test_multiple_segments_windowed(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            for __ in range(4):
                tracker.set_busy()
                yield 100
                tracker.set_idle()
                yield 100        # busy [0,100), [200,300), [400,500), [600,700)

        sim.process(proc())
        sim.run()
        assert tracker.busy_time() == 400
        assert tracker.busy_time(since=400) == 200
        assert tracker.utilization(since=400) == pytest.approx(0.5)


class TestRunArgumentValidation:
    def test_call_at_past_raises_simulation_error(self, sim):
        sim.timeout(100)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.call_at(50, lambda: None)
        assert "50" in str(excinfo.value)
        assert "100" in str(excinfo.value)

    def test_run_until_bool_rejected(self, sim):
        sim.timeout(5)
        with pytest.raises(TypeError):
            sim.run(until=True)
        with pytest.raises(TypeError):
            sim.run(until=False)
        assert sim.now == 0  # nothing ran

    def test_run_until_int_still_works(self, sim):
        sim.timeout(10)
        sim.run(until=7)
        assert sim.now == 7


class TestSameTimeBatchSemantics:
    def test_fifo_schedule_order_preserved(self, sim):
        order = []
        for tag in range(8):
            sim.timeout(50).add_callback(lambda ev, t=tag: order.append(t))
        sim.run()
        assert order == list(range(8))

    def test_events_scheduled_during_drain_run_same_time(self, sim):
        order = []

        def first(ev):
            order.append("first")
            # Scheduled *while* the t=100 batch is draining: must still run
            # at t=100, after the already-scheduled events.
            sim.timeout(0).add_callback(
                lambda ev: order.append(("cascade", sim.now)))

        sim.timeout(100).add_callback(first)
        sim.timeout(100).add_callback(lambda ev: order.append("second"))
        sim.run()
        assert order == ["first", "second", ("cascade", 100)]

    def test_stop_mid_batch_keeps_tail_scheduled(self, sim):
        order = []
        sim.timeout(10).add_callback(lambda ev: (order.append("a"),
                                                 sim.stop()))
        sim.timeout(10).add_callback(lambda ev: order.append("b"))
        sim.run()
        assert order == ["a"]
        assert sim.peek() == 10  # the tail is still on the calendar
        sim.run()
        assert order == ["a", "b"]

    def test_run_until_event_mid_batch_resumes_cleanly(self, sim):
        order = []
        target = sim.timeout(10)
        target.add_callback(lambda ev: order.append("target"))
        sim.timeout(10).add_callback(lambda ev: order.append("tail"))
        sim.run(until=target)
        assert order == ["target"]
        sim.run()
        assert order == ["target", "tail"]

    def test_condition_payloads_unchanged(self, sim):
        def make(delay, value):
            yield delay
            return value

        def main():
            procs = [sim.process(make(d, v))
                     for d, v in ((30, "a"), (10, "b"), (30, "c"))]
            all_results = yield sim.all_of(procs)
            return sorted(all_results.values())

        assert sim.run(until=sim.process(main())) == ["a", "b", "c"]

        sim2 = Simulator()

        def main_any():
            procs = [sim2.process(make(d, v)) for d, v in ((30, "a"), (10, "b"))]
            results = yield sim2.any_of(procs)
            return (sim2.now, list(results.values()))

        assert sim2.run(until=sim2.process(main_any())) == (10, ["b"])


class TestTimeoutFreeList:
    def test_pooled_timers_do_not_leak_values(self, sim):
        """call_after timers are recycled; reuse must not corrupt payloads."""
        hits = []
        for index in range(50):
            sim.call_after(10 * (index + 1), lambda i=index: hits.append(i))
        sim.run()
        assert hits == list(range(50))
        # The pool is primed now; a second wave reuses recycled objects.
        hits.clear()
        for index in range(50):
            sim.call_after(10 * (index + 1), lambda i=index: hits.append(i))
        sim.run()
        assert hits == list(range(50))

    def test_int_yield_values_isolated_across_reuse(self, sim):
        seen = []

        def proc(n):
            for __ in range(n):
                got = yield 5
                seen.append(got)

        sim.process(proc(100))
        sim.process(proc(100))
        sim.run()
        # Implicit timeouts carry no payload; reuse must preserve that.
        assert seen == [None] * 200

    def test_interrupted_pooled_timer_is_harmless(self, sim):
        from repro.kernel import Interrupt

        def sleeper():
            try:
                yield 1000
            except Interrupt:
                return "interrupted"

        handle = sim.process(sleeper())

        def interrupter():
            yield 10
            handle.interrupt()

        sim.process(interrupter())
        assert sim.run(until=handle) == "interrupted"
        sim.run()  # drain the abandoned timer; must not raise


class TestTracingNeutrality:
    def _run_device_workload(self):
        from repro.host import sequential_write
        from repro.nand import NandGeometry
        from repro.ssd import (CachePolicy, SsdArchitecture, SsdDevice,
                               run_workload)
        geo = NandGeometry(planes_per_die=1, blocks_per_plane=32,
                           pages_per_block=16)
        arch = SsdArchitecture(n_channels=2, n_ways=1, dies_per_way=1,
                               n_ddr_buffers=1, geometry=geo,
                               dram_refresh=False,
                               cache_policy=CachePolicy.NO_CACHING)
        sim = Simulator()
        device = SsdDevice(sim, arch)
        result = run_workload(sim, device, sequential_write(4096 * 20))
        return (sim.now, sim.events_processed, result.throughput_mbps,
                result.commands)

    def test_tracing_on_off_identical_results(self):
        disable_tracing()
        try:
            baseline = self._run_device_workload()
            enable_tracing(capacity=100_000)
            traced = self._run_device_workload()
        finally:
            disable_tracing()
        assert traced == baseline

    def test_guarded_sites_still_record_when_enabled(self):
        try:
            recorder = enable_tracing(capacity=100_000)
            self._run_device_workload()
            assert len(recorder.records(event="program")) > 0
            assert len(recorder.records(event="complete")) > 0
        finally:
            disable_tracing()

    def test_trace_enabled_flag(self):
        from repro.kernel import trace_enabled
        assert not trace_enabled()
        try:
            enable_tracing()
            assert trace_enabled()
        finally:
            disable_tracing()
        assert not trace_enabled()


class TestTracePlayer:
    def test_play_trace_replays_and_traces_issues(self):
        from repro.host import parse_trace, play_trace
        from repro.nand import NandGeometry
        from repro.ssd import CachePolicy, SsdArchitecture, SsdDevice
        text = "\n".join(f"{t} W {8 * t} 8" for t in range(10))
        commands = parse_trace(text)
        geo = NandGeometry(planes_per_die=1, blocks_per_plane=32,
                           pages_per_block=16)
        arch = SsdArchitecture(n_channels=1, n_ways=1, dies_per_way=1,
                               n_ddr_buffers=1, geometry=geo,
                               dram_refresh=False,
                               cache_policy=CachePolicy.NO_CACHING)
        sim = Simulator()
        device = SsdDevice(sim, arch)
        try:
            recorder = enable_tracing(capacity=10_000)
            result = play_trace(sim, device, commands)
        finally:
            disable_tracing()
        assert result.commands == 10
        issues = recorder.records(event="issue")
        assert len(issues) == 10
        assert issues[0].component == "host.trace"
