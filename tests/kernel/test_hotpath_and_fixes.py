"""Regression tests for the stats/kernel correctness fixes and the
event-kernel hot-path overhaul (same-time batch drain).

Each stats/validation test here fails on the pre-fix implementations:

* a windowed ``UtilizationTracker`` query counted busy time from before
  the window against the window (masked by a ``min(1.0, ...)`` clamp);
  the windows are now asked through ``busy_between(start, sim.now)``;
* ``run(until=True)`` silently ran to t=1.
"""

import pytest

from repro.kernel import Simulator
from repro.kernel.stats import UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


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
        assert tracker.busy_between(1000, sim.now) == 0
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
        assert tracker.busy_between(500, sim.now) == 500
        assert tracker.busy_between(500, sim.now) / (sim.now - 500) \
            == pytest.approx(0.5)

    def test_open_segment_clipped_to_window(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            yield 100
            tracker.set_busy()   # busy [100, ...)
            yield 900

        sim.process(proc())
        sim.run()
        assert tracker.busy_between(500, sim.now) == 500
        assert tracker.busy_between(500, sim.now) / (sim.now - 500) \
            == pytest.approx(1.0)

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
        assert tracker.busy_between(400, sim.now) == 200
        assert tracker.busy_between(400, sim.now) / (sim.now - 400) \
            == pytest.approx(0.5)


class TestRunArgumentValidation:
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


class TestTimerPayloads:
    def test_bare_callbacks_keep_their_own_values(self, sim):
        """Each bare calendar entry runs its own callback, wave after wave."""
        hits = []
        for __ in range(2):
            for index in range(50):
                sim._after(10 * (index + 1),
                           lambda _entry, i=index: hits.append(i))
            sim.run()
            assert hits == list(range(50))
            hits.clear()

    def test_int_yields_carry_no_payload(self, sim):
        seen = []

        def proc(n):
            for __ in range(n):
                got = yield 5
                seen.append(got)

        sim.process(proc(100))
        sim.process(proc(100))
        sim.run()
        # Implicit timeouts carry no payload.
        assert seen == [None] * 200


class TestTracePlayer:
    def test_play_trace_replays_and_traces_issues(self):
        from repro.host import parse_trace, play_trace
        from repro.nand import NandGeometry
        from repro.obs import disable_observability, enable_observability
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
            recorder = enable_observability()
            result = play_trace(sim, device, commands)
        finally:
            disable_observability()
        assert result.commands == 10
        # The span stream holds one command span per trace line, begun
        # at that line's issue time (1 us apart).
        assert [span.start_ps for span in recorder.commands] \
            == [t * 1_000_000 for t in range(10)]
