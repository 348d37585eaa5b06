"""Tests for DDR2 timing, the controller, and the buffer manager."""

import dataclasses
import pickle

import pytest

from repro.dram import BufferManager, Ddr2Timing, DramController
from repro.kernel import PriorityResource, Simulator
from repro.kernel.simtime import us
from tests.grantlog import GrantLog


@pytest.fixture
def sim():
    return Simulator()


class TestDdr2Timing:
    def test_peak_bandwidth_ddr2_800_x16(self):
        timing = Ddr2Timing()
        assert timing.peak_bandwidth_mbps() == pytest.approx(1600.0)

    def test_burst_bytes(self):
        timing = Ddr2Timing()
        assert timing.burst_bytes == 8
        assert timing.burst_cycles == 2

    def test_bursts_for(self):
        timing = Ddr2Timing()
        assert timing.bursts_for(8) == 1
        assert timing.bursts_for(9) == 2
        assert timing.bursts_for(0) == 0

    def test_burst_ps(self):
        timing = Ddr2Timing()  # 400 MHz -> 2500 ps
        assert timing.burst_ps(1) == 5000
        assert timing.burst_ps(512) == 512 * 5000

    def test_clock_built_once_and_not_a_field(self):
        timing = Ddr2Timing()
        assert timing.clock is timing.clock
        assert timing.clock.period_ps == 2500
        assert "clock" not in {f.name for f in dataclasses.fields(timing)}
        assert timing == Ddr2Timing() and hash(timing) == hash(Ddr2Timing())
        restored = pickle.loads(pickle.dumps(timing))
        assert restored == timing
        assert restored.clock.period_ps == timing.clock.period_ps
        slower = dataclasses.replace(timing, clock_hz=200e6)
        assert slower.clock.period_ps == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            Ddr2Timing(clock_hz=0)
        with pytest.raises(ValueError):
            Ddr2Timing(burst_length=3)
        with pytest.raises(ValueError):
            Ddr2Timing(banks=0)
        with pytest.raises(ValueError):
            Ddr2Timing().bursts_for(-1)


class TestDramController:
    def test_address_mapping_rotates_banks(self, sim):
        ctrl = DramController(sim, "d", Ddr2Timing(), enable_refresh=False)
        bank0, row0 = ctrl.map_address(0)
        bank1, row1 = ctrl.map_address(2048)
        assert bank0 == 0 and bank1 == 1
        assert row0 == row1 == 0

    def test_row_hit_faster_than_miss(self, sim):
        timing = Ddr2Timing()
        ctrl = DramController(sim, "d", timing, enable_refresh=False)

        def flow():
            first = yield sim.process(ctrl.read(0, 64))
            again = yield sim.process(ctrl.read(64, 64))
            return first, again

        first, again = sim.run(until=sim.process(flow()))
        assert again < first
        assert ctrl.row_hits == 1

    def test_large_access_spans_rows(self, sim):
        timing = Ddr2Timing()
        ctrl = DramController(sim, "d", timing, enable_refresh=False)
        sim.run(until=sim.process(ctrl.write(0, 4096)))
        # 4096 bytes = 2 rows of 2048 -> two activations, no hits.
        assert ctrl.row_empty == 2

    def test_throughput_near_peak_for_streaming(self, sim):
        timing = Ddr2Timing()
        ctrl = DramController(sim, "d", timing, enable_refresh=False)

        def flow():
            for i in range(64):
                yield sim.process(ctrl.write(i * 4096, 4096))

        sim.run(until=sim.process(flow()))
        issued = ctrl.bytes
        assert issued == 64 * 4096
        mbps = issued / 1e6 / (sim.now / 1e12)
        assert mbps > 0.7 * timing.peak_bandwidth_mbps()
        assert mbps <= timing.peak_bandwidth_mbps()

    def test_concurrent_accesses_serialize(self, sim):
        ctrl = DramController(sim, "d", Ddr2Timing(), enable_refresh=False)
        done = []

        def client(tag):
            yield sim.process(ctrl.read(0, 2048))
            done.append((tag, sim.now))

        sim.process(client("a"))
        sim.process(client("b"))
        sim.run()
        assert done[0][1] < done[1][1]

    def test_refresh_closes_rows_and_costs_time(self, sim):
        timing = Ddr2Timing()
        ctrl = DramController(sim, "d", timing, enable_refresh=True)

        def flow():
            yield sim.process(ctrl.read(0, 64))          # opens row
            yield sim.timeout(timing.refresh_interval_ps * 2)
            hit_before = ctrl.row_hits
            yield sim.process(ctrl.read(0, 64))          # row was closed
            return hit_before

        handle = sim.process(flow())
        sim.run(until=handle)
        assert ctrl.refreshes >= 1
        assert ctrl.row_hits == 0

    def test_invalid_access_size(self, sim):
        ctrl = DramController(sim, "d", Ddr2Timing(), enable_refresh=False)
        with pytest.raises(ValueError):
            sim.run(until=sim.process(ctrl.read(0, 0)))

    def test_negative_address_rejected(self, sim):
        ctrl = DramController(sim, "d", Ddr2Timing(), enable_refresh=False)
        with pytest.raises(ValueError):
            ctrl.map_address(-1)


class TestBufferManager:
    def make(self, sim, n_buffers=2, n_channels=4, capacity=16384):
        return BufferManager(sim, "bufs", n_buffers, Ddr2Timing(),
                             n_channels, capacity_bytes_per_buffer=capacity,
                             enable_refresh=False)

    def test_buffer_count_bounded_by_channels(self, sim):
        with pytest.raises(ValueError):
            BufferManager(sim, "bufs", 8, Ddr2Timing(), 4)

    def test_channel_affinity(self, sim):
        manager = self.make(sim, n_buffers=2, n_channels=4)
        assert manager.buffer_for_channel(0) == 0
        assert manager.buffer_for_channel(1) == 1
        assert manager.buffer_for_channel(2) == 0
        assert manager.buffer_for_channel(3) == 1

    def test_channel_out_of_range(self, sim):
        manager = self.make(sim)
        with pytest.raises(ValueError):
            manager.buffer_for_channel(4)

    def test_reserve_release_occupancy(self, sim):
        manager = self.make(sim)

        def flow():
            yield from manager.reserve(0, 4096)
            assert manager.occupancy(0) == 4096
            manager.release(0, 4096)
            assert manager.occupancy(0) == 0

        sim.run(until=sim.process(flow()))

    def test_reserve_blocks_when_full(self, sim):
        manager = self.make(sim, capacity=8192)
        timeline = []

        def filler():
            yield from manager.reserve(0, 8192)
            timeline.append(("filled", sim.now))
            yield sim.timeout(us(10))
            manager.release(0, 8192)

        def waiter():
            yield sim.timeout(1)
            yield from manager.reserve(0, 4096)
            timeline.append(("reserved", sim.now))

        sim.process(filler())
        handle = sim.process(waiter())
        sim.run(until=handle)
        assert timeline == [("filled", 0), ("reserved", us(10))]

    def test_blocked_writers_keep_event_count_and_grant_order(self, sim):
        # Pinned from the implementation where every woken writer resumed
        # its process and re-queued a fresh event: each release still
        # wakes every blocked writer as one kernel event, and the ones
        # that do not fit go back to the queue in wake order.
        manager = self.make(sim, capacity=8192)
        grants = []

        def filler():
            yield from manager.reserve(0, 8192)
            for nbytes in (2048, 2048, 4096):
                yield us(10)
                manager.release(0, nbytes)

        def writer(name, start, nbytes, hold):
            yield start
            yield from manager.reserve(0, nbytes)
            grants.append((name, sim.now))
            yield hold
            manager.release(0, nbytes)

        sim.process(filler())
        for args in (("a", 1, 6144, us(5)), ("b", 2, 4096, us(5)),
                     ("c", 3, 2048, us(20)), ("d", 4, 4096, us(1))):
            sim.process(writer(*args))
        sim.run()
        assert grants == [("c", us(10)), ("a", us(30)), ("b", us(35)),
                          ("d", us(35))]
        assert sim.events_processed == 33
        assert manager.occupancy(0) == 0
        assert sim.now == us(40)

    def test_oversize_reserve_rejected(self, sim):
        manager = self.make(sim, capacity=4096)

        def flow():
            yield from manager.reserve(0, 8192)

        with pytest.raises(ValueError):
            sim.run(until=sim.process(flow()))

    def test_over_release_rejected(self, sim):
        manager = self.make(sim)
        with pytest.raises(ValueError):
            manager.release(0, 1)

    def test_write_read_roundtrip_takes_time(self, sim):
        manager = self.make(sim)

        def flow():
            wrote = yield from manager.write(0, 4096)
            read = yield from manager.read(1, 4096)
            return wrote, read

        wrote, read = sim.run(until=sim.process(flow()))
        assert wrote > 0 and read > 0

    def test_buffers_operate_in_parallel(self, sim):
        manager = self.make(sim, n_buffers=2)
        finishes = []

        def client(buffer_index):
            yield from manager.write(buffer_index, 4096)
            finishes.append(sim.now)

        sim.process(client(0))
        sim.process(client(1))
        sim.run()
        # Independent devices: both complete at the same time.
        assert finishes[0] == finishes[1]


class TestRefreshPriority:
    def test_refresh_jumps_access_queue(self, sim):
        """Refresh cannot be deferred: with a backlog of accesses queued,
        the refresh request is served before later-queued accesses."""
        timing = Ddr2Timing(refresh_interval_ps=1_000_000)  # 1 us
        ctrl = DramController(sim, "d", timing, enable_refresh=True)
        order = []

        def client(tag):
            yield sim.process(ctrl.read(0, 2048))
            order.append((tag, sim.now))

        # Queue several long accesses so the bus stays busy across the
        # first refresh interval.
        for tag in range(6):
            sim.process(client(tag))
        sim.run(until=sim.timeout(20_000_000))
        assert ctrl.refreshes >= 1
        # All accesses still completed (no starvation either way).
        assert len(order) == 6


class TestBankParallelism:
    def test_different_banks_overlap_activations(self, sim):
        """Two row misses in different banks overlap their ACT phases;
        two in the same bank fully serialize."""
        timing = Ddr2Timing()

        def run_pair(addresses):
            inner = Simulator()
            ctrl = DramController(inner, "d", timing, enable_refresh=False)
            handles = [inner.process(ctrl.read(a, 64)) for a in addresses]

            def flow():
                yield inner.all_of(handles)

            inner.run(until=inner.process(flow()))
            return inner.now

        same_bank = run_pair([0, 4096 * 4])       # both bank 0
        different = run_pair([0, 2048])           # banks 0 and 1
        assert different < same_bank

    def test_data_bus_still_serializes_bursts(self, sim):
        """Large streaming transfers to different banks cannot exceed the
        shared-bus peak."""
        timing = Ddr2Timing()
        ctrl = DramController(sim, "d", timing, enable_refresh=False)
        handles = [sim.process(ctrl.write(i * 2048, 2048))
                   for i in range(16)]

        def flow():
            yield sim.all_of(handles)

        sim.run(until=sim.process(flow()))
        # The peak-bandwidth bound is an absolute-time claim, so measure
        # from t=0 (the run ends with the last access).
        issued = ctrl.bytes
        assert issued == 16 * 2048
        mbps = issued / 1e6 / (sim.now / 1e12)
        assert mbps <= timing.peak_bandwidth_mbps() * 1.001


class TestContendedRefreshPinned:
    """Refresh racing overlapping 2 KiB accesses on several banks, with
    accesses issued at exactly a refresh timestamp (both before and after
    the refresh timer in the same-time batch).  Every figure below was
    captured from the generator-based refresh loop; the callback-chain
    refresh must reproduce each one exactly, event count included."""

    ROW = 2048
    #: (issue time ps, byte address, is_write); the timers of these are
    #: scheduled at t=0, ahead of any re-armed refresh timer.
    ACCESSES = [
        (0, 0, False), (0, ROW, True), (0, 2 * ROW, False), (0, 1024, True),
        (100_000, 0, True), (250_000, 3 * ROW, False),
        (400_000, 8 * ROW, True), (990_000, ROW, False),
        (1_000_000, 2 * ROW, True), (1_000_000, 9 * ROW, False),
        (1_000_000, 5 * ROW + 512, True), (1_050_000, 0, False),
        (1_999_000, 4 * ROW, True), (2_000_000, 3 * ROW, True),
        (2_000_000, 11 * ROW, False),
    ]
    #: Two-step waits whose final timer lands on the 2 us refresh
    #: timestamp but is scheduled after the refresh re-armed itself.
    LATE = [(1_500_000, 500_000, 6 * ROW, False),
            (1_500_000, 500_000, 7 * ROW, True)]

    def test_contended_refresh_is_pinned(self, sim, monkeypatch):
        log = GrantLog(monkeypatch)
        ctrl = DramController(sim, "d",
                              Ddr2Timing(refresh_interval_ps=1_000_000))
        done = {}

        def client(tag, waits, address, is_write):
            for wait in waits:
                yield sim.timeout(wait)
            yield sim.process(ctrl.access(address, 2048, is_write))
            done[tag] = sim.now

        for tag, (issue, address, is_write) in enumerate(self.ACCESSES):
            sim.process(client(tag, [issue], address, is_write))
        for offset, (first, second, address, is_write) in enumerate(self.LATE):
            sim.process(client(len(self.ACCESSES) + offset, [first, second],
                               address, is_write))
        sim.run(until=30_000_000)

        assert sim.events_processed == 274
        assert {name: getattr(ctrl, name) for name in (
            "reads", "writes", "bytes", "refreshes", "row_hits",
            "row_misses", "row_empty")} == {
            "reads": 8, "writes": 9, "bytes": 17 * 2048, "refreshes": 10,
            "row_hits": 1, "row_misses": 2, "row_empty": 16}
        assert ctrl.bus.busy_time() == 23_145_000
        assert (log.wait_ps(ctrl.bus), log.grants(ctrl.bus)) == (
            50_561_000, 29)
        assert [(log.wait_ps(bank), log.grants(bank))
                for bank in ctrl._banks] == [
            (65_372_500, 15), (31_562_500, 14), (10_387_500, 12),
            (23_305_000, 13), (2_260_000, 11), (0, 11), (5_267_500, 12),
            (1_290_000, 11)]
        assert [done[tag] for tag in sorted(done)] == [
            1_300_000, 2_590_000, 3_870_000, 20_905_000, 16_257_500,
            5_150_000, 20_255_000, 12_057_500, 13_347_500, 17_537_500,
            14_967_500, 22_332_500, 7_410_000, 14_637_500, 18_817_500,
            8_690_000, 9_980_000]


class TestInPlaceRefresh:
    """On an idle device every refresh finds each bank and the bus free,
    so it takes them in place: no Grant, the same events, and the same
    grant log an immediate grant would leave."""

    INTERVAL = 1_000_000
    REFRESHES = 7

    def test_idle_refresh_takes_slots_without_grants(self, sim, monkeypatch):
        log = GrantLog(monkeypatch)
        acquires = []
        acquire = PriorityResource.acquire

        def counting_acquire(resource, priority=0):
            acquires.append(resource.name)
            return acquire(resource, priority)

        monkeypatch.setattr(PriorityResource, "acquire", counting_acquire)
        ctrl = DramController(sim, "d",
                              Ddr2Timing(refresh_interval_ps=self.INTERVAL))
        rfc = ctrl.timing.refresh_ps()
        n = self.REFRESHES
        # Idle period: tREFI of waiting, then tRFC of refresh.
        sim.run(until=n * (self.INTERVAL + rfc))

        assert acquires == []
        # One bootstrap, then per refresh: the tREFI timer, nine claim
        # steps (eight banks and the bus) and the tRFC timer.
        assert sim.events_processed == 1 + 11 * n
        assert ctrl.refreshes == n
        assert ctrl.bus.busy_time() == n * rfc
        assert (log.grants(ctrl.bus), log.wait_ps(ctrl.bus)) == (n, 0)
        for bank in ctrl._banks:
            assert (log.grants(bank), log.wait_ps(bank)) == (n, 0)
            assert bank.busy_time() == n * rfc
            assert bank.in_use == 0
        assert ctrl.bus.in_use == 0


class TestRefreshLifecycle:
    INTERVAL = 1_000_000

    def _idle_run(self, sim, enable_refresh, extra_starts=0):
        ctrl = DramController(sim, "d",
                              Ddr2Timing(refresh_interval_ps=self.INTERVAL),
                              enable_refresh=enable_refresh)
        for _ in range(extra_starts):
            ctrl.start_refresh()
        sim.run(until=10 * self.INTERVAL + self.INTERVAL // 2)
        return ctrl

    def test_start_refresh_is_idempotent(self, sim):
        ctrl = self._idle_run(sim, enable_refresh=True, extra_starts=2)
        # Idle device: each cycle is tREFI of waiting plus tRFC of refresh.
        period = self.INTERVAL + ctrl.timing.refresh_ps()
        assert ctrl.refreshes == sim.now // period
        once = Simulator()
        self._idle_run(once, enable_refresh=True)
        assert sim.events_processed == once.events_processed

    def test_late_start_refresh_begins_one_interval_later(self, sim):
        ctrl = DramController(sim, "d",
                              Ddr2Timing(refresh_interval_ps=self.INTERVAL),
                              enable_refresh=False)
        sim.run(until=self.INTERVAL // 2)
        ctrl.start_refresh()
        ctrl.start_refresh()
        sim.run(until=3 * self.INTERVAL)
        assert ctrl.refreshes == 2

    def test_disabled_refresh_adds_no_stats(self, sim):
        ctrl = self._idle_run(sim, enable_refresh=False)
        assert (ctrl.reads, ctrl.writes, ctrl.bytes, ctrl.refreshes,
                ctrl.row_hits, ctrl.row_misses, ctrl.row_empty) == (0,) * 7
        assert sim.events_processed == 0

    def test_refresh_counter_created_by_first_refresh(self, sim):
        ctrl = DramController(sim, "d",
                              Ddr2Timing(refresh_interval_ps=self.INTERVAL))
        sim.run(until=self.INTERVAL - 1)
        assert ctrl.refreshes == 0
        sim.run(until=2 * self.INTERVAL - 1)
        assert ctrl.refreshes == 1



class TestFastServiceTimes:
    """An uncontended fast access lasts exactly the model's formula,
    ``overhead_ps + int(round(nbytes * ps_per_byte))``, with the
    calibrated parameters, and is counted once."""

    SIZES = (1, 7, 512, 2048, 4096, 4097, 16384, 65536)

    @pytest.mark.parametrize("kind", ["calibrated"])
    def test_uncontended_time_equals_the_formula(self, kind):
        from repro.dram.controller import FastDramController
        from repro.ssd.fidelity import dram_fit
        sim = Simulator()
        dram = FastDramController(sim, "fast", Ddr2Timing(),
                                  *dram_fit(Ddr2Timing()))
        expected = {n: dram.overhead_ps + int(round(n * dram.ps_per_byte))
                    for n in self.SIZES}
        elapsed = {}

        def run():
            for n in self.SIZES * 2:
                elapsed[n] = yield sim.process(dram.write(0, n))

        sim.run(until=sim.process(run()))
        assert elapsed == expected
        assert dram.writes == 2 * len(self.SIZES)
        assert dram.reads == 0
        assert dram.bytes == 2 * sum(self.SIZES)
