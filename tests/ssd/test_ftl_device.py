"""Tests for the real-FTL-driven SSD device (actual FTL mode)."""

import pytest

from repro.host import (IoCommand, IoOpcode, random_write, sequential_read,
                        sequential_write)
from repro.faults import FaultConfig
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.nand.die import NandProtocolError
from repro.ssd import (CachePolicy, FtlSsdDevice, SsdArchitecture,
                       run_workload)
from repro.ssd.fidelity import fidelity_from_spec
from tests.grantlog import GrantLog

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=16, pages_per_block=16)


def make_device(sim=None, utilization=0.6, blocks=8, **arch_overrides):
    sim = sim or Simulator()
    defaults = dict(n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                    geometry=GEO, dram_refresh=False,
                    cache_policy=CachePolicy.NO_CACHING)
    defaults.update(arch_overrides)
    arch = SsdArchitecture(**defaults)
    device = FtlSsdDevice(sim, arch, logical_utilization=utilization,
                          ftl_blocks_per_plane=blocks)
    return sim, device


def lpn_span_bytes(device):
    return device.ftl.logical_pages * device.arch.geometry.page_bytes


class TestConstruction:
    def test_backend_matches_platform(self):
        __, device = make_device()
        assert device.backend.n_dies == device.arch.total_dies
        assert device.backend.pages == GEO.pages_per_block

    def test_validation(self):
        sim = Simulator()
        arch = SsdArchitecture(n_channels=2, n_ways=1, dies_per_way=1,
                               n_ddr_buffers=2, geometry=GEO)
        with pytest.raises(ValueError):
            FtlSsdDevice(sim, arch, logical_utilization=1.5)
        with pytest.raises(ValueError):
            FtlSsdDevice(sim, arch, ftl_blocks_per_plane=GEO.blocks_per_plane
                         + 1)

    def test_die_coordinates_roundtrip(self):
        __, device = make_device()
        arch = device.arch
        seen = set()
        for die_id in range(arch.total_dies):
            coordinates = device.die_coordinates(die_id)
            channel, way, die_index = coordinates
            assert 0 <= channel < arch.n_channels
            assert 0 <= way < arch.n_ways
            assert 0 <= die_index < arch.dies_per_way
            seen.add(coordinates)
        assert len(seen) == arch.total_dies


class TestWriteMirroring:
    def test_timed_programs_match_ftl_programs(self):
        sim, device = make_device()
        workload = sequential_write(4096 * 200,
                                    span_bytes=lpn_span_bytes(device))
        run_workload(sim, device, workload)
        timed = sum(c.programs for c in device.channels)
        assert timed == device.backend.programs

    def test_timed_erases_match_ftl_erases(self):
        sim, device = make_device()
        workload = random_write(4096 * 800,
                                span_bytes=lpn_span_bytes(device))
        run_workload(sim, device, workload)
        timed = sum(c.erases for c in device.channels)
        assert timed == device.backend.erases
        assert timed > 0  # GC actually ran

    def test_sequential_waf_is_one(self):
        sim, device = make_device()
        workload = sequential_write(4096 * 300,
                                    span_bytes=lpn_span_bytes(device))
        run_workload(sim, device, workload)
        assert device.measured_waf() == pytest.approx(1.0, abs=0.1)

    def test_random_overwrite_waf_above_one(self):
        sim, device = make_device()
        workload = random_write(4096 * 1200,
                                span_bytes=lpn_span_bytes(device))
        run_workload(sim, device, workload)
        assert device.measured_waf() > 1.15

    def test_gc_blocks_random_writes(self):
        """The FTL's real GC throttles random writes below sequential."""
        # 1500 writes over ~614 logical pages: the device fills and GC
        # reaches steady state during the run.
        sim_a, seq_device = make_device()
        run_workload(sim_a, seq_device,
                     sequential_write(4096 * 1500,
                                      span_bytes=lpn_span_bytes(seq_device)))
        sim_b, rnd_device = make_device()
        rnd = run_workload(sim_b, rnd_device,
                           random_write(4096 * 1500,
                                        span_bytes=lpn_span_bytes(rnd_device)))
        seq_mbps = seq_device.throughput_mbps()
        assert rnd.throughput_mbps < seq_mbps

    def test_no_protocol_errors_under_concurrency(self):
        """Concurrent flushes + GC must respect the NAND sequential rule
        (the replay-ordering invariant)."""
        sim, device = make_device(cache_policy=CachePolicy.CACHING)
        workload = random_write(4096 * 1000,
                                span_bytes=lpn_span_bytes(device))
        result = run_workload(sim, device, workload)
        assert result.commands == 1000


class TestReadFlow:
    def test_read_after_write_hits_flash(self):
        sim, device = make_device()

        def flow():
            write = IoCommand(IoOpcode.WRITE, 0, 8)
            yield from device.execute(write, "sequential")
            read = IoCommand(IoOpcode.READ, 0, 8)
            yield from device.execute(read)

        sim.run(until=sim.process(flow()))
        reads = sum(c.reads for c in device.channels)
        assert reads == 1
        assert device.reads_unmapped == 0

    def test_unmapped_read_skips_flash(self):
        sim, device = make_device()
        command = IoCommand(IoOpcode.READ, 0, 8)
        sim.run(until=sim.process(device.execute(command)))
        reads = sum(c.reads for c in device.channels)
        assert reads == 0
        assert device.reads_unmapped == 1
        assert device.commands_completed == 1

    def test_sequential_read_workload(self):
        sim, device = make_device()
        span = lpn_span_bytes(device)
        run_workload(sim, device,
                     sequential_write(4096 * 100, span_bytes=span))
        result = run_workload(sim, device,
                              sequential_read(4096 * 100, span_bytes=span))
        assert result.commands == 100


class TestTrim:
    def test_trim_unmaps_without_flash_ops(self):
        sim, device = make_device()

        def flow():
            write = IoCommand(IoOpcode.WRITE, 0, 8)
            yield from device.execute(write, "sequential")
            trim = IoCommand(IoOpcode.TRIM, 0, 8)
            yield from device.execute(trim)
            read = IoCommand(IoOpcode.READ, 0, 8)
            yield from device.execute(read)

        sim.run(until=sim.process(flow()))
        assert device.ftl.trims == 1
        assert device.reads_unmapped == 1


class TestWearLeveling:
    def test_wear_spread_stays_tight(self):
        sim, device = make_device()
        workload = random_write(4096 * 1500,
                                span_bytes=lpn_span_bytes(device))
        run_workload(sim, device, workload)
        low, high = device.ftl.wear_spread()
        assert high >= 1
        assert high - low <= max(6, high)


class TestReplayChain:
    """Each die's journal group replays as a callback chain with the
    events of the process it replaced; the pinned counts and times were
    measured with that process."""

    ENTRIES = [("program", (0, 0, 0, 0)), ("program", (1, 0, 0, 0)),
               ("program", (0, 0, 0, 1)), ("read", (0, 0, 0, 0)),
               ("read", (1, 0, 0, 0)), ("erase", (1, 0, 0)),
               ("program", (5, 0, 2, 0)), ("read", (5, 0, 2, 0))]

    @staticmethod
    def replay(device, entries):
        return device.sim.process(device._replay(entries))

    @pytest.mark.parametrize("fidelity, events", [("fast", 80),
                                                  ("cycle", 149)])
    def test_same_events_and_time_as_the_process(self, fidelity, events):
        sim, device = make_device(fidelity=fidelity_from_spec(fidelity))
        sim.run(until=self.replay(device, self.ENTRIES))
        assert (sim.events_processed, sim.now) == (events, 4_677_663_569)
        assert all(lock.in_use == 0
                   for lock in device._replay_locks.values())

    def test_a_later_group_queues_on_the_die_lock(self, monkeypatch):
        log = GrantLog(monkeypatch)
        sim, device = make_device(fidelity=fidelity_from_spec("fast"))
        self.replay(device, self.ENTRIES[:3])
        self.replay(device, [("program", (0, 0, 0, 2)),
                             ("read", (0, 0, 0, 1))])
        sim.run()
        lock = device._replay_lock(0)
        assert (sim.events_processed, sim.now) == (54, 5_886_940_708)
        assert (log.grants(lock), log.wait_ps(lock), lock.busy_time()) \
            == (2, 4_158_789_569, 5_886_940_708)
        assert lock.in_use == 0

    def test_unabsorbed_error_fails_the_replay_and_frees_the_lock(
            self, monkeypatch):
        log = GrantLog(monkeypatch)
        sim, device = make_device(fidelity=fidelity_from_spec("fast"))
        with pytest.raises(NandProtocolError, match="sequential"):
            sim.run(until=self.replay(device, [("program", (0, 0, 0, 3))]))
        assert device._replay_lock(0).in_use == 0
        # The die and its lock are free for the next group.
        sim.run(until=self.replay(device, [("program", (0, 0, 0, 0))]))
        assert log.grants(device._replay_lock(0)) == 2

    def test_fault_plan_absorbs_and_counts_program_failures(self):
        faults = FaultConfig(enabled=True, program_fail_prob=1.0,
                             bit_errors=False)
        sim, device = make_device(faults=faults)
        sim.run(until=self.replay(device, self.ENTRIES[:3]))
        assert (sim.events_processed, sim.now) == (63, 4_158_789_569)
        counts = [controller.ftl_program_faults
                  for controller in device.channels]
        assert counts == [2, 1]

    def test_fault_plan_absorbs_and_counts_uncorrectable_reads(self):
        # Cycle fidelity: only the read_page ladder draws bit errors.
        # Every sense is over budget, so each of the three reads climbs
        # one retry rung and is absorbed; the programs all pass.
        faults = FaultConfig(enabled=True, rber_scale=1e6, read_retry_max=1,
                             retry_rber_scale=1.0)
        sim, device = make_device(faults=faults)
        sim.run(until=self.replay(device, self.ENTRIES))
        assert (sim.events_processed, sim.now) == (194, 5_196_477_569)
        channels = device.channels
        assert [c.ftl_read_faults for c in channels] == [1, 2]
        assert [c.uncorrectable_reads for c in channels] == [1, 2]
        assert [c.read_retries for c in channels] == [1, 2]
        assert [c.reads for c in channels] == [0, 0]
        assert [c.ftl_program_faults for c in channels] == [0, 0]
        assert all(lock.in_use == 0
                   for lock in device._replay_locks.values())

    def test_fault_plan_does_not_absorb_other_errors(self):
        faults = FaultConfig(enabled=True, bit_errors=False)
        sim, device = make_device(faults=faults)
        with pytest.raises(NandProtocolError):
            sim.run(until=self.replay(device, [("program", (0, 0, 0, 4))]))
        assert device._replay_lock(0).in_use == 0
