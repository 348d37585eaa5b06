"""Device-level fault recovery: remap, retirement, error completions."""

import dataclasses

import pytest

from repro.core.experiments import table2_configs
from repro.faults import FaultConfig
from repro.host import (IoStatus, random_write, sequential_read,
                        sequential_write)
from repro.kernel import Simulator
from repro.nand import EnduranceWarning, NandGeometry
from repro.ssd import (CachePolicy, SsdArchitecture, SsdDevice,
                       collect_reliability, run_workload)

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32, page_bytes=4096,
                         spare_bytes=224)


def faulty_arch(pe_cycles=0, **fault_overrides):
    defaults = dict(enabled=True, seed=42)
    defaults.update(fault_overrides)
    return SsdArchitecture(n_channels=2, n_ways=2, dies_per_way=2,
                           n_ddr_buffers=2, geometry=SMALL_GEO,
                           dram_refresh=False,
                           cache_policy=CachePolicy.NO_CACHING,
                           initial_pe_cycles=pe_cycles,
                           faults=FaultConfig(**defaults))


def worn_gc_arch():
    """Table II C1 without caching on a worn drive whose every page read
    is uncorrectable: random writes drive GC, and each relocation read
    loses its page."""
    arch = table2_configs(SsdArchitecture())["C1"].with_cache_policy(
        CachePolicy.NO_CACHING)
    return dataclasses.replace(
        arch, initial_pe_cycles=3000,
        faults=FaultConfig(enabled=True, seed=7, rber_scale=1e6,
                           read_retry_max=0))


def run(arch, workload, preload=False):
    sim = Simulator()
    device = SsdDevice(sim, arch)
    if preload:
        device.preload_for_reads()
    result = run_workload(sim, device, workload)
    return device, result


class TestRemapOnProgramFail:
    def test_remap_recovers_failed_programs(self):
        """Tier-2 recovery: program-status FAILs retire the block and
        remap the page; the host never sees an error."""
        arch = faulty_arch(program_fail_prob=0.2)
        device, result = run(arch, sequential_write(4096 * 32))
        assert device.remapped_programs > 0
        assert device.retired_blocks > 0
        assert device.commands_failed == 0
        assert device.commands_completed == 32
        assert result.remapped_programs > 0
        assert result.failed_commands == 0

    def test_exhausted_remaps_fail_the_command(self):
        """When every remap attempt also fails, the command completes
        with WRITE_FAILED instead of crashing the simulation."""
        arch = faulty_arch(program_fail_prob=1.0, max_remap_attempts=2)
        device, result = run(arch, sequential_write(4096 * 16))
        assert device.commands_failed > 0
        assert result.failed_commands == device.commands_failed

    def test_spare_pool_exhaustion_fails_writes(self):
        arch = faulty_arch(program_fail_prob=1.0, spare_blocks_per_plane=0)
        device, __ = run(arch, sequential_write(4096 * 16))
        assert device.commands_failed == 16
        assert device.retired_blocks > 0

    def test_failed_write_status(self):
        arch = faulty_arch(program_fail_prob=1.0, spare_blocks_per_plane=0)
        sim = Simulator()
        device = SsdDevice(sim, arch)
        statuses = []
        original = device._fail

        def spy(command, status):
            statuses.append(status)
            original(command, status)

        device._fail = spy
        run_workload(sim, device, sequential_write(4096 * 8))
        assert statuses and all(s is IoStatus.WRITE_FAILED for s in statuses)


class TestBadBlockManagement:
    def test_factory_bad_blocks_skipped(self):
        """Allocation routes around factory-marked bad blocks."""
        arch = faulty_arch(factory_bad_prob=0.3)
        device, __ = run(arch, sequential_write(4096 * 32))
        factory_bad = sum(
            die.factory_bad_blocks
            for channel in device.channels
            for way in channel.dies for die in way)
        assert factory_bad > 0
        assert device.commands_failed == 0
        assert device.commands_completed == 32

    def test_no_bad_block_checks_without_faults(self):
        arch = SsdArchitecture(n_channels=2, n_ways=2, dies_per_way=2,
                               n_ddr_buffers=2, geometry=SMALL_GEO,
                               dram_refresh=False,
                               cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, sequential_write(4096 * 16))
        assert device.fault_plan is None
        for channel in device.channels:
            for way in channel.dies:
                for die in way:
                    assert die.fault_plan is None
                    assert die.bad_block_count == 0


class TestUncorrectableReads:
    def test_uncorrectable_read_surfaced_to_host(self):
        """Tier-3: a read past the retry ladder completes with an error
        status and shows up in the UBER."""
        # Worn drive with the error draw pinned just above the ECC
        # budget: most reads exhaust the ladder, a few squeak through.
        arch = faulty_arch(pe_cycles=3000, rber_scale=3.6,
                           retry_rber_scale=1.0, read_retry_max=1)
        device, result = run(arch, sequential_read(4096 * 32), preload=True)
        reliability = collect_reliability(device)
        assert device.commands_failed > 0
        assert reliability["uncorrectable_reads"] > 0
        assert reliability["uber"] > 0
        assert result.uber == reliability["uber"]

    def test_uber_counts_uncorrectable_gc_reads(self):
        """A page lost to an uncorrectable GC read was still read and
        judged: it joins the UBER denominator, not only the numerator."""
        device, result = run(worn_gc_arch(), random_write(4096 * 200))
        reliability = collect_reliability(device)
        assert device.commands_completed == 200
        assert device.commands_failed == 0
        assert reliability["uncorrectable_reads"] == 259
        assert reliability["page_reads"] == 259
        assert reliability["uber"] == 1.0
        assert reliability["retries_per_read"] == 0.0
        assert (result.page_reads, result.uber) == (259, 1.0)

    def test_clean_drive_has_zero_uber(self):
        arch = faulty_arch()  # faults on, but all rates at zero
        device, result = run(arch, sequential_read(4096 * 32), preload=True)
        assert device.commands_failed == 0
        assert result.uber == 0.0
        assert result.read_retries == 0


class TestEnduranceClampRegression:
    def test_device_survives_beyond_rated_endurance(self):
        """A drive pushed past rated endurance clamps RBER at the
        end-of-life value (with a warning) instead of extrapolating
        into uncharacterized territory or crashing."""
        rated = SsdArchitecture().wear_model.rated_endurance
        arch = faulty_arch(pe_cycles=int(rated * 1.2))
        with pytest.warns(EnduranceWarning):
            device, result = run(arch, sequential_read(4096 * 16),
                                 preload=True)
        assert device.commands_completed == 16
        # Clamped, not extrapolated: same draws as exactly at rated.
        at_rated = faulty_arch(pe_cycles=rated)
        __, rated_result = run(at_rated, sequential_read(4096 * 16),
                               preload=True)
        assert result.read_retries == rated_result.read_retries
        assert result.uncorrectable_reads == rated_result.uncorrectable_reads


class TestZeroOverheadGuard:
    def test_disabled_faults_identical_to_default(self):
        """FaultConfig(enabled=False) must be indistinguishable from no
        fault config at all — including the seed knobs."""
        base = SsdArchitecture(n_channels=2, n_ways=2, dies_per_way=2,
                               n_ddr_buffers=2, geometry=SMALL_GEO,
                               dram_refresh=False)
        knobbed = base.with_faults(FaultConfig(enabled=False, seed=999,
                                               rber_scale=8.0))
        __, plain = run(base, sequential_write(4096 * 24))
        __, configured = run(knobbed, sequential_write(4096 * 24))
        a, b = plain.to_dict(), configured.to_dict()
        a.pop("wall_seconds"), b.pop("wall_seconds")
        assert a == b

    def test_reliability_zeroed_when_disabled(self):
        base = SsdArchitecture(n_channels=2, n_ways=2, dies_per_way=2,
                               n_ddr_buffers=2, geometry=SMALL_GEO,
                               dram_refresh=False)
        device, result = run(base, sequential_write(4096 * 16))
        reliability = collect_reliability(device)
        assert reliability["failed_commands"] == 0
        assert reliability["retired_blocks"] == 0
        assert reliability["uber"] == 0.0
        assert result.to_dict()["reliability"]["remapped_programs"] == 0
