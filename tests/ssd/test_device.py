"""Integration tests for the SSD device model."""

import pytest

from repro.compression import CompressorModel, CompressorPlacement
from repro.ftl import WafModel
from repro.host import (HostInterfaceSpec, random_write, sequential_read,
                        sequential_write)
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.ssd import (CachePolicy, CpuMode, DataPathMode, SsdArchitecture,
                       SsdDevice, run_workload)
from repro.ssd.fidelity import fidelity_from_spec

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32, page_bytes=4096,
                         spare_bytes=224)


def tiny_arch(**overrides):
    """A fast-to-simulate architecture for integration tests."""
    defaults = dict(n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                    geometry=SMALL_GEO, dram_refresh=False)
    defaults.update(overrides)
    return SsdArchitecture(**defaults)


def run(arch, workload, mode=DataPathMode.FULL, preload=False,
        warm=False):
    sim = Simulator()
    device = SsdDevice(sim, arch, mode=mode)
    if preload:
        device.preload_for_reads()
    if warm:
        device.warm_start_cache(workload.pattern_name)
    result = run_workload(sim, device, workload)
    return device, result


class TestWriteFlow:
    def test_all_commands_complete(self):
        device, result = run(tiny_arch(), sequential_write(4096 * 32))
        assert device.commands_completed == 32
        assert result.bytes_moved == 32 * 4096

    def test_programs_match_pages_written(self):
        arch = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, sequential_write(4096 * 32))
        programs = sum(c.stats.counter("programs").value
                       for c in device.channels)
        assert programs >= 32  # host pages (+ occasional GC erase work)

    def test_cache_latency_below_no_cache(self):
        cached = tiny_arch(cache_policy=CachePolicy.CACHING)
        plain = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        __, cache_result = run(cached, sequential_write(4096 * 24))
        __, plain_result = run(plain, sequential_write(4096 * 24))
        assert cache_result.mean_latency_us < plain_result.mean_latency_us / 3

    def test_striping_uses_all_dies(self):
        arch = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, sequential_write(4096 * 16))
        for channel in device.channels:
            for way_dies in channel.dies:
                for die in way_dies:
                    assert die.stats.counter("programs").value > 0

    def test_queue_depth_bounds_no_cache_throughput(self):
        deep = HostInterfaceSpec("deep", 300e6, 1_200_000, queue_depth=32)
        shallow = HostInterfaceSpec("shallow", 300e6, 1_200_000,
                                    queue_depth=1)
        arch_deep = tiny_arch(host=deep,
                              cache_policy=CachePolicy.NO_CACHING)
        arch_shallow = tiny_arch(host=shallow,
                                 cache_policy=CachePolicy.NO_CACHING)
        __, deep_result = run(arch_deep, sequential_write(4096 * 48))
        __, shallow_result = run(arch_shallow, sequential_write(4096 * 48))
        assert deep_result.throughput_mbps \
            > 4 * shallow_result.throughput_mbps

    def test_random_waf_slows_writes(self):
        lazy = tiny_arch(waf=WafModel(random_waf=1.0),
                         cache_policy=CachePolicy.NO_CACHING)
        heavy = tiny_arch(waf=WafModel(random_waf=3.0),
                          cache_policy=CachePolicy.NO_CACHING)
        workload = random_write(4096 * 48, span_bytes=1 << 20)
        __, lazy_result = run(lazy, workload)
        __, heavy_result = run(heavy, workload)
        assert heavy_result.throughput_mbps < 0.75 * lazy_result.throughput_mbps

    def test_gc_relocations_recorded_for_random(self):
        arch = tiny_arch(waf=WafModel(random_waf=2.5),
                         cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, random_write(4096 * 48, span_bytes=1 << 20))
        relocations = sum(c.stats.counter("gc_relocations").value
                          for c in device.channels)
        assert relocations >= 48  # (2.5 - 1) x 48 = 72 expected, FIFO tail

    def test_sequential_waf_no_relocations(self):
        arch = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, sequential_write(4096 * 48))
        relocations = sum(c.stats.counter("gc_relocations").value
                          for c in device.channels)
        assert relocations == 0


class TestReadFlow:
    def test_reads_complete(self):
        device, result = run(tiny_arch(), sequential_read(4096 * 32),
                             preload=True)
        assert device.commands_completed == 32
        reads = sum(c.stats.counter("reads").value for c in device.channels)
        assert reads == 32

    def test_preload_silences_unwritten_flags(self):
        device, __ = run(tiny_arch(), sequential_read(4096 * 16),
                         preload=True)
        flags = sum(die.stats.counter("reads_unwritten").value
                    for c in device.channels
                    for way in c.dies for die in way)
        assert flags == 0

    def test_unpreloaded_reads_flagged_not_fatal(self):
        device, result = run(tiny_arch(), sequential_read(4096 * 8))
        assert device.commands_completed == 8
        flags = sum(die.stats.counter("reads_unwritten").value
                    for c in device.channels
                    for way in c.dies for die in way)
        assert flags == 8


class TestDataPathModes:
    def test_host_ddr_skips_flash(self):
        device, __ = run(tiny_arch(), sequential_write(4096 * 16),
                         mode=DataPathMode.HOST_DDR)
        programs = sum(c.stats.counter("programs").value
                       for c in device.channels)
        assert programs == 0
        assert device.commands_completed == 16

    def test_ddr_flash_skips_host_link(self):
        device, __ = run(tiny_arch(), sequential_write(4096 * 16),
                         mode=DataPathMode.DDR_FLASH)
        assert device.hostif.stats.counter("transfers").value == 0
        programs = sum(c.stats.counter("programs").value
                       for c in device.channels)
        assert programs == 16

    def test_ddr_flash_ignores_cache_policy(self):
        arch = tiny_arch(cache_policy=CachePolicy.CACHING)
        device, result = run(arch, sequential_write(4096 * 16),
                             mode=DataPathMode.DDR_FLASH)
        programs = sum(c.stats.counter("programs").value
                       for c in device.channels)
        assert programs == 16
        # Completion waits for flash: latency includes tPROG (>= 900 us).
        assert result.mean_latency_us > 900

    def test_host_ddr_faster_than_full(self):
        arch = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        __, full = run(arch, sequential_write(4096 * 24))
        __, ddr = run(arch, sequential_write(4096 * 24),
                      mode=DataPathMode.HOST_DDR)
        assert ddr.throughput_mbps > 2 * full.throughput_mbps


class TestCompression:
    def test_host_compressor_reduces_flash_traffic(self):
        plain = tiny_arch(cache_policy=CachePolicy.NO_CACHING)
        squeezed = tiny_arch(
            cache_policy=CachePolicy.NO_CACHING,
            compressor=CompressorModel(CompressorPlacement.HOST_INTERFACE,
                                       ratio=4.0))
        workload = sequential_write(4096 * 24)
        plain_dev, __ = run(plain, workload)
        squeezed_dev, __ = run(squeezed, workload)
        plain_programs = sum(
            c.stats.counter("programs").value for c in plain_dev.channels)
        squeezed_programs = sum(
            c.stats.counter("programs").value for c in squeezed_dev.channels)
        assert squeezed_programs < plain_programs

    def test_channel_compressor_also_reduces(self):
        squeezed = tiny_arch(
            cache_policy=CachePolicy.NO_CACHING,
            compressor=CompressorModel(CompressorPlacement.CHANNEL_WAY,
                                       ratio=4.0))
        device, result = run(squeezed, sequential_write(4096 * 24))
        assert device.commands_completed == 24


class TestCpuModes:
    def test_firmware_mode_end_to_end(self):
        arch = tiny_arch(cpu_mode=CpuMode.FIRMWARE,
                         cache_policy=CachePolicy.NO_CACHING)
        device, result = run(arch, sequential_write(4096 * 12))
        assert device.commands_completed == 12
        assert device.cpu.cycles_retired > 0

    @pytest.mark.parametrize("cpu_mode, fidelity", [
        (CpuMode.ABSTRACT, "cycle"), (CpuMode.FIRMWARE, "cycle,cpu=fast")])
    def test_a_cpu_without_firmware_builds_no_ahb(self, cpu_mode, fidelity):
        arch = tiny_arch(cpu_mode=cpu_mode,
                         fidelity=fidelity_from_spec(fidelity))
        assert "ahb" not in SsdDevice(Simulator(), arch).children

    def test_the_firmware_core_masters_the_device_ahb(self):
        arch = tiny_arch(cpu_mode=CpuMode.FIRMWARE,
                         cache_policy=CachePolicy.NO_CACHING)
        device, __ = run(arch, sequential_write(4096 * 4))
        ahb = device.children["ahb"]
        assert device.cpu.core.ahb_port.bus is ahb
        assert ahb.utilization() > 0

    def test_abstract_multicore(self):
        arch = tiny_arch(cpu_cores=4)
        device, __ = run(arch, sequential_write(4096 * 12))
        assert device.cpu.n_cores == 4

    def test_firmware_slower_than_abstract(self):
        fw = tiny_arch(cpu_mode=CpuMode.FIRMWARE,
                       cache_policy=CachePolicy.NO_CACHING)
        ab = tiny_arch(cpu_mode=CpuMode.ABSTRACT,
                       cache_policy=CachePolicy.NO_CACHING)
        __, fw_result = run(fw, sequential_write(4096 * 12))
        __, ab_result = run(ab, sequential_write(4096 * 12))
        # Firmware serializes dispatch on one core with real MMIO traffic.
        assert fw_result.throughput_mbps <= ab_result.throughput_mbps * 1.05


class TestWarmStart:
    def test_buffers_prefilled(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        device.warm_start_cache()
        assert device.buffers.total_occupancy() > 0

    def test_warm_backlog_drains(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        device.warm_start_cache()
        initial = device.buffers.total_occupancy()
        sim.run(until=sim.timeout(int(200e9)))  # 200 ms
        assert device.buffers.total_occupancy() < initial


class TestTrim:
    def test_trim_completes_without_flash(self):
        from repro.host import IoCommand, IoOpcode
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        command = IoCommand(IoOpcode.TRIM, 0, 8)
        sim.run(until=sim.process(device.execute(command)))
        assert device.commands_completed == 1
        programs = sum(c.stats.counter("programs").value
                       for c in device.channels)
        assert programs == 0


class TestAllocatorWraps:
    def test_die_cursor_wraps_without_protocol_error(self):
        """Write more pages than one die holds: block recycling must not
        trip the sequential-programming rule."""
        geo = NandGeometry(planes_per_die=1, blocks_per_plane=2,
                           pages_per_block=4, page_bytes=4096,
                           spare_bytes=64)
        arch = tiny_arch(n_channels=1, n_ways=1, dies_per_way=1,
                         n_ddr_buffers=1, geometry=geo,
                         cache_policy=CachePolicy.NO_CACHING)
        device, result = run(arch, sequential_write(4096 * 24))
        assert device.commands_completed == 24
