"""Cross-module integration tests: config file -> device -> results."""

import pytest

from repro.host import (pcie_nvme_spec, random_write, sequential_read,
                        sequential_write)
from repro.kernel import Simulator, loads
from repro.nand import NandGeometry
from repro.ssd import (CachePolicy, CpuMode, DataPathMode, FtlSsdDevice,
                       SsdArchitecture, SsdDevice, from_config,
                       run_workload)

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=32)


def tiny_arch(**overrides):
    defaults = dict(n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                    geometry=GEO, dram_refresh=False,
                    cache_policy=CachePolicy.NO_CACHING)
    defaults.update(overrides)
    return SsdArchitecture(**defaults)


class TestDeterminism:
    def _run_once(self, workload_factory):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, workload_factory())
        return sim.now, result.sustained_mbps, result.mean_latency_us

    def test_identical_runs_bitwise_equal(self):
        """The whole platform is deterministic: no RNG state leaks, no
        wall-clock dependence in simulated results."""
        first = self._run_once(lambda: sequential_write(4096 * 60))
        second = self._run_once(lambda: sequential_write(4096 * 60))
        assert first == second

    def test_random_workloads_deterministic_by_seed(self):
        first = self._run_once(
            lambda: random_write(4096 * 60, span_bytes=1 << 20, seed=5))
        second = self._run_once(
            lambda: random_write(4096 * 60, span_bytes=1 << 20, seed=5))
        assert first == second


class TestConservation:
    def test_bytes_accounted(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, sequential_write(4096 * 50))
        assert device.bytes_completed == 50 * 4096
        assert result.bytes_moved == 50 * 4096
        assert device.commands_completed == 50

    def test_buffer_occupancy_returns_to_zero(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        run_workload(sim, device, sequential_write(4096 * 50))
        assert device.buffers.total_occupancy() == 0

    def test_utilizations_bounded(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, sequential_write(4096 * 50))
        for name, value in result.utilizations.items():
            assert 0.0 <= value <= 1.0, name

    def test_flash_pages_match_host_pages_sequential(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        run_workload(sim, device, sequential_write(4096 * 50))
        programs = sum(c.programs for c in device.channels)
        assert programs == 50  # WAF 1.0: no amplification


class TestConfigDrivenRun:
    CONFIG_TEXT = """
        [geometry]
        label = 2-DDR-buf;2-CHN;2-WAY;2-DIE
        [host]
        kind = pcie
        pcie_gen = 1
        pcie_lanes = 4
        [policy]
        cache = false
        [ecc]
        kind = fixed
        t = 8
    """

    def test_config_to_results(self):
        arch = from_config(loads(self.CONFIG_TEXT),
                           base=tiny_arch())
        assert arch.n_channels == 2
        assert "pcie-gen1-x4" in arch.host.name
        sim = Simulator()
        device = SsdDevice(sim, arch)
        result = run_workload(sim, device, sequential_write(4096 * 40))
        assert result.commands == 40
        assert result.sustained_mbps > 0


class TestDeviceVariants:
    def test_waf_and_ftl_devices_run_same_workload(self):
        workload = sequential_write(4096 * 60)
        sim_a = Simulator()
        waf_device = SsdDevice(sim_a, tiny_arch())
        waf_result = run_workload(sim_a, waf_device, workload)

        sim_b = Simulator()
        ftl_device = FtlSsdDevice(sim_b, tiny_arch(),
                                  logical_utilization=0.6,
                                  ftl_blocks_per_plane=8)
        ftl_result = run_workload(sim_b, ftl_device,
                                  sequential_write(4096 * 60))
        assert waf_result.commands == ftl_result.commands == 60
        # Same platform, same workload, plug-and-play FTL layers: results
        # agree within a modest band for amplification-free traffic.
        ratio = waf_result.sustained_mbps / ftl_result.sustained_mbps
        assert 0.7 < ratio < 1.4, ratio

    def test_firmware_cpu_with_nvme(self):
        arch = tiny_arch(cpu_mode=CpuMode.FIRMWARE,
                         host=pcie_nvme_spec(generation=1, lanes=4))
        sim = Simulator()
        device = SsdDevice(sim, arch)
        result = run_workload(sim, device, sequential_write(4096 * 30))
        assert result.commands == 30
        assert device.cpu.cycles_retired > 0

    def test_all_datapath_modes_complete(self):
        for mode in DataPathMode:
            sim = Simulator()
            device = SsdDevice(sim, tiny_arch(), mode=mode)
            result = run_workload(sim, device, sequential_write(4096 * 20))
            assert result.commands == 20, mode

    def test_reads_and_writes_interleaved(self):
        from repro.host import CommandListWorkload, IoCommand, IoOpcode
        commands = []
        for index in range(30):
            opcode = IoOpcode.WRITE if index % 3 else IoOpcode.READ
            commands.append(IoCommand(opcode, index * 8, 8))
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        device.preload_for_reads()
        result = run_workload(sim, device, CommandListWorkload(commands))
        assert result.commands == 30


class TestLittlesLaw:
    """Closed-loop queueing sanity: N = X * R (outstanding commands =
    throughput x latency) must hold for the host queue."""

    @pytest.mark.parametrize("depth", [1, 4, 16])
    def test_outstanding_matches_throughput_latency_product(self, depth):
        from repro.host import HostInterfaceSpec
        host = HostInterfaceSpec(f"qd{depth}", 294e6, 1_200_000,
                                 queue_depth=depth)
        arch = tiny_arch(host=host)
        sim = Simulator()
        device = SsdDevice(sim, arch)
        result = run_workload(sim, device, sequential_write(4096 * 120))
        throughput_cmds_per_ps = result.commands / device.last_completion_ps
        mean_latency_ps = result.mean_latency_us * 1e6
        outstanding = throughput_cmds_per_ps * mean_latency_ps
        # The closed loop keeps ~depth commands in flight (tail effects
        # allow a modest band).
        assert 0.5 * depth <= outstanding <= 1.1 * depth, outstanding
