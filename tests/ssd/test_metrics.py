"""Tests for the workload runner: percentiles, sustained throughput,
open-loop replay and the command-list adapter."""

import random

import pytest

from repro.host import (CommandListWorkload, IoCommand, IoOpcode,
                        parse_trace, sequential_write)
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.ssd import (CachePolicy, SsdArchitecture, SsdDevice,
                       run_workload)
from repro.ssd.metrics import _latency_percentiles_us, _sustained_mbps

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=32)


def tiny_arch(**overrides):
    defaults = dict(n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                    geometry=GEO, dram_refresh=False,
                    cache_policy=CachePolicy.NO_CACHING)
    defaults.update(overrides)
    return SsdArchitecture(**defaults)


class TestPercentiles:
    def test_empty(self):
        assert _latency_percentiles_us([]) == (0.0, 0.0, 0.0)

    def test_single_sample(self):
        p50, p95, p99 = _latency_percentiles_us([5_000_000])
        assert p50 == p95 == p99 == 5.0

    def test_ordering(self):
        samples = [i * 1_000_000 for i in range(1, 101)]
        p50, p95, p99 = _latency_percentiles_us(samples)
        assert p50 < p95 < p99
        assert p50 == pytest.approx(50, abs=2)
        assert p99 == pytest.approx(99, abs=2)

    def test_unsorted_input(self):
        samples = [3_000_000, 1_000_000, 2_000_000]
        p50, __, __ = _latency_percentiles_us(samples)
        assert p50 == 2.0

    def test_long_tail_resolves_exactly(self):
        # A ~100 us body, a 5 ms knee of ten samples, one 50 ms
        # straggler: p99.9 and p99.99 must come from the knee and the
        # maximum from the straggler, at the exact nearest rank.
        rng = random.Random(0xBAD7A11)
        samples = [int(rng.uniform(60.0, 150.0) * 1e6) for __ in range(9989)]
        samples += [int(rng.uniform(4500.0, 5500.0) * 1e6)
                    for __ in range(10)]
        samples.append(50_000 * 1_000_000)
        fractions = (0.50, 0.99, 0.999, 0.9999, 1.0)
        ordered = sorted(samples)
        got = _latency_percentiles_us(samples, fractions)
        assert got == tuple(ordered[round(f * (len(samples) - 1))] / 1e6
                            for f in fractions)
        p50, p99, p999, p9999, top = got
        assert 60.0 <= p50 <= p99 <= 150.0
        assert 4500.0 <= p999 <= p9999 <= 5500.0
        assert top == 50_000.0

    def test_empty_with_any_fractions(self):
        assert _latency_percentiles_us(
            [], (0.50, 0.99, 0.999, 0.9999)) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_latency_samples_count(self):
        p50, __, p99 = _latency_percentiles_us([0, 0, 0, 10_000_000])
        assert p50 == 0.0
        assert p99 == 10.0

    def test_extreme_magnitudes_stay_exact(self):
        samples = [1, 10 ** 18]
        assert _latency_percentiles_us(samples, (0.0, 1.0)) == (1e-6, 1e12)

    def test_run_result_carries_percentiles(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, sequential_write(4096 * 40))
        assert 0 < result.p50_latency_us <= result.p95_latency_us
        assert result.p95_latency_us <= result.p99_latency_us
        assert result.p99_latency_us <= result.max_latency_us


class TestSustained:
    def test_empty(self):
        assert _sustained_mbps([]) == 0.0

    def test_few_samples_full_span(self):
        completions = [(1_000_000, 4096), (2_000_000, 4096)]
        # 8192 B over 2 us -> 4096 MB/s.
        assert _sustained_mbps(completions) == pytest.approx(4096.0)

    def test_window_skips_transient(self):
        # Fast head (cache fill), slow steady tail.
        completions = [(i * 1_000, 4096) for i in range(1, 51)]
        completions += [(50_000 + i * 100_000, 4096) for i in range(1, 51)]
        windowed = _sustained_mbps(completions, warmup_fraction=0.5)
        full = _sustained_mbps(completions, warmup_fraction=0.0)
        assert windowed < full

    def test_zero_span_guard(self):
        completions = [(1000, 4096)] * 10
        assert _sustained_mbps(completions) == 0.0


class TestOpenLoopReplay:
    def test_issue_times_respected(self):
        trace = parse_trace("0 W 0 8\n2000 W 8 8\n")  # 2 ms apart
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, CommandListWorkload(trace),
                              honor_issue_times=True)
        assert result.commands == 2
        # The second command cannot complete before its 2 ms issue time.
        assert device.last_completion_ps >= 2_000_000_000

    def test_closed_loop_ignores_issue_times(self):
        trace = parse_trace("0 W 0 8\n2000 W 8 8\n")
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        run_workload(sim, device, CommandListWorkload(trace),
                     honor_issue_times=False)
        assert device.last_completion_ps < 2_000_000_000

    def test_issue_times_rebased_to_measurement_window(self):
        """Open-loop pacing after a warm-up phase: trace-relative issue
        times must anchor to the measurement-window start, not the
        simulation epoch, or the paced replay silently degrades to
        closed loop once preconditioning has advanced ``sim.now``."""
        from repro.host.traces.precondition import run_preconditioning
        trace = parse_trace("0 W 0 8\n2000 W 8 8\n")  # 2 ms apart
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        assert run_preconditioning(sim, device, span_sectors=64,
                                   mode="steady") > 0
        window_start = sim.now
        assert window_start > 0
        result = run_workload(sim, device, CommandListWorkload(trace),
                              honor_issue_times=True)
        assert result.commands == 2
        # The device stamps the actual issue instant on execution; the
        # inter-issue gap from the trace must be honored relative to the
        # window start (first at >= t0, second at >= t0 + 2 ms).
        assert trace[0].issue_time_ps >= window_start
        assert trace[1].issue_time_ps >= window_start + 2_000_000_000
        assert device.last_completion_ps >= window_start + 2_000_000_000


class TestCommandListWorkload:
    def test_exposes_workload_interface(self):
        commands = [IoCommand(IoOpcode.READ, i * 8, 8) for i in range(5)]
        workload = CommandListWorkload(commands, pattern="random")
        assert workload.n_commands == 5
        assert workload.total_bytes == 5 * 4096
        assert workload.pattern_name == "random"
        assert workload.opcode is IoOpcode.READ
        assert workload.block_bytes == 4096
        assert [c.lba for c in workload.commands()] == [0, 8, 16, 24, 32]

    def test_validation(self):
        with pytest.raises(ValueError):
            CommandListWorkload([])
        with pytest.raises(ValueError):
            CommandListWorkload([IoCommand(IoOpcode.READ, 0, 8)],
                                pattern="zipf")

    def test_runs_through_device(self):
        commands = [IoCommand(IoOpcode.WRITE, i * 8, 8) for i in range(10)]
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        result = run_workload(sim, device, CommandListWorkload(commands))
        assert result.commands == 10


class TestMixedWorkloadThroughDevice:
    def test_mixed_workload_completes(self):
        from repro.host import mixed_workload
        workload = mixed_workload(4096 * 60, read_fraction=0.5,
                                  span_bytes=1 << 20)
        sim = Simulator()
        device = SsdDevice(sim, tiny_arch())
        device.preload_for_reads()
        result = run_workload(sim, device, workload)
        assert result.commands == 60
        reads = sum(c.reads for c in device.channels)
        programs = sum(c.programs for c in device.channels)
        assert reads > 0 and programs > 0


class TestScenarioHelpers:
    def test_breakdown_row_as_dict(self):
        from repro.ssd import BreakdownRow
        row = BreakdownRow("C1", 61.0, 62.0, 59.0, 270.0, 268.0)
        data = row.as_dict()
        assert data["DDR+FLASH"] == 61.0
        assert data["SSD cache"] == 62.0
        assert data["SSD no cache"] == 59.0
        assert data["HOST ideal"] == 270.0
        assert data["HOST+DDR"] == 268.0

    def test_host_ideal_matches_spec(self):
        from repro.ssd import SsdArchitecture, host_ideal_mbps
        arch = SsdArchitecture()
        assert host_ideal_mbps(arch, 4096) == pytest.approx(
            arch.host.ideal_throughput_mbps(4096))
