"""Per-command outcome classification: classifier units + the recovery
edge cases of the reliability tier (retry ladder final-rung vs
exhaustion, spare-pool-empty write failures, factory-bad idempotence)."""

import pytest

from repro.faults import (OUTCOME_ORDER, CommandOutcome, FaultConfig,
                          classify_command, classify_commands)
from repro.host import sequential_read, sequential_write
from repro.host.commands import IoCommand, IoOpcode, IoStatus
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.ssd import CachePolicy, SsdArchitecture, SsdDevice, run_workload

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32, page_bytes=4096,
                         spare_bytes=224)


def make_command(opcode=IoOpcode.READ, **annotations):
    command = IoCommand(opcode, 0, 8)
    for name, value in annotations.items():
        setattr(command, name, value)
    return command


class TestClassifier:
    def test_clean_command_is_ok(self):
        assert classify_command(make_command()) is CommandOutcome.OK

    def test_masked(self):
        command = make_command(masked_page_reads=2)
        assert classify_command(command) is CommandOutcome.MASKED

    def test_retry_beats_masked(self):
        command = make_command(masked_page_reads=1, read_retries=1)
        assert classify_command(command) \
            is CommandOutcome.RECOVERED_BY_RETRY

    def test_remap_beats_retry(self):
        command = make_command(opcode=IoOpcode.WRITE, read_retries=1,
                               remapped_programs=1)
        assert classify_command(command) is CommandOutcome.REMAPPED

    def test_status_beats_annotations(self):
        command = make_command(read_retries=3,
                               status=IoStatus.UNCORRECTABLE)
        assert classify_command(command) is CommandOutcome.UNCORRECTABLE

    def test_write_failed_vs_spare_pool(self):
        plain = make_command(opcode=IoOpcode.WRITE,
                             status=IoStatus.WRITE_FAILED)
        assert classify_command(plain) is CommandOutcome.WRITE_FAILED
        exhausted = make_command(opcode=IoOpcode.WRITE,
                                 status=IoStatus.WRITE_FAILED,
                                 spare_pool_exhausted=True)
        assert classify_command(exhausted) \
            is CommandOutcome.SPARE_POOL_EXHAUSTED

    def test_histogram_zero_filled_in_order(self):
        counts = classify_commands([])
        assert list(counts) == list(OUTCOME_ORDER)
        assert set(counts.values()) == {0}

    def test_histogram_counts(self):
        commands = [make_command(), make_command(read_retries=1),
                    make_command(read_retries=2)]
        counts = classify_commands(commands)
        assert counts["ok"] == 1
        assert counts["recovered_by_retry"] == 2
        assert sum(counts.values()) == 3

    def test_annotations_do_not_change_equality(self):
        """Like span: recovery bookkeeping is not command identity."""
        plain = make_command()
        annotated = make_command(read_retries=5, masked_page_reads=2,
                                 remapped_programs=1)
        assert plain == annotated


def small_arch(**fault_overrides):
    faults = FaultConfig(enabled=True, seed=99, **fault_overrides)
    return SsdArchitecture(
        n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
        geometry=SMALL_GEO, dram_refresh=False,
        cache_policy=CachePolicy.NO_CACHING,
        initial_pe_cycles=3000, faults=faults)


def rig_read_errors(device, schedule):
    """Replace every die's bit-error draw with a deterministic schedule
    ``schedule(attempt) -> errors`` (address-independent)."""
    for channel in device.channels:
        for way in channel.dies:
            for die in way:
                die.draw_read_errors = (
                    lambda address, bits, words, attempt: schedule(attempt))


def run_reads(schedule, n_commands=4, read_retry_max=3):
    arch = small_arch(read_retry_max=read_retry_max)
    sim = Simulator()
    device = SsdDevice(sim, arch)
    device.preload_for_reads()
    rig_read_errors(device, schedule)
    commands = list(sequential_read(4096 * n_commands).commands())
    result = run_workload(sim, device,
                          sequential_read(4096 * n_commands))
    return device, result, commands


class TestRetryLadderEdges:
    def test_success_on_final_rung(self):
        """Errors clear exactly on the last permitted re-read: the
        command recovers (no error completion) and the classifier sees
        the full ladder depth, not exhaustion."""
        depth = 3
        __, result, __ = run_reads(
            lambda attempt: 0 if attempt == depth else 999,
            read_retry_max=depth)
        assert result.failed_commands == 0
        assert result.uncorrectable_reads == 0
        assert result.outcomes["recovered_by_retry"] == result.commands
        assert result.outcomes["uncorrectable"] == 0
        # One page per command, each climbing every rung of the ladder.
        assert result.read_retries == depth * result.commands

    def test_ladder_exhaustion(self):
        """Errors never clear: every read completes UNCORRECTABLE (an
        error completion, not a crash or a hang)."""
        device, result, __ = run_reads(lambda attempt: 999,
                                       read_retry_max=3)
        # result.commands counts every submission, failed included.
        total = device.commands_completed + device.commands_failed
        assert total == result.commands
        assert result.failed_commands > 0
        assert result.outcomes["uncorrectable"] == result.failed_commands
        assert result.outcomes["recovered_by_retry"] == 0
        assert result.uncorrectable_reads > 0

    def test_masked_first_sense(self):
        """Nonzero errors corrected on the first sense are invisible to
        the host but classified as masked."""
        __, result, __ = run_reads(lambda attempt: 1)
        assert result.failed_commands == 0
        assert result.read_retries == 0
        assert result.outcomes["masked"] == result.commands
        assert result.outcomes["ok"] == 0


def run_writes(n_commands=4, **fault_overrides):
    arch = small_arch(bit_errors=False, **fault_overrides)
    sim = Simulator()
    device = SsdDevice(sim, arch)
    result = run_workload(sim, device, sequential_write(4096 * n_commands))
    return device, result


class TestWriteFailureEdges:
    def test_empty_spare_pool_is_an_error_completion(self):
        """program always fails + zero spares: the very first retirement
        raises SparePoolExhausted, which must surface as a WRITE_FAILED
        completion carrying the spare-pool cause — never a crash."""
        device, result = run_writes(program_fail_prob=1.0,
                                    spare_blocks_per_plane=0)
        assert device.commands_failed > 0
        assert result.outcomes["spare_pool_exhausted"] \
            == result.failed_commands
        assert result.outcomes["write_failed"] == 0
        # Every command completed (ok or error) — nothing hung.
        assert device.commands_completed + device.commands_failed \
            == result.commands

    def test_remap_exhaustion_is_plain_write_failed(self):
        """With spares to burn, exhausting max_remap_attempts is an
        ordinary WRITE_FAILED — distinct from spare-pool exhaustion."""
        device, result = run_writes(program_fail_prob=1.0,
                                    spare_blocks_per_plane=512,
                                    max_remap_attempts=2)
        assert device.commands_failed > 0
        assert result.outcomes["write_failed"] == result.failed_commands
        assert result.outcomes["spare_pool_exhausted"] == 0

    def test_successful_remap_classified(self):
        """A moderate program-fail rate: remaps absorb every fault, the
        host sees clean completions, the classifier sees remapped."""
        device, result = run_writes(n_commands=32, program_fail_prob=0.25)
        assert device.commands_failed == 0
        assert result.remapped_programs > 0
        assert result.outcomes["remapped"] > 0
        assert result.outcomes["write_failed"] == 0
        assert result.outcomes["spare_pool_exhausted"] == 0


class TestFactoryBadIdempotence:
    def test_factory_bad_counted_once(self):
        """Re-probing a block must not re-draw or re-count it."""
        arch = small_arch(factory_bad_prob=0.25, bit_errors=False)
        sim = Simulator()
        device = SsdDevice(sim, arch)
        die = device.channels[0].die(0, 0)
        geometry = arch.geometry
        first_scan = [die.is_bad_block(plane, block)
                      for plane in range(geometry.planes_per_die)
                      for block in range(geometry.blocks_per_plane)]
        count = die.factory_bad_blocks
        assert count == sum(first_scan)
        assert 0 < count < len(first_scan)
        second_scan = [die.is_bad_block(plane, block)
                       for plane in range(geometry.planes_per_die)
                       for block in range(geometry.blocks_per_plane)]
        assert second_scan == first_scan
        assert die.factory_bad_blocks == count
