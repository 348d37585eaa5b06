"""Tests for the cycle-accurate core, memory map, DMA and firmware models."""

import pytest

from repro.cpu import (AbstractCpu, CpuCore, CpuFault, DmaEngine, MemoryMap,
                       assemble)
from repro.cpu.firmware import FirmwareCpu
from repro.interconnect import AhbBus
from repro.kernel import Simulator
from repro.kernel.simtime import Clock, ns, us
from repro.ssd.fidelity import cpu_fit

CYCLE = 5000  # 200 MHz


@pytest.fixture
def sim():
    return Simulator()


def run_program(sim, source, memory=None, **kwargs):
    core = CpuCore(sim, "cpu", assemble(source), memory or MemoryMap(),
                   **kwargs)
    handle = core.start()
    sim.run(until=handle)
    return core


class TestExecution:
    def test_mov_and_alu(self, sim):
        core = run_program(sim, """
            mov r1, 6
            mov r2, 7
            mul r3, r1, r2
            add r4, r3, 100
            halt
        """)
        assert core.registers[3] == 42
        assert core.registers[4] == 142

    def test_cycle_accounting(self, sim):
        core = run_program(sim, """
            mov r1, 1        ; 1
            add r2, r1, r1   ; 1
            mul r3, r2, r2   ; 3
            halt             ; 1
        """)
        assert core.cycles_retired == 6
        assert sim.now == 6 * CYCLE

    def test_taken_branch_penalty(self, sim):
        core = run_program(sim, """
            mov r1, 0        ; 1
            beq r1, 0, skip  ; 1 + 2 penalty
            mul r9, r9, r9
        skip:
            halt             ; 1
        """)
        assert core.cycles_retired == 5
        assert core.registers[9] == 0

    def test_not_taken_branch_cheap(self, sim):
        core = run_program(sim, """
            mov r1, 1        ; 1
            beq r1, 0, skip  ; 1 (not taken)
            mov r9, 5        ; 1
        skip:
            halt             ; 1
        """)
        assert core.cycles_retired == 4
        assert core.registers[9] == 5

    def test_loop_counts(self, sim):
        core = run_program(sim, """
            mov r1, 10
            mov r2, 0
        loop:
            add r2, r2, 2
            sub r1, r1, 1
            bne r1, 0, loop
            halt
        """)
        assert core.registers[2] == 20

    def test_call_and_return(self, sim):
        core = run_program(sim, """
            mov r1, 5
            bl double
            bl double
            halt
        double:
            add r1, r1, r1
            ret
        """)
        assert core.registers[1] == 20

    def test_sram_load_store(self, sim):
        memory = MemoryMap(sram_bytes=1024)
        core = run_program(sim, """
            mov r1, 0xABCD
            mov r2, 64
            str r1, [r2 + 4]
            ldr r3, [r2 + 4]
            halt
        """, memory=memory)
        assert core.registers[3] == 0xABCD

    def test_sram_wait_states_cost_time(self, sim):
        fast = run_program(sim, "mov r2, 0\nldr r1, [r2]\nhalt\n",
                           memory=MemoryMap(sram_wait_cycles=0))
        fast_time = sim.now
        sim2 = Simulator()
        run_program(sim2, "mov r2, 0\nldr r1, [r2]\nhalt\n",
                    memory=MemoryMap(sram_wait_cycles=4))
        assert sim2.now == fast_time + 4 * CYCLE

    def test_div_by_zero_faults(self, sim):
        program = assemble("mov r1, 1\nmov r2, 0\ndiv r3, r1, r2\nhalt\n")
        core = CpuCore(sim, "cpu", program, MemoryMap())
        with pytest.raises(CpuFault):
            sim.run(until=core.start())

    def test_pc_out_of_range_faults(self, sim):
        program = assemble("nop\n")  # runs off the end
        core = CpuCore(sim, "cpu", program, MemoryMap())
        with pytest.raises(CpuFault):
            sim.run(until=core.start())

    def test_load_fault_outside_regions(self, sim):
        program = assemble("mov r1, 0x50000000\nldr r2, [r1]\nhalt\n")
        core = CpuCore(sim, "cpu", program, MemoryMap(sram_bytes=1024))
        with pytest.raises(CpuFault):
            sim.run(until=core.start())

    def test_empty_program_rejected(self, sim):
        with pytest.raises(ValueError):
            CpuCore(sim, "cpu", [], MemoryMap())


class TestMmio:
    def test_handlers_invoked(self, sim):
        seen = {}
        memory = MemoryMap(sram_bytes=1024)
        memory.add_mmio(0x80000000, 0x10,
                        read=lambda addr: 0x1234,
                        write=lambda addr, value: seen.update({addr: value}))
        core = run_program(sim, """
            mov r1, 0x80000000
            ldr r2, [r1]
            str r2, [r1 + 4]
            halt
        """, memory=memory)
        assert core.registers[2] == 0x1234
        assert seen == {0x80000004: 0x1234}

    def test_overlapping_regions_rejected(self):
        memory = MemoryMap(sram_bytes=1024)
        memory.add_mmio(0x80000000, 0x10)
        with pytest.raises(ValueError):
            memory.add_mmio(0x80000008, 0x10)

    def test_region_overlapping_sram_rejected(self):
        memory = MemoryMap(sram_bytes=1024)
        with pytest.raises(ValueError):
            memory.add_mmio(512, 0x10)

    def test_wfi_wakes_on_interrupt(self, sim):
        memory = MemoryMap(sram_bytes=1024)
        core = CpuCore(sim, "cpu", assemble("""
            wfi
            mov r1, 99
            halt
        """), memory)
        handle = core.start()

        def interrupter():
            yield sim.timeout(us(3))
            core.post_interrupt()

        sim.process(interrupter())
        sim.run(until=handle)
        assert core.registers[1] == 99
        assert sim.now >= us(3)

    def test_interrupt_before_wfi_not_lost(self, sim):
        core = CpuCore(sim, "cpu", assemble("wfi\nhalt\n"), MemoryMap())
        core.post_interrupt()
        sim.run(until=core.start())
        assert core.halted


class TestDmaEngine:
    def test_setup_cost_plus_mover(self, sim):
        dma = DmaEngine(sim, "dma", setup_ps=ns(100))

        def mover():
            yield sim.timeout(ns(400))
            return "moved"

        result = sim.run(until=sim.process(dma.execute(mover())))
        assert result == "moved"
        assert sim.now == ns(500)

    def test_channel_limit_serializes(self, sim):
        dma = DmaEngine(sim, "dma", channels=1, setup_ps=0)
        finishes = []

        def mover():
            yield sim.timeout(ns(100))

        def client():
            yield sim.process(dma.execute(mover()))
            finishes.append(sim.now)

        sim.process(client())
        sim.process(client())
        sim.run()
        assert finishes == [ns(100), ns(200)]

    def test_multi_channel_parallel(self, sim):
        dma = DmaEngine(sim, "dma", channels=2, setup_ps=0)
        finishes = []

        def mover():
            yield sim.timeout(ns(100))

        def client():
            yield sim.process(dma.execute(mover()))
            finishes.append(sim.now)

        sim.process(client())
        sim.process(client())
        sim.run()
        assert finishes == [ns(100), ns(100)]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            DmaEngine(sim, "dma", channels=0)
        with pytest.raises(ValueError):
            DmaEngine(sim, "dma", setup_ps=-1)


class TestFirmwareCpu:
    def test_dispatch_returns_descriptor(self, sim):
        cpu = FirmwareCpu(sim, "fw")

        def flow():
            descriptor = yield sim.process(cpu.process_command(
                2, 4096, 8, {"channel": 3, "way": 1, "die": 2}))
            return descriptor

        descriptor = sim.run(until=sim.process(flow()))
        assert descriptor["channel"] == 3
        assert descriptor["way"] == 1
        assert descriptor["die"] == 2
        assert descriptor["opcode"] == 2
        assert descriptor["lba"] == 4096
        assert descriptor["sectors"] == 8

    def test_commands_serialize_on_single_core(self, sim):
        cpu = FirmwareCpu(sim, "fw")
        finishes = []

        def client(lba):
            yield sim.process(cpu.process_command(
                1, lba, 8, {"channel": 0, "way": 0, "die": 0}))
            finishes.append(sim.now)

        sim.process(client(0))
        sim.process(client(8))
        sim.run()
        assert len(finishes) == 2
        assert finishes[1] > finishes[0]

    def test_calibration_matches_constant(self):
        """Keep AbstractCpu.CALIBRATED_CYCLES honest: pure-core dispatch is
        38 cycles; the shipped constant adds the AHB MMIO share."""
        measured = cpu_fit()
        assert measured == pytest.approx(38.0, abs=2)
        assert AbstractCpu.CALIBRATED_CYCLES >= measured

    def test_firmware_over_ahb_pays_bus_time(self, sim):
        ahb = AhbBus(sim)
        cpu = FirmwareCpu(sim, "fw", ahb=ahb)

        def flow():
            yield sim.process(cpu.process_command(
                1, 0, 8, {"channel": 0, "way": 0, "die": 0}))

        sim.run(until=sim.process(flow()))
        with_bus = sim.now

        sim2 = Simulator()
        cpu2 = FirmwareCpu(sim2, "fw")

        def flow2():
            yield sim2.process(cpu2.process_command(
                1, 0, 8, {"channel": 0, "way": 0, "die": 0}))

        sim2.run(until=sim2.process(flow2()))
        assert with_bus > sim2.now


class TestAbstractCpu:
    def test_charges_cycles(self, sim):
        cpu = AbstractCpu(sim, cycles_per_command=100,
                          clock=Clock("c", frequency_hz=200e6))

        def flow():
            result = yield sim.process(cpu.process_command(
                1, 64, 8, {"channel": 2, "way": 1, "die": 0}))
            return result

        result = sim.run(until=sim.process(flow()))
        assert sim.now == 100 * CYCLE
        assert result["channel"] == 2

    def test_multicore_parallelism(self, sim):
        cpu = AbstractCpu(sim, cycles_per_command=100, n_cores=2)
        finishes = []

        def client():
            yield sim.process(cpu.process_command(1, 0, 8, {}))
            finishes.append(sim.now)

        for __ in range(4):
            sim.process(client())
        sim.run()
        assert finishes == [100 * CYCLE, 100 * CYCLE,
                            200 * CYCLE, 200 * CYCLE]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            AbstractCpu(sim, n_cores=0)
        with pytest.raises(ValueError):
            AbstractCpu(sim, cycles_per_command=-1)
