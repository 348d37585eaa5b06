"""The controller core: a cycle-accurate FW-RISC interpreter.

Executes assembled firmware with ARM7TDMI-flavored cycle costs.  To keep
kernel event counts low, straight-line execution accumulates cycles in a
local counter and converts them into a single timed wait whenever the core
touches the outside world (MMIO, WFI) or the accounting quantum expires —
the timing is identical to stepping every instruction, event for event,
because nothing can observe the core between those points.

MMIO loads/stores travel over the AHB when the region names a slave,
paying real arbitration and transfer time; core-local regions cost only
the instruction's base cycles.
"""

from __future__ import annotations

from typing import List, Optional

from ..kernel import Component, Event, Simulator
from ..kernel.simtime import Clock
from ..interconnect import AhbMasterPort
from .isa import (CYCLE_COSTS, Instruction, MASK32, NUM_REGISTERS, Opcode,
                  TAKEN_BRANCH_PENALTY, alu_evaluate)
from .memory import MemoryFault, MemoryMap


class CpuFault(Exception):
    """Firmware did something illegal (bad pc, memory fault, ...)."""


class CpuCore(Component):
    """One FW-RISC core executing a fixed program image."""

    def __init__(self, sim: Simulator, name: str, program: List[Instruction],
                 memory: MemoryMap, clock: Optional[Clock] = None,
                 ahb_port: Optional[AhbMasterPort] = None,
                 parent: Optional[Component] = None,
                 quantum_cycles: int = 4096):
        super().__init__(sim, name, parent)
        if not program:
            raise ValueError("program must contain at least one instruction")
        if quantum_cycles < 1:
            raise ValueError("quantum_cycles must be >= 1")
        self.program = program
        self.memory = memory
        self.clock = clock or Clock("cpu", frequency_hz=200e6)
        self.ahb_port = ahb_port
        self.quantum_cycles = quantum_cycles
        self.registers = [0] * NUM_REGISTERS
        self.pc = 0
        self.halted = False
        self._pending_interrupt = False
        self._wakeup: Optional[Event] = None
        self.cycles_retired = 0

    # ------------------------------------------------------------------
    # External control
    # ------------------------------------------------------------------
    def post_interrupt(self) -> None:
        """Ring the doorbell; wakes a core blocked in WFI."""
        self._pending_interrupt = True
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def start(self):
        """Begin execution; returns the completion Process."""
        return self.sim.process(self._run(), name=f"{self.name}.exec")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _operand_value(self, operand) -> int:
        return self.registers[operand.value] if operand.is_register \
            else operand.value

    def _run(self):
        accumulated = 0
        period = self.clock.period_ps
        program = self.program
        registers = self.registers

        while not self.halted:
            if not 0 <= self.pc < len(program):
                raise CpuFault(f"{self.path()}: pc {self.pc} out of program")
            instruction = program[self.pc]
            opcode = instruction.opcode
            cost = CYCLE_COSTS[opcode]
            next_pc = self.pc + 1

            if opcode is Opcode.MOV:
                registers[instruction.rd] = self._operand_value(
                    instruction.operands[0])
            elif opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                            Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MUL,
                            Opcode.DIV):
                lhs = self._operand_value(instruction.operands[0])
                rhs = self._operand_value(instruction.operands[1])
                try:
                    registers[instruction.rd] = alu_evaluate(opcode, lhs, rhs)
                except ZeroDivisionError as exc:
                    raise CpuFault(f"{self.path()}: {exc} at pc {self.pc}")
            elif opcode is Opcode.LDR:
                base = registers[instruction.operands[0].value]
                address = (base + instruction.operands[1].value) & MASK32
                accumulated, value = yield from self._load(address,
                                                           accumulated + cost)
                registers[instruction.rd] = value
                cost = 0
            elif opcode is Opcode.STR:
                base = registers[instruction.rd]
                address = (base + instruction.operands[1].value) & MASK32
                value = registers[instruction.operands[0].value]
                accumulated = yield from self._store(address, value,
                                                     accumulated + cost)
                cost = 0
            elif opcode is Opcode.B:
                next_pc = instruction.target
            elif opcode in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
                lhs = self._operand_value(instruction.operands[0])
                rhs = self._operand_value(instruction.operands[1])
                taken = ((opcode is Opcode.BEQ and lhs == rhs)
                         or (opcode is Opcode.BNE and lhs != rhs)
                         or (opcode is Opcode.BLT and lhs < rhs)
                         or (opcode is Opcode.BGE and lhs >= rhs))
                if taken:
                    next_pc = instruction.target
                    cost += TAKEN_BRANCH_PENALTY
            elif opcode is Opcode.BL:
                registers[14] = next_pc
                next_pc = instruction.target
            elif opcode is Opcode.RET:
                next_pc = registers[14]
            elif opcode is Opcode.WFI:
                accumulated += cost
                cost = 0
                # Flush time before sleeping; WFI consumes no cycles while
                # asleep.  Re-check the doorbell *after* the flush so an
                # interrupt arriving during it is not lost.
                if accumulated:
                    yield self.sim.timeout(accumulated * period)
                    self.cycles_retired += accumulated
                    accumulated = 0
                if not self._pending_interrupt:
                    self._wakeup = self.sim.event(f"{self.name}.wfi")
                    yield self._wakeup
                    self._wakeup = None
                self._pending_interrupt = False
            elif opcode is Opcode.HALT:
                self.halted = True
            elif opcode is Opcode.NOP:
                pass
            else:  # pragma: no cover - exhaustive over Opcode
                raise CpuFault(f"unimplemented opcode {opcode}")

            accumulated += cost
            self.pc = next_pc

            if accumulated >= self.quantum_cycles:
                yield self.sim.timeout(accumulated * period)
                self.cycles_retired += accumulated
                accumulated = 0

        if accumulated:
            yield self.sim.timeout(accumulated * period)
            self.cycles_retired += accumulated
        return self.cycles_retired

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------
    def _load(self, address: int, accumulated: int):
        memory = self.memory
        if memory.in_sram(address):
            accumulated += memory.sram_wait_cycles
            return accumulated, memory.sram_load(address)
        region = memory.find_region(address)
        if region is None or region.read is None:
            raise CpuFault(f"{self.path()}: load fault at {address:#x}")
        accumulated = yield from self._flush_and_bus(address, accumulated,
                                                     region)
        return accumulated, region.read(address) & MASK32

    def _store(self, address: int, value: int, accumulated: int):
        memory = self.memory
        if memory.in_sram(address):
            memory.sram_store(address, value)
            return accumulated + memory.sram_wait_cycles
        region = memory.find_region(address)
        if region is None or region.write is None:
            raise CpuFault(f"{self.path()}: store fault at {address:#x}")
        accumulated = yield from self._flush_and_bus(address, accumulated,
                                                     region)
        region.write(address, value & MASK32)
        return accumulated

    def _flush_and_bus(self, address: int, accumulated: int, region):
        # Make accumulated time real before interacting with shared state.
        if accumulated:
            yield self.sim.timeout(accumulated * self.clock.period_ps)
            self.cycles_retired += accumulated
        if region.ahb_slave is not None:
            if self.ahb_port is None:
                raise CpuFault(
                    f"{self.path()}: region at {address:#x} needs the AHB "
                    "but the core has no bus port")
            yield self.sim.process(
                self.ahb_port.write(region.ahb_slave, 4))
        return 0
