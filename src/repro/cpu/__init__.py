"""Embedded controller CPU subsystem.

FW-RISC instruction set + assembler, a cycle-accurate core with SRAM and
memory-mapped I/O over the AHB, the descriptor-driven DMA engine, and the
SSD dispatch firmware with its abstract (parametric) counterpart.
"""

from .assembler import AssemblyError, assemble
from .core import CpuCore, CpuFault
from .dma import DmaEngine
from .firmware import AbstractCpu, DISPATCH_FIRMWARE, FirmwareCpu
from .isa import (CYCLE_COSTS, Instruction, NUM_REGISTERS, Opcode, Operand,
                  TAKEN_BRANCH_PENALTY, alu_evaluate)
from .memory import MemoryFault, MemoryMap, MmioRegion

__all__ = [
    "AbstractCpu", "AssemblyError", "CYCLE_COSTS", "CpuCore", "CpuFault",
    "DISPATCH_FIRMWARE", "DmaEngine", "FirmwareCpu", "Instruction",
    "MemoryFault", "MemoryMap", "MmioRegion", "NUM_REGISTERS", "Opcode",
    "Operand", "TAKEN_BRANCH_PENALTY", "alu_evaluate", "assemble",
]
