"""Energy estimation from operation counts.

An extension beyond the paper's scope (its trace-driven competitors, e.g.
FlashSim, report power; SSDExplorer focuses on performance): a simple
activity-based energy model that post-processes the statistics every
component already collects.  Because the platform counts each page
program/read, block erase, bus byte and DRAM access anyway, energy falls
out of a dot product with per-operation costs — no simulation slowdown.

Default coefficients are order-of-magnitude values for the 2013-era parts
the paper models (MLC NAND datasheets, DDR2 DRAM, 3 Gb/s PHYs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .device import SsdDevice


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy costs (nanojoules unless noted)."""

    nand_program_nj: float = 35_000.0     # ~35 uJ per MLC page program
    nand_read_nj: float = 8_000.0         # ~8 uJ per page read
    nand_erase_nj: float = 120_000.0      # ~120 uJ per block erase
    onfi_per_byte_nj: float = 0.08
    dram_per_byte_nj: float = 0.15
    host_link_per_byte_nj: float = 0.25
    #: Controller + DRAM background power (watts), charged over sim time.
    static_watts: float = 0.9

    def __post_init__(self) -> None:
        for name in ("nand_program_nj", "nand_read_nj", "nand_erase_nj",
                     "onfi_per_byte_nj", "dram_per_byte_nj",
                     "host_link_per_byte_nj", "static_watts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    # ------------------------------------------------------------------
    def breakdown_nj(self, device: SsdDevice) -> Dict[str, float]:
        """Energy per component class, in nanojoules, from device counts."""
        programs = reads = erases = onfi_bytes = 0
        for channel in device.channels:
            programs += channel.programs
            reads += channel.reads
            erases += channel.erases
            # Every counted program moves one page in, every read one out.
            onfi_bytes += ((channel.programs + channel.reads)
                           * channel.geometry.page_bytes)

        dram_bytes = sum(buffer.bytes for buffer in device.buffers.buffers)
        link_bytes = device.hostif.bytes

        seconds = device.sim.now / 1e12
        return {
            "nand_program": programs * self.nand_program_nj,
            "nand_read": reads * self.nand_read_nj,
            "nand_erase": erases * self.nand_erase_nj,
            "onfi_transfer": onfi_bytes * self.onfi_per_byte_nj,
            "dram": dram_bytes * self.dram_per_byte_nj,
            "host_link": link_bytes * self.host_link_per_byte_nj,
            "static": self.static_watts * seconds * 1e9,
        }

    def total_mj(self, device: SsdDevice) -> float:
        """Total energy in millijoules."""
        return sum(self.breakdown_nj(device).values()) / 1e6

    def average_watts(self, device: SsdDevice) -> float:
        """Mean power over the simulated interval."""
        seconds = device.sim.now / 1e12
        if seconds <= 0:
            return 0.0
        return self.total_mj(device) / 1e3 / seconds

    def nj_per_host_byte(self, device: SsdDevice) -> float:
        """Energy efficiency: nanojoules per host payload byte."""
        if device.bytes_completed == 0:
            return 0.0
        return sum(self.breakdown_nj(device).values()) \
            / device.bytes_completed


#: Shared default coefficients.
DEFAULT_ENERGY = EnergyModel()
