"""DDR2 SDRAM timing parameters.

The data buffers of SSDExplorer are "modeled with a SystemC customized
version of [DRAMSim2]" and "the results of this work are modeled after a
DDR2 SDRAM interface" (paper, Section III-C2).  This module captures the
JEDEC timing set that matters for buffer-level behavior: row
activate/precharge/CAS latencies, burst timing, and the refresh cadence.

Defaults model a DDR2-800 x16 device (400 MHz clock, data on both edges).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.simtime import Clock, us


@dataclass(frozen=True)
class Ddr2Timing:
    """JEDEC-style DDR2 timing in clock cycles (except tREFI)."""

    clock_hz: float = 400e6
    data_bus_bytes: int = 2       # x16 device
    burst_length: int = 4         # BL4: 2 clock cycles of data
    banks: int = 8
    t_cl: int = 4                 # CAS latency
    t_rcd: int = 4                # RAS-to-CAS delay
    t_rp: int = 4                 # row precharge
    t_ras: int = 16               # row active minimum
    t_rfc: int = 51               # refresh cycle time
    t_wr: int = 4                 # write recovery
    refresh_interval_ps: int = us(7.8)
    row_bytes: int = 2048         # bytes per row per device

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        for field in ("data_bus_bytes", "burst_length", "banks", "row_bytes"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.burst_length % 2:
            raise ValueError("burst_length must be even (DDR)")
        # Built once per timing set (not a dataclass field, so equality,
        # hashing and repr are unchanged); the frozen dataclass needs
        # object.__setattr__ to store it.
        object.__setattr__(self, "clock",
                           Clock("ddr", frequency_hz=self.clock_hz))

    @property
    def burst_bytes(self) -> int:
        """Bytes moved by one burst (double data rate)."""
        return self.data_bus_bytes * self.burst_length

    @property
    def burst_cycles(self) -> int:
        """Clock cycles the data bus is occupied per burst."""
        return self.burst_length // 2

    def peak_bandwidth_mbps(self) -> float:
        """Theoretical peak data rate in MB/s."""
        bytes_per_second = self.clock_hz * 2 * self.data_bus_bytes
        return bytes_per_second / 1e6

    def activate_to_read_ps(self) -> int:
        """ACT -> first data out: tRCD + CL."""
        return self.clock.cycles(self.t_rcd + self.t_cl)

    def precharge_ps(self) -> int:
        return self.clock.cycles(self.t_rp)

    def refresh_ps(self) -> int:
        return self.clock.cycles(self.t_rfc)

    def burst_ps(self, count: int = 1) -> int:
        """Data-bus time for ``count`` back-to-back bursts."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return self.clock.cycles(self.burst_cycles * count)

    def bursts_for(self, nbytes: int) -> int:
        """Bursts needed to move ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return -(-nbytes // self.burst_bytes)


#: Default device for all experiments: DDR2-800 x16.
DEFAULT_DDR2 = Ddr2Timing()
