"""Cycle-accurate DDR2 buffer controller.

Models the behaviors the paper explicitly calls out — "column
pre-charging, refresh operations, detailed command timings" — at the
command level: per-bank open rows, ACT/PRE/CAS timing, back-to-back burst
occupancy on the shared data bus, and a periodic refresh that closes
every row and stalls traffic for ``tRFC``.

Requests of arbitrary size are split into row-sized segments; each segment
costs a row hit or miss plus its burst train.  The controller is FCFS (the
scheduler used by the buffer manager in the SSD data path, where traffic is
already largely sequential).
"""

from __future__ import annotations

from typing import Optional

from ..kernel import (ClaimChain, Component, PriorityResource, Resource,
                      Simulator)
from ..obs import spans as _obs
from .timing import Ddr2Timing

#: Arbitration priorities on the device bus (lower = more urgent).
REFRESH_PRIORITY = -1
ACCESS_PRIORITY = 0


class _DramDevice(Component):
    """What both DRAM models share: the buffered read/write interface
    over ``access``, the ``reads``/``writes``/``bytes`` counts it keeps
    and the busy fraction of the device ``bus``."""

    def __init__(self, sim: Simulator, name: str, timing: Ddr2Timing,
                 parent: Optional[Component]):
        super().__init__(sim, name, parent)
        self.timing = timing
        self.reads = 0
        self.writes = 0
        self.bytes = 0

    def _count(self, nbytes: int, is_write: bool) -> None:
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes += nbytes

    def write(self, byte_address: int, nbytes: int):
        """Generator: buffered write."""
        return self.access(byte_address, nbytes, is_write=True)

    def read(self, byte_address: int, nbytes: int):
        """Generator: buffered read."""
        return self.access(byte_address, nbytes, is_write=False)

    def utilization(self) -> float:
        """Busy fraction of the device bus."""
        return self.bus.utilization()


class DramController(_DramDevice):
    """One DRAM device (one data buffer of the SSD) with FCFS scheduling
    for accesses; refresh preempts the queue (it cannot be deferred past
    tREFI without violating retention)."""

    def __init__(self, sim: Simulator, name: str, timing: Ddr2Timing,
                 parent: Optional[Component] = None,
                 enable_refresh: bool = True):
        super().__init__(sim, name, timing, parent)
        #: Serializes command/data bus use; FIFO among equal priorities.
        self.bus = PriorityResource(sim, f"{name}.bus", capacity=1)
        #: Per-bank serialization: row activations to different banks
        #: overlap; only the data bursts share the device bus.
        self._banks = [PriorityResource(sim, f"{name}.bank{i}", capacity=1)
                       for i in range(timing.banks)]
        #: Open row per bank (None == precharged).
        self._open_rows: list = [None] * timing.banks
        # Per-segment command latencies, derived once from the timing set.
        clock = timing.clock
        self._cl_ps = clock.cycles(timing.t_cl)
        self._wr_ps = clock.cycles(timing.t_wr)
        self._rp_ps = timing.precharge_ps()
        self._rcd_cl_ps = timing.activate_to_read_ps()
        self._refresh_interval_ps = timing.refresh_interval_ps
        self._rfc_ps = timing.refresh_ps()
        #: Refresh holds every bank, then the bus, in that lock order.
        self._refresh = ClaimChain(sim, (*self._banks, self.bus),
                                   REFRESH_PRIORITY, self._refresh_held)
        self._refresh_running = False
        self.row_hits = 0
        self.row_misses = 0
        self.row_empty = 0
        self.refreshes = 0
        if enable_refresh:
            self.start_refresh()

    # ------------------------------------------------------------------
    # Address mapping: row-interleaved across banks so that sequential
    # streams rotate banks every row (standard buffer-friendly mapping).
    # ------------------------------------------------------------------
    def map_address(self, byte_address: int) -> tuple:
        """Return (bank, row) for a byte address."""
        if byte_address < 0:
            raise ValueError("byte_address must be >= 0")
        row_linear = byte_address // self.timing.row_bytes
        bank = row_linear % self.timing.banks
        row = row_linear // self.timing.banks
        return bank, row

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, byte_address: int, nbytes: int, is_write: bool):
        """Generator: perform a read or write of ``nbytes``.

        Returns the total latency in picoseconds.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        sim = self.sim
        start = sim._now
        timing = self.timing
        row_bytes = timing.row_bytes
        remaining = nbytes
        address = byte_address
        while remaining > 0:
            bank, row = self.map_address(address)
            segment = min(remaining, row_bytes - address % row_bytes)
            # Bank phase: precharge/activate overlaps with other banks'
            # work; only this bank serializes.
            bank_resource = self._banks[bank]
            bank_grant = bank_resource.acquire(ACCESS_PRIORITY)
            yield bank_grant
            try:
                open_row = self._open_rows[bank]
                if open_row != row:
                    delay = self._rcd_cl_ps
                    if open_row is not None:
                        delay += self._rp_ps
                        self.row_misses += 1
                    else:
                        self.row_empty += 1
                    self._open_rows[bank] = row
                else:
                    self.row_hits += 1
                    delay = self._cl_ps
                yield delay
                # Data phase: the burst train occupies the shared bus.
                bus_grant = self.bus.acquire(ACCESS_PRIORITY)
                yield bus_grant
                try:
                    delay = timing.burst_ps(timing.bursts_for(segment))
                    if is_write:
                        delay += self._wr_ps
                    yield delay
                finally:
                    self.bus.release(bus_grant)
            finally:
                bank_resource.release(bank_grant)
            remaining -= segment
            address += segment
        now = sim._now
        elapsed = now - start
        if _obs.enabled:
            _obs.record_span(self.path(), "dram_buffer", start, now)
        self._count(nbytes, is_write)
        return elapsed

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def start_refresh(self) -> None:
        """Start the periodic auto-refresh (idempotent).

        Refresh runs as a chain of kernel callbacks rather than a process:
        a bootstrap at the current time arms the first tREFI timer, and
        each step below is the callback of the event the previous one
        scheduled or requested.  Each timer is a bare calendar entry:
        the bound step method itself.
        """
        if self._refresh_running:
            return
        self._refresh_running = True
        self.sim._after(0, self._arm_refresh)

    def _arm_refresh(self, _event=None) -> None:
        self._refresh.start(self._refresh_interval_ps)

    # Refresh stalls the whole device: the chain holds every bank, then
    # the data bus, strictly in that order, each hold taken only once
    # the previous one is.  Accesses acquire in the same bank-before-bus
    # order, so the lock ordering is acyclic (requesting the bus
    # up-front would deadlock against accesses that hold a bank while
    # waiting for the bus).
    def _refresh_held(self) -> None:
        self._open_rows = [None] * self.timing.banks
        self.sim._after(self._rfc_ps, self._end_refresh)

    def _end_refresh(self, _event=None) -> None:
        refresh = self._refresh
        refresh.give_back()
        self.refreshes += 1
        refresh.start(self._refresh_interval_ps)


class FastDramController(_DramDevice):
    """Fast-fidelity DRAM device: a single-server queue model.

    Each access is one bus tenure of ``overhead + nbytes * ps_per_byte``
    — two kernel events instead of the per-segment ACT/CAS/burst chain
    — while FCFS contention on the shared device bus is kept as a real
    Resource, so back-pressure and utilization still emerge.  Refresh is
    not simulated; its bandwidth loss is folded into the per-byte cost
    as an analytic derate (tRFC / tREFI duty, ~1.6% for DDR2-800),
    unless calibrated parameters override the defaults.

    Shares the generator interface and the ``reads``/``writes``/``bytes``
    counts of :class:`DramController`, so the buffer manager and the
    energy model can swap the two freely.
    """

    def __init__(self, sim: Simulator, name: str, timing: Ddr2Timing,
                 parent: Optional[Component] = None,
                 overhead_ps: Optional[int] = None,
                 ps_per_byte: Optional[float] = None):
        super().__init__(sim, name, timing, parent)
        self.bus = Resource(sim, f"{name}.bus", capacity=1)
        if overhead_ps is None:
            overhead_ps = timing.activate_to_read_ps()
        if ps_per_byte is None:
            # Streaming burst cost, derated by the refresh duty cycle
            # (calibrated parameters already include refresh, so the
            # derate applies only to this analytic default).
            duty = timing.refresh_ps() / timing.refresh_interval_ps
            ps_per_byte = (timing.burst_ps(1) / timing.burst_bytes
                           / (1.0 - duty))
        if overhead_ps < 0:
            raise ValueError("overhead_ps must be >= 0")
        if ps_per_byte <= 0:
            raise ValueError("ps_per_byte must be positive")
        self.overhead_ps = int(overhead_ps)
        self.ps_per_byte = float(ps_per_byte)

    def access(self, byte_address: int, nbytes: int, is_write: bool):
        """Generator: serve a read or write; returns elapsed ps."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        start = self.sim.now
        grant = self.bus.acquire()
        yield grant
        service = self.overhead_ps + int(round(nbytes * self.ps_per_byte))
        yield service
        self.bus.release(grant)
        elapsed = self.sim.now - start
        if _obs.enabled:
            _obs.record_span(self.path(), "dram_buffer", start, self.sim.now)
        self._count(nbytes, is_write)
        return elapsed
