"""ONFI channel model.

One ONFI channel is an 8-bit command/address/data bus shared by all dies on
that channel (the ways of the gang).  While a die performs its internal
array operation the bus is free, so the channel controller can interleave
transfers to other dies — this overlap is the whole point of way-level
parallelism, and the ONFI bus occupancy is what ultimately caps per-channel
throughput.

Timing model (per ONFI 2.x, asynchronous data interface by default):

* command cycle: 1 byte at ``t_cycle``;
* address cycles: 5 bytes (2 column + 3 row) at ``t_cycle``;
* data cycles: one byte per ``t_cycle``;
* fixed command overhead (``t_wb`` wait-busy, status poll) folded into
  :attr:`OnfiTiming.overhead_ps`.

The default 30 ns cycle yields ~33 MB/s of effective channel bandwidth,
which is the knob that reproduces the Fig. 3 saturation pattern (see
DESIGN.md).  Source-synchronous modes (higher speed) are available through
:meth:`OnfiTiming.source_synchronous`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel import Component, Resource, Simulator
from ..kernel.simtime import ns
from ..obs import spans as _obs


@dataclass(frozen=True)
class OnfiTiming:
    """Cycle timing of the ONFI bus."""

    #: Duration of one bus cycle (one byte transferred), picoseconds.
    cycle_ps: int = ns(30)
    #: Command + wait overhead per array command, picoseconds.
    overhead_ps: int = ns(300)
    #: Address cycles per command.
    address_cycles: int = 5
    #: Command cycles per command (first + confirm byte).
    command_cycles: int = 2

    def __post_init__(self) -> None:
        if self.cycle_ps <= 0:
            raise ValueError("cycle_ps must be positive")

    @classmethod
    def asynchronous(cls) -> "OnfiTiming":
        """Legacy asynchronous interface (~33 MB/s)."""
        return cls(cycle_ps=ns(30))

    @classmethod
    def source_synchronous(cls, mega_transfers: int = 133) -> "OnfiTiming":
        """ONFI 2.x source-synchronous interface (e.g. 133 MT/s)."""
        if mega_transfers <= 0:
            raise ValueError("mega_transfers must be positive")
        return cls(cycle_ps=int(round(1e6 / mega_transfers)))

    def command_time(self) -> int:
        """Bus time to issue command + address cycles."""
        return (self.command_cycles + self.address_cycles) * self.cycle_ps

    def data_time(self, nbytes: int) -> int:
        """Bus time to move ``nbytes`` over the 8-bit interface."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return nbytes * self.cycle_ps

    def bandwidth_mbps(self) -> float:
        """Raw data bandwidth of the bus in MB/s (one byte per cycle)."""
        return 1e6 / self.cycle_ps

    def effective_page_time(self, nbytes: int) -> int:
        """Total bus occupancy for one page transfer including overheads."""
        return self.command_time() + self.data_time(nbytes) + self.overhead_ps


class OnfiChannel(Component):
    """The shared bus of one channel, modeled as a FIFO resource.

    Transfers acquire the bus, hold it for the exact cycle count, and
    release it.  Array time is *not* spent holding the bus — the die model
    owns that — so way interleaving falls out naturally.
    """

    def __init__(self, sim: Simulator, name: str, timing: OnfiTiming,
                 parent: Component = None):
        super().__init__(sim, name, parent)
        self.timing = timing
        self.bus = Resource(sim, f"{name}.bus", capacity=1)

    def issue_command(self):
        """Occupy the bus for a command/address sequence (generator)."""
        grant = self.bus.acquire()
        yield grant
        t0 = self.sim.now if _obs.enabled else -1
        yield self.sim.timeout(self.timing.command_time() + self.timing.overhead_ps)
        self.bus.release(grant)
        if t0 >= 0:
            _obs.record_span(self.path(), "bus_cmd", t0, self.sim.now)

    def transfer(self, nbytes: int):
        """Occupy the bus for a data transfer of ``nbytes`` (generator)."""
        grant = self.bus.acquire()
        yield grant
        t0 = self.sim.now if _obs.enabled else -1
        yield self.sim.timeout(self.timing.data_time(nbytes))
        self.bus.release(grant)
        if t0 >= 0:
            _obs.record_span(self.path(), "bus_xfer", t0, self.sim.now)

    def utilization(self) -> float:
        """Fraction of sim time the bus was occupied."""
        return self.bus.utilization()
