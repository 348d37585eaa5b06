"""Way-gang interconnection schemes.

The paper (citing Agrawal et al.'s "Design tradeoffs for SSD performance")
supports two ways of ganging the flash packages of one channel:

* **shared-bus gang** — every way shares the channel's single 8-bit ONFI
  data bus; transfers to different ways serialize, array operations still
  overlap.
* **shared-control gang** — ways share only the control/command signals;
  each way has its own data path, so data transfers to different ways
  proceed in parallel while command issue serializes on the control bus.
"""

from __future__ import annotations

import enum
from typing import List

from ..kernel import Component, Resource, Simulator
from ..nand.onfi import OnfiChannel, OnfiTiming
from ..obs import spans as _obs


class GangScheme(enum.Enum):
    SHARED_BUS = "shared-bus"
    SHARED_CONTROL = "shared-control"


class ChannelBuses(Component):
    """The bus fabric of one channel under a given gang scheme."""

    def __init__(self, sim: Simulator, name: str, scheme: GangScheme,
                 n_ways: int, timing: OnfiTiming,
                 parent: Component = None):
        super().__init__(sim, name, parent)
        if n_ways < 1:
            raise ValueError(f"n_ways must be >= 1, got {n_ways}")
        self.scheme = scheme
        self.timing = timing
        self.n_ways = n_ways
        if scheme is GangScheme.SHARED_BUS:
            shared = OnfiChannel(sim, "bus", timing, parent=self)
            self._data_buses: List[OnfiChannel] = [shared] * n_ways
            self._control = shared.bus  # control shares the same wires
        elif scheme is GangScheme.SHARED_CONTROL:
            self._data_buses = [
                OnfiChannel(sim, f"way{w}_bus", timing, parent=self)
                for w in range(n_ways)
            ]
            self._control = Resource(sim, f"{name}.control", capacity=1)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown gang scheme {scheme}")

    def data_bus(self, way: int) -> OnfiChannel:
        """The ONFI data bus serving a way."""
        if not 0 <= way < self.n_ways:
            raise ValueError(f"way {way} out of range [0, {self.n_ways})")
        return self._data_buses[way]

    def issue_command(self, way: int):
        """Generator: occupy the command path for one command sequence."""
        if self.scheme is GangScheme.SHARED_BUS:
            yield self.sim.process(self._data_buses[way].issue_command())
        else:
            grant = self._control.acquire()
            yield grant
            t0 = self.sim.now if _obs.enabled else -1
            yield self.sim.timeout(self.timing.command_time()
                                   + self.timing.overhead_ps)
            self._control.release(grant)
            if t0 >= 0:
                _obs.record_span(self.path(), "gang_cmd", t0, self.sim.now)

    def transfer(self, way: int, nbytes: int):
        """Generator: move page data on the way's data path."""
        yield self.sim.process(self._data_buses[way].transfer(nbytes))

    def data_utilization(self) -> float:
        """Mean busy fraction across the data buses."""
        buses = (self._data_buses if self.scheme is GangScheme.SHARED_CONTROL
                 else self._data_buses[:1])
        return sum(bus.utilization() for bus in buses) / len(buses)
