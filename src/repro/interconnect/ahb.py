"""AMBA AHB v2.0 system interconnect.

RTL-equivalent timing model of the bus at the heart of the SSD controller
(paper, Section III-B2): 32-bit data, up to 16 masters and 16 slaves,
round-robin arbitration, INCR bursts, and split transactions that free the
bus while a slow slave prepares its response.

A transfer of N bytes as a burst costs::

    arbitration (>= 1 cycle if contended)
    + 1 address phase cycle
    + beats * (1 + wait_states) data cycles

with ``beats = ceil(N / 4)``.  With split support, a slave with non-zero
access latency returns SPLIT after the address phase: the master releases
the bus, waits for the slave, then re-arbitrates to move the data — other
masters use the bus in between ("hiding wait states and arbitration
penalties as much as possible", as the paper puts it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..kernel import Component, Simulator, UtilizationTracker
from ..kernel.simtime import Clock
from .arbiter import RoundRobinArbiter

MAX_MASTERS = 16
MAX_SLAVES = 16
BUS_BYTES = 4  # 32-bit AHB data path


@dataclass
class AhbSlaveConfig:
    """Static properties of one slave port."""

    name: str
    wait_states: int = 0          # per-beat wait states
    access_latency_ps: int = 0    # initial latency (split-able)
    supports_split: bool = True


class AhbMasterPort:
    """Handle a master uses to issue transfers."""

    def __init__(self, bus: "AhbBus", master_id: int, name: str):
        self.bus = bus
        self.master_id = master_id
        self.name = name

    def write(self, slave: str, nbytes: int):
        """Generator: burst write to a slave; returns elapsed ps."""
        return self.bus.transfer(self, slave, nbytes)

    def read(self, slave: str, nbytes: int):
        """Generator: burst read from a slave; returns elapsed ps."""
        return self.bus.transfer(self, slave, nbytes)


class AhbBus(Component):
    """Single-layer AHB with round-robin arbitration."""

    def __init__(self, sim: Simulator, name: str = "ahb",
                 clock: Optional[Clock] = None,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        self.clock = clock or Clock("ahb", frequency_hz=200e6)
        self.arbiter = RoundRobinArbiter(sim, self.clock, MAX_MASTERS)
        self._masters: Dict[int, AhbMasterPort] = {}
        self._slaves: Dict[str, AhbSlaveConfig] = {}
        self._busy = UtilizationTracker(sim)
        #: Transfers that released the bus while a slave prepared.
        self.splits = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_master(self, name: str) -> AhbMasterPort:
        """Register a master; at most 16 per the AHB configuration."""
        if len(self._masters) >= MAX_MASTERS:
            raise ValueError(f"AHB supports at most {MAX_MASTERS} masters")
        master_id = len(self._masters)
        port = AhbMasterPort(self, master_id, name)
        self._masters[master_id] = port
        return port

    def attach_slave(self, config: AhbSlaveConfig) -> None:
        """Register a slave; at most 16 per the AHB configuration."""
        if len(self._slaves) >= MAX_SLAVES:
            raise ValueError(f"AHB supports at most {MAX_SLAVES} slaves")
        if config.name in self._slaves:
            raise ValueError(f"duplicate slave name {config.name!r}")
        if config.wait_states < 0 or config.access_latency_ps < 0:
            raise ValueError("slave latencies must be >= 0")
        self._slaves[config.name] = config

    @property
    def n_masters(self) -> int:
        return len(self._masters)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def beats_for(self, nbytes: int) -> int:
        """Data beats for an N-byte burst on the 32-bit bus."""
        if nbytes < 1:
            raise ValueError(f"nbytes must be >= 1, got {nbytes}")
        return -(-nbytes // BUS_BYTES)

    def transfer(self, port: AhbMasterPort, slave: str, nbytes: int):
        """Generator implementing one (possibly split) burst transfer;
        reads and writes take the same bus time."""
        if port.bus is not self:
            raise ValueError("master port belongs to a different bus")
        config = self._slaves.get(slave)
        if config is None:
            raise KeyError(f"no slave named {slave!r} on {self.name}")
        beats = self.beats_for(nbytes)
        start = self.sim.now
        cycle = self.clock.period_ps

        grant = self.arbiter.request(port.master_id)
        yield grant
        self._busy.set_busy()
        # Address phase.
        yield self.sim.timeout(cycle)

        if config.access_latency_ps > 0 and config.supports_split:
            # SPLIT: give the bus back while the slave prepares.
            self._busy.set_idle()
            self.arbiter.release(port.master_id)
            self.splits += 1
            yield self.sim.timeout(config.access_latency_ps)
            regrant = self.arbiter.request(port.master_id)
            yield regrant
            self._busy.set_busy()
        elif config.access_latency_ps > 0:
            # No split support: the bus stalls for the slave latency.
            yield self.sim.timeout(config.access_latency_ps)

        data_cycles = beats * (1 + config.wait_states)
        yield self.sim.timeout(data_cycles * cycle)
        self._busy.set_idle()
        self.arbiter.release(port.master_id)

        return self.sim.now - start

    def utilization(self) -> float:
        """Fraction of sim time the bus carried address/data phases."""
        return self._busy.utilization()


class MultiLayerAhbBus(Component):
    """Multi-Layer AHB: a crossbar of per-slave AHB layers.

    Mentioned by the paper as an available evolution ("over-designed ...
    with respect to current SSD requirements"); masters only contend when
    targeting the same slave.  Implemented as one single-layer bus per
    slave sharing master ports.
    """

    def __init__(self, sim: Simulator, name: str = "mlahb",
                 clock: Optional[Clock] = None,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        self.clock = clock or Clock("ahb", frequency_hz=200e6)
        self._layers: Dict[str, AhbBus] = {}
        self._master_names: Dict[int, str] = {}

    def attach_master(self, name: str) -> "MultiLayerMasterPort":
        if len(self._master_names) >= MAX_MASTERS:
            raise ValueError(f"AHB supports at most {MAX_MASTERS} masters")
        master_id = len(self._master_names)
        self._master_names[master_id] = name
        return MultiLayerMasterPort(self, master_id, name)

    def attach_slave(self, config: AhbSlaveConfig) -> None:
        if len(self._layers) >= MAX_SLAVES:
            raise ValueError(f"AHB supports at most {MAX_SLAVES} slaves")
        if config.name in self._layers:
            raise ValueError(f"duplicate slave name {config.name!r}")
        layer = AhbBus(self.sim, f"layer_{config.name}", self.clock,
                       parent=self)
        layer.attach_slave(config)
        self._layers[config.name] = layer

    def transfer(self, port: "MultiLayerMasterPort", slave: str, nbytes: int):
        layer = self._layers.get(slave)
        if layer is None:
            raise KeyError(f"no slave named {slave!r} on {self.name}")
        layer_port = layer._masters.get(port.master_id)
        if layer_port is None:
            # Lazily mirror the master onto this layer with a stable id.
            while layer.n_masters <= port.master_id:
                layer_port = layer.attach_master(
                    self._master_names.get(layer.n_masters,
                                           f"m{layer.n_masters}"))
        result = yield self.sim.process(
            layer.transfer(layer_port, slave, nbytes))
        return result


class MultiLayerMasterPort:
    """Master handle on the multi-layer interconnect."""

    def __init__(self, bus: MultiLayerAhbBus, master_id: int, name: str):
        self.bus = bus
        self.master_id = master_id
        self.name = name

    def write(self, slave: str, nbytes: int):
        return self.bus.transfer(self, slave, nbytes)

    def read(self, slave: str, nbytes: int):
        return self.bus.transfer(self, slave, nbytes)
