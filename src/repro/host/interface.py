"""Host interface models: SATA II with NCQ, and PCI Express with NVMe.

Both are cycle-accurate at the transaction level: every command pays its
protocol handshake overhead and its payload serialization time on the
physical link, which is shared (one lane set / one SATA PHY) among all
outstanding commands.  The defining architectural difference the paper's
Fig. 3/4 experiment exposes is the **queue depth**: SATA NCQ manages at
most 32 commands, NVMe up to 64K per queue.

A common control architecture (AHB slave port + external DMA, per the
paper) means both interfaces present the same API to the platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel import Component, Resource, Simulator
from ..kernel.simtime import ns, us
from ..obs import spans as _obs


@dataclass(frozen=True)
class HostInterfaceSpec:
    """Performance-defining parameters of a host interface."""

    name: str
    #: Payload bytes per second on the link after encoding/framing losses.
    effective_bandwidth_bps: float
    #: Fixed protocol time per command (FIS exchange / SQE+CQE+doorbells).
    command_overhead_ps: int
    #: Maximum outstanding commands (NCQ / NVMe queue depth).
    queue_depth: int

    def __post_init__(self) -> None:
        if self.effective_bandwidth_bps <= 0:
            raise ValueError("effective_bandwidth_bps must be positive")
        if self.command_overhead_ps < 0:
            raise ValueError("command_overhead_ps must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")

    def payload_time_ps(self, nbytes: int) -> int:
        """Serialization time of ``nbytes`` on the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return int(round(nbytes / self.effective_bandwidth_bps * 1e12))

    def ideal_throughput_mbps(self, block_bytes: int) -> float:
        """Stand-alone streaming throughput at a given block size —
        the "SATA ideal" / "PCIE ideal" bars of Fig. 3/4."""
        per_command = self.command_overhead_ps + self.payload_time_ps(
            block_bytes)
        return block_bytes / 1e6 / (per_command / 1e12)


def sata_spec(generation: int = 2,
              queue_depth: int = 32) -> HostInterfaceSpec:
    """SATA generation 1/2/3: 1.5/3.0/6.0 Gb/s line rate, 8b/10b coding.

    Framing (FIS headers, CRC, primitives) trims ~2%; the per-command
    overhead covers the H2D command FIS, DMA-setup/activate handshake and
    the D2H status FIS of the NCQ protocol (see :mod:`repro.host.sata`
    for the FIS-level derivation).  NCQ caps the queue at 32 in every
    generation.  The fixed FIS/turnaround overhead scales inversely with
    the line rate (frames serialize faster on faster links).
    """
    line_rates = {1: 1.5, 2: 3.0, 3: 6.0}
    if generation not in line_rates:
        raise ValueError(f"unsupported SATA generation {generation}")
    if not 1 <= queue_depth <= 32:
        raise ValueError("SATA NCQ supports 1..32 outstanding commands")
    raw_mbps = line_rates[generation] * 1e9 / 10
    return HostInterfaceSpec(
        name=f"sata{generation}",
        effective_bandwidth_bps=raw_mbps * 0.98,
        command_overhead_ps=int(us(1.2) * 3.0 / line_rates[generation]),
        queue_depth=queue_depth,
    )


def sata2_spec(queue_depth: int = 32) -> HostInterfaceSpec:
    """SATA II — the paper's host interface (see :func:`sata_spec`)."""
    return sata_spec(generation=2, queue_depth=queue_depth)


def pcie_nvme_spec(generation: int = 2, lanes: int = 8,
                   queue_depth: int = 65536) -> HostInterfaceSpec:
    """PCI Express gen1-3, xN lanes, carrying NVMe.

    Per-lane effective payload rates: gen1/gen2 use 8b/10b (250/500 MB/s
    raw), gen3 uses 128b/130b (~985 MB/s raw); TLP framing with 256 B
    maximum payload size costs ~14%.  NVMe's SQE fetch (64 B), CQE
    write-back (16 B), doorbells and MSI-X cost well under a microsecond —
    the protocol "significantly reduces packetization latencies with
    respect to standard SATA interfaces".
    """
    per_lane_raw = {1: 250e6, 2: 500e6, 3: 985e6}
    if generation not in per_lane_raw:
        raise ValueError(f"unsupported PCIe generation {generation}")
    if lanes not in (1, 2, 4, 8, 16):
        raise ValueError(f"invalid lane count {lanes}")
    if not 1 <= queue_depth <= 65536:
        raise ValueError("NVMe queue depth must be in 1..65536")
    tlp_efficiency = 0.86  # 256 B MPS with 20 B header+framing overhead
    return HostInterfaceSpec(
        name=f"pcie-gen{generation}-x{lanes}-nvme",
        effective_bandwidth_bps=per_lane_raw[generation] * lanes
        * tlp_efficiency,
        command_overhead_ps=ns(700),
        queue_depth=queue_depth,
    )


class HostInterface(Component):
    """The host-side port of the SSD.

    Owns the link (a FIFO resource — one frame at a time) and the queue
    slots.  The SSD device composes these primitives into the full command
    flow; see :mod:`repro.ssd.device`.
    """

    def __init__(self, sim: Simulator, spec: HostInterfaceSpec,
                 name: str = "hostif", parent: Component = None):
        super().__init__(sim, name, parent)
        self.spec = spec
        self.link = Resource(sim, f"{name}.link", capacity=1)
        self.queue_slots = Resource(sim, f"{name}.queue",
                                    capacity=spec.queue_depth)
        self.transfers = 0
        self.bytes = 0

    def acquire_slot(self):
        """Generator: obtain a queue tag (blocks at full queue depth)."""
        grant = self.queue_slots.acquire()
        yield grant
        return grant

    def release_slot(self, grant) -> None:
        self.queue_slots.release(grant)

    def transfer(self, nbytes: int, with_command_overhead: bool = True,
                 span=None):
        """Generator: move one command's payload over the link.

        ``span`` is an optional :class:`~repro.obs.spans.CommandSpan`:
        waiting for the shared link is marked ``queue``, the wire time
        ``host_xfer``.
        """
        grant = self.link.acquire()
        yield grant
        if span is not None:
            span.mark("queue", self.sim.now)
        t0 = self.sim.now if _obs.enabled else -1
        duration = self.spec.payload_time_ps(nbytes)
        if with_command_overhead:
            duration += self.spec.command_overhead_ps
        yield duration
        self.link.release(grant)
        if span is not None:
            span.mark("host_xfer", self.sim.now)
        if t0 >= 0:
            _obs.record_span(self.path(), "host_xfer", t0, self.sim.now)
        self.bytes += nbytes
        self.transfers += 1

    def utilization(self) -> float:
        return self.link.utilization()
