"""NVMe queue-pair protocol model over PCI Express.

"Fast operations are achieved through the NVMe protocol that
significantly reduces packetization latencies with respect to standard
SATA interfaces" (paper, Section III-C1).  This module models the
mechanism: submission/completion queue rings in host memory, doorbell
writes, SQE fetch, data TLPs and the CQE + MSI-X completion path, all
expressed as PCIe transaction-layer packets.

The aggregate per-command cost derived here is what
:func:`~repro.host.interface.pcie_nvme_spec` folds into its
``command_overhead_ps``; a regression test keeps the two consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: TLP header + framing bytes per PCIe packet (3-DW header + seq + LCRC).
TLP_OVERHEAD_BYTES = 20
#: Maximum payload size (bytes) per data TLP — the common 256 B setting.
MAX_PAYLOAD_SIZE = 256

#: NVMe structure sizes.
SQE_BYTES = 64
CQE_BYTES = 16
DOORBELL_BYTES = 4
MSIX_BYTES = 16

#: Controller-side processing between protocol phases (command decode,
#: queue arbitration) — tens of nanoseconds in ASIC implementations.
CONTROLLER_LATENCY_PS = 60_000  # 60 ns

#: Per-lane payload rates after line coding (bytes per second).
LANE_RATE_BPS = {
    1: 250e6 * 0.8 / 0.8,   # gen1: 2.5 GT/s, 8b/10b -> 250 MB/s raw
    2: 500e6,               # gen2: 5.0 GT/s, 8b/10b -> 500 MB/s raw
    3: 985e6,               # gen3: 8.0 GT/s, 128b/130b -> ~985 MB/s raw
}


@dataclass(frozen=True)
class PcieLink:
    """A PCIe link: generation and lane count."""

    generation: int = 2
    lanes: int = 8

    def __post_init__(self) -> None:
        if self.generation not in LANE_RATE_BPS:
            raise ValueError(f"unsupported generation {self.generation}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")

    @property
    def raw_bytes_per_second(self) -> float:
        return LANE_RATE_BPS[self.generation] * self.lanes

    def tlp_time_ps(self, payload_bytes: int) -> int:
        """Serialize one TLP carrying ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        wire = payload_bytes + TLP_OVERHEAD_BYTES
        return int(round(wire / self.raw_bytes_per_second * 1e12))

    def data_time_ps(self, nbytes: int) -> int:
        """Move ``nbytes`` of payload as a train of max-size TLPs."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        full, rest = divmod(nbytes, MAX_PAYLOAD_SIZE)
        total = full * self.tlp_time_ps(MAX_PAYLOAD_SIZE)
        if rest:
            total += self.tlp_time_ps(rest)
        return total

    def efficiency(self) -> float:
        """Payload fraction of the wire for max-size data TLPs."""
        return MAX_PAYLOAD_SIZE / (MAX_PAYLOAD_SIZE + TLP_OVERHEAD_BYTES)


def nvme_write_sequence(nbytes: int,
                        link: PcieLink = PcieLink()) -> List[Tuple[str, int]]:
    """The packet-by-packet timeline of one NVMe write command."""
    return [
        ("SQ doorbell (MMIO write)", link.tlp_time_ps(DOORBELL_BYTES)),
        ("controller decode", CONTROLLER_LATENCY_PS),
        ("SQE fetch (64 B read)", 2 * link.tlp_time_ps(SQE_BYTES // 2)),
        ("controller decode", CONTROLLER_LATENCY_PS),
        ("data TLPs", link.data_time_ps(nbytes)),
        ("controller decode", CONTROLLER_LATENCY_PS),
        ("CQE write-back", link.tlp_time_ps(CQE_BYTES)),
        ("MSI-X interrupt", link.tlp_time_ps(MSIX_BYTES)),
        ("CQ doorbell", link.tlp_time_ps(DOORBELL_BYTES)),
    ]


def nvme_command_total_ps(nbytes: int, link: PcieLink = PcieLink()) -> int:
    """End-to-end link time of one NVMe command."""
    return sum(duration for __, duration in nvme_write_sequence(nbytes,
                                                                link))


def nvme_command_overhead_ps(link: PcieLink = PcieLink()) -> int:
    """Protocol time excluding raw payload movement."""
    total = nvme_command_total_ps(4096, link)
    payload_only = link.data_time_ps(4096)
    return total - payload_only
