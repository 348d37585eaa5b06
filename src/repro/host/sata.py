"""SATA protocol model at FIS granularity.

"All SATA protocol layers and operation timings have been accurately
validated following the SATA protocol timing directives" (paper,
Section III-C1).  This module models the link/transport layers explicitly:
every command is a sequence of **Frames Information Structures** (FIS)
exchanged over the 8b/10b-coded serial link, plus fixed link-layer
primitives (HOLD/HOLDA handshakes, X_RDY/R_RDY arbitration, SYNC escapes).

The NCQ write sequence modeled (per Serial ATA rev 2.6):

    H2D Register FIS (command)      20 B   host -> device
    D2H Register FIS (release)      20 B   device -> host
    DMA Setup FIS                   28 B   device -> host
    n x Data FIS                    4 + up to 8192 B each
    Set Device Bits FIS             8 B    device -> host (completion)

and the NCQ read sequence differs only in data direction.  The function
:func:`ncq_command_overhead_ps` aggregates everything except the raw
payload serialization — exactly the quantity
:class:`~repro.host.interface.HostInterfaceSpec` abstracts as
``command_overhead_ps``, so the abstraction is *derived* here rather than
guessed (and a regression test keeps the two consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: 8b/10b line coding efficiency.
CODING_EFFICIENCY = 0.8

#: FIS sizes in bytes (SATA rev 2.6, incl. 4 B CRC).
FIS_REGISTER_H2D = 20 + 4
FIS_REGISTER_D2H = 20 + 4
FIS_DMA_SETUP = 28 + 4
FIS_SET_DEVICE_BITS = 8 + 4
FIS_DATA_HEADER = 4 + 4
#: Maximum payload of one Data FIS.
DATA_FIS_MAX_PAYLOAD = 8192

#: Link-layer primitives around each frame: X_RDY/R_RDY arbitration,
#: SOF/EOF, WTRM/R_OK handshake — approximated as a byte cost per frame.
PRIMITIVES_PER_FIS = 8 * 4  # eight 4-byte primitives

#: Device firmware/PHY turnaround between protocol phases.
PHASE_TURNAROUND_PS = 80_000  # 80 ns


@dataclass(frozen=True)
class SataLink:
    """One SATA generation's physical link."""

    #: Line rate in gigabits per second (3.0 for SATA II).
    line_rate_gbps: float = 3.0

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0:
            raise ValueError("line_rate_gbps must be positive")

    @property
    def payload_bytes_per_second(self) -> float:
        """Effective payload rate after 8b/10b coding."""
        return self.line_rate_gbps * 1e9 / 8 * CODING_EFFICIENCY

    def serialize_ps(self, nbytes: int) -> int:
        """Time to push ``nbytes`` through the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return int(round(nbytes / self.payload_bytes_per_second * 1e12))

    def fis_time_ps(self, fis_bytes: int) -> int:
        """One FIS including its framing primitives."""
        return self.serialize_ps(fis_bytes + PRIMITIVES_PER_FIS)


def data_fis_count(nbytes: int) -> int:
    """Data FISes needed for a payload."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return max(1, -(-nbytes // DATA_FIS_MAX_PAYLOAD)) if nbytes else 0


def ncq_write_sequence(nbytes: int,
                       link: SataLink = SataLink()) -> List[Tuple[str, int]]:
    """The FIS-by-FIS timeline of one NCQ write; (name, duration_ps)."""
    sequence = [
        ("H2D Register FIS", link.fis_time_ps(FIS_REGISTER_H2D)),
        ("turnaround", PHASE_TURNAROUND_PS),
        ("D2H Register FIS (release)", link.fis_time_ps(FIS_REGISTER_D2H)),
        ("turnaround", PHASE_TURNAROUND_PS),
        ("DMA Setup FIS", link.fis_time_ps(FIS_DMA_SETUP)),
        ("turnaround", PHASE_TURNAROUND_PS),
    ]
    for index in range(data_fis_count(nbytes)):
        chunk = min(DATA_FIS_MAX_PAYLOAD,
                    nbytes - index * DATA_FIS_MAX_PAYLOAD)
        sequence.append((f"Data FIS #{index}",
                         link.fis_time_ps(FIS_DATA_HEADER) +
                         link.serialize_ps(chunk)))
    sequence += [
        ("turnaround", PHASE_TURNAROUND_PS),
        ("Set Device Bits FIS", link.fis_time_ps(FIS_SET_DEVICE_BITS)),
    ]
    return sequence


def ncq_command_total_ps(nbytes: int, link: SataLink = SataLink()) -> int:
    """End-to-end link time of one NCQ command."""
    return sum(duration for __, duration in ncq_write_sequence(nbytes, link))


def ncq_command_overhead_ps(link: SataLink = SataLink()) -> int:
    """Protocol time excluding raw payload serialization.

    This is what the cycle-accurate interface model folds into
    ``command_overhead_ps``; the regression suite checks the folded value
    against this derivation.
    """
    total = ncq_command_total_ps(DATA_FIS_MAX_PAYLOAD, link)
    payload_only = link.serialize_ps(DATA_FIS_MAX_PAYLOAD)
    return total - payload_only


def effective_bandwidth_bps(link: SataLink = SataLink(),
                            block_bytes: int = 4096) -> float:
    """Sustained payload rate for a stream of ``block_bytes`` commands."""
    per_command = ncq_command_total_ps(block_bytes, link)
    return block_bytes / (per_command / 1e12)
