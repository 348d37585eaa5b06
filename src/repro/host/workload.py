"""IOZone-like synthetic workload generation.

The paper validates against "standard IOZone synthetic benchmarks": a
sequential and a random write/read workload with a block size of 4 KB.
:class:`Workload` generates exactly those command streams,
deterministically (xorshift PRNG), over a configurable logical span.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

from .commands import IoCommand, IoOpcode, SECTOR_BYTES

_MASK64 = 0xFFFFFFFFFFFFFFFF


def xorshift64(state: int) -> int:
    """One step of the 64-bit xorshift (13, 7, 17) generator.

    Every seeded host stream (the IOZone generators, the mixed and
    app-shaped workloads, steady preconditioning) draws from it.
    """
    state ^= (state << 13) & _MASK64
    state ^= state >> 7
    state ^= (state << 17) & _MASK64
    return state


class AccessPattern(enum.Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True)
class Workload:
    """A synthetic command stream description.

    ``span_bytes`` is the logical region exercised (the IOZone file size);
    random workloads pick 4 KiB-aligned offsets uniformly inside it.
    """

    pattern: AccessPattern
    opcode: IoOpcode
    total_bytes: int
    block_bytes: int = 4096
    span_bytes: int = 1 << 30
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if self.block_bytes < SECTOR_BYTES or self.block_bytes % SECTOR_BYTES:
            raise ValueError(
                f"block_bytes must be a positive multiple of {SECTOR_BYTES}")
        if self.total_bytes < self.block_bytes:
            raise ValueError("total_bytes must cover at least one block")
        if self.span_bytes < self.block_bytes:
            raise ValueError("span_bytes must cover at least one block")

    @property
    def n_commands(self) -> int:
        return self.total_bytes // self.block_bytes

    @property
    def pattern_name(self) -> str:
        """'sequential' or 'random' — the key the WAF model expects."""
        return self.pattern.value

    def commands(self) -> Iterator[IoCommand]:
        """Yield the command stream."""
        sectors_per_block = self.block_bytes // SECTOR_BYTES
        blocks_in_span = self.span_bytes // self.block_bytes
        state = self.seed or 1
        for tag in range(self.n_commands):
            if self.pattern is AccessPattern.SEQUENTIAL:
                block_index = tag % blocks_in_span
            else:
                state = xorshift64(state)
                block_index = state % blocks_in_span
            yield IoCommand(self.opcode, block_index * sectors_per_block,
                            sectors_per_block, tag=tag)

    def to_list(self) -> List[IoCommand]:
        return list(self.commands())


def sequential_write(total_bytes: int, block_bytes: int = 4096,
                     **kwargs) -> Workload:
    """IOZone 'write' phase."""
    return Workload(AccessPattern.SEQUENTIAL, IoOpcode.WRITE, total_bytes,
                    block_bytes, **kwargs)


def sequential_read(total_bytes: int, block_bytes: int = 4096,
                    **kwargs) -> Workload:
    """IOZone 'read' phase."""
    return Workload(AccessPattern.SEQUENTIAL, IoOpcode.READ, total_bytes,
                    block_bytes, **kwargs)


def random_write(total_bytes: int, block_bytes: int = 4096,
                 **kwargs) -> Workload:
    """IOZone 'random write' phase."""
    return Workload(AccessPattern.RANDOM, IoOpcode.WRITE, total_bytes,
                    block_bytes, **kwargs)


def random_read(total_bytes: int, block_bytes: int = 4096,
                **kwargs) -> Workload:
    """IOZone 'random read' phase."""
    return Workload(AccessPattern.RANDOM, IoOpcode.READ, total_bytes,
                    block_bytes, **kwargs)


IOZONE_SUITE = {
    "SW": sequential_write,
    "SR": sequential_read,
    "RW": random_write,
    "RR": random_read,
}


def mixed_workload(total_bytes: int, read_fraction: float = 0.7,
                   block_bytes: int = 4096, span_bytes: int = 1 << 30,
                   seed: int = 0xBEEF) -> "CommandListWorkload":
    """A random read/write mix (e.g. the classic 70/30 OLTP profile).

    Deterministic: the opcode and offset streams derive from ``seed``.
    The WAF pattern is ``random`` (the write portion is scattered).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], "
                         f"got {read_fraction}")
    sectors_per_block = block_bytes // SECTOR_BYTES
    blocks_in_span = span_bytes // block_bytes
    n_commands = total_bytes // block_bytes
    if n_commands < 1:
        raise ValueError("total_bytes must cover at least one block")
    commands: List[IoCommand] = []
    state = seed or 1
    for tag in range(n_commands):
        state = xorshift64(state)
        opcode = (IoOpcode.READ
                  if (state & 0xFFFF) / 65536.0 < read_fraction
                  else IoOpcode.WRITE)
        block_index = (state >> 16) % blocks_in_span
        commands.append(IoCommand(opcode, block_index * sectors_per_block,
                                  sectors_per_block, tag=tag))
    return CommandListWorkload(commands, pattern="random")


def timed_workload(rate_iops: float, duration_s: float,
                   read_fraction: float = 0.5, block_bytes: int = 4096,
                   span_bytes: int = 1 << 30,
                   seed: int = 0xFEED) -> "CommandListWorkload":
    """An open-loop arrival stream: commands carry issue times at a fixed
    rate (replay with ``honor_issue_times=True``).

    This is the "complete virtual platform environment" direction the
    paper's conclusion points at — a host-side application model feeding
    the SSD, rather than a saturating closed loop.
    """
    if rate_iops <= 0 or duration_s <= 0:
        raise ValueError("rate_iops and duration_s must be positive")
    n_commands = max(1, int(rate_iops * duration_s))
    interval_ps = int(1e12 / rate_iops)
    base = mixed_workload(block_bytes * n_commands, read_fraction,
                          block_bytes, span_bytes, seed)
    commands = base.to_list()
    for index, command in enumerate(commands):
        command.issue_time_ps = index * interval_ps
    return CommandListWorkload(commands, pattern="random")


class CommandListWorkload:
    """Adapts an explicit command list (e.g. a parsed trace) to the
    workload interface the runner expects.

    ``pattern`` feeds the WAF model; pick ``"random"`` for scattered
    traces, ``"sequential"`` otherwise.
    """

    def __init__(self, commands: List[IoCommand],
                 pattern: str = "sequential"):
        if pattern not in ("sequential", "random"):
            raise ValueError(f"pattern must be sequential/random, "
                             f"got {pattern!r}")
        self._commands = list(commands)
        if not self._commands:
            raise ValueError("command list must not be empty")
        self.pattern_name = pattern
        self.opcode = self._commands[0].opcode
        self.block_bytes = self._commands[0].nbytes

    @property
    def n_commands(self) -> int:
        return len(self._commands)

    @property
    def total_bytes(self) -> int:
        return sum(command.nbytes for command in self._commands)

    def commands(self) -> Iterator[IoCommand]:
        return iter(self._commands)

    def to_list(self) -> List[IoCommand]:
        return list(self._commands)
