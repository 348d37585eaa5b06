"""Steady-state preconditioning before trace measurement.

A fresh simulated drive starts with an empty write cache and untouched
flash; measuring a short trace against it reports the out-of-box
transient, not the steady state a deployed drive lives in (the regime
SNIA's SSS-PTS and EagleTree both insist measurements start from).  The
helpers here build a deterministic warm-up stream over the *measured
region* — a sequential fill followed by scattered overwrites — that the
replay harness runs to completion (and discards) before the measured
replay begins.

The warm-up covers the trace's addressed region rather than the whole
device so preconditioning stays proportional to the workload under
study, not to the simulated capacity.
"""

from __future__ import annotations

from typing import List

from ..commands import IoCommand, IoOpcode
from ..workload import CommandListWorkload, xorshift64

PRECONDITION_MODES = ("none", "fill", "steady")


def preconditioning_commands(span_sectors: int, mode: str = "steady",
                             block_bytes: int = 4096,
                             overwrite_fraction: float = 0.25,
                             seed: int = 0x5EED) -> List[IoCommand]:
    """Build the warm-up command stream for a measured region.

    ``fill`` writes the region once, sequentially; ``steady`` follows the
    fill with ``overwrite_fraction`` of the region's blocks rewritten at
    xorshift-random offsets, dirtying the mapping the way an aged drive's
    is.  ``none`` returns an empty list.  Deterministic for a given
    (span, mode, fraction, seed).
    """
    if mode not in PRECONDITION_MODES:
        raise ValueError(f"precondition mode must be one of "
                         f"{PRECONDITION_MODES}, got {mode!r}")
    if span_sectors < 1:
        raise ValueError(f"span_sectors must be >= 1, got {span_sectors}")
    if block_bytes < 512 or block_bytes % 512:
        raise ValueError("block_bytes must be a positive multiple of 512")
    if not 0.0 <= overwrite_fraction <= 1.0:
        raise ValueError(f"overwrite_fraction must be in [0, 1], "
                         f"got {overwrite_fraction}")
    if mode == "none":
        return []
    sectors_per_block = block_bytes // 512
    blocks = max(1, span_sectors // sectors_per_block)
    commands: List[IoCommand] = []
    for index in range(blocks):
        commands.append(IoCommand(IoOpcode.WRITE,
                                  index * sectors_per_block,
                                  sectors_per_block, tag=len(commands)))
    if mode == "steady":
        state = seed or 1
        for __ in range(int(blocks * overwrite_fraction)):
            state = xorshift64(state)
            commands.append(IoCommand(IoOpcode.WRITE,
                                      (state % blocks) * sectors_per_block,
                                      sectors_per_block,
                                      tag=len(commands)))
    return commands


def run_preconditioning(sim, device, span_sectors: int,
                        mode: str = "steady",
                        block_bytes: int = 4096,
                        overwrite_fraction: float = 0.25,
                        seed: int = 0x5EED) -> int:
    """Drive the warm-up stream through ``device`` to completion.

    Runs closed-loop (as fast as the queue admits) and returns the
    number of warm-up commands executed.  The caller measures afterwards
    on the same device; :func:`repro.ssd.metrics.run_workload` computes
    its figures relative to the measurement window, so the warm-up phase
    never pollutes the measured numbers.
    """
    from ...ssd.metrics import run_workload  # deferred: import cycle
    commands = preconditioning_commands(
        span_sectors, mode=mode, block_bytes=block_bytes,
        overwrite_fraction=overwrite_fraction, seed=seed)
    if not commands:
        return 0
    run_workload(sim, device, CommandListWorkload(commands, pattern="random"),
                 label="precondition")
    return len(commands)
