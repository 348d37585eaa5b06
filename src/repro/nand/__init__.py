"""Cycle-accurate NAND flash memory subsystem.

Implements the die/plane/block/page hierarchy, MLC timing variation
(tPROG 900 us – 3 ms, tREAD 60 us, tBERS 1 – 10 ms), the shared ONFI channel
bus, and the wear-out / RBER model that drives the ECC experiments.
"""

from .die import NandDie, NandProtocolError
from .geometry import DEFAULT_GEOMETRY, NandGeometry, PageAddress
from .onfi import OnfiChannel, OnfiTiming
from .timing import DEFAULT_TIMING, MlcTimingModel
from .wear import (DEFAULT_WEAR, ENDURANCE_SLACK, BlockWearState,
                   EnduranceWarning, WearModel)

__all__ = [
    "DEFAULT_GEOMETRY", "DEFAULT_TIMING", "DEFAULT_WEAR", "BlockWearState",
    "ENDURANCE_SLACK", "EnduranceWarning", "MlcTimingModel", "NandDie",
    "NandGeometry", "NandProtocolError", "OnfiChannel", "OnfiTiming",
    "PageAddress", "WearModel",
]
