"""Statistics primitives.

SSDExplorer's selling point is *performance breakdown*.  Event and byte
counts are plain int attributes of their components; this module holds
the rest of what a report reads: per-unit busy time
(``RunResult.utilizations`` and the profile's utilization sparklines)
and the span recorder's per-stage accumulators.  Both are
allocation-free on the hot path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Accumulator:
    """Running count / sum / max / mean (Welford update) of samples."""

    __slots__ = ("count", "total", "maximum", "_mean")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum = -math.inf
        self._mean = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        if sample > self.maximum:
            self.maximum = sample
        delta = sample - self._mean
        self._mean += delta / self.count

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0


class UtilizationTracker:
    """Time-weighted busy/idle tracker for a single unit.

    Completed busy segments are kept as two parallel arrays — segment end
    times and the cumulative busy total after each segment — so
    :meth:`busy_between` can apportion the busy time of any window, even
    one whose boundaries fall inside segments.  The hot path
    (``set_busy``/``set_idle``) stays append-only.
    """

    __slots__ = ("sim", "_busy_since", "_accum", "_ends", "_cum")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._busy_since: Optional[int] = None
        self._accum = 0
        self._ends: List[int] = []
        self._cum: List[int] = []

    def set_busy(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.sim.now

    def set_idle(self) -> None:
        if self._busy_since is not None:
            span = self.sim.now - self._busy_since
            self._busy_since = None
            if span:
                self._accum += span
                self._ends.append(self.sim.now)
                self._cum.append(self._accum)

    def _busy_before(self, when: int) -> int:
        """Busy time accumulated strictly before sim time ``when``."""
        index = bisect_right(self._ends, when)
        busy = self._cum[index - 1] if index else 0
        if index < len(self._ends):
            # The next segment may straddle `when`.
            segment = self._cum[index] - busy
            start = self._ends[index] - segment
            if start < when:
                busy += when - start
        if self._busy_since is not None and self._busy_since < when:
            busy += when - self._busy_since
        return busy

    def busy_between(self, start: int, end: int) -> int:
        """Busy time that falls inside the window ``[start, end)``.

        Both boundaries may land inside segments (completed or still
        open); the straddling portions are apportioned exactly.
        """
        if end <= start:
            return 0
        return self._busy_before(end) - self._busy_before(start)

    def timeline(self, buckets: int = 60) -> List[float]:
        """Busy fraction sampled over ``buckets`` equal windows of
        ``[0, now]``.

        Bucket boundaries are computed in integer picoseconds; the last
        bucket absorbs the rounding remainder.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        end = self.sim.now
        if end <= 0:
            return []
        width = end // buckets
        if width == 0:
            buckets = end  # fewer, 1 ps wide
            width = 1
        out: List[float] = []
        for index in range(buckets):
            lo = index * width
            hi = end if index == buckets - 1 else lo + width
            out.append(self.busy_between(lo, hi) / (hi - lo))
        return out

    def busy_time(self) -> int:
        """Total busy time up to now."""
        accum = self._accum
        if self._busy_since is not None:
            accum += self.sim.now - self._busy_since
        return accum

    def utilization(self) -> float:
        """Busy fraction of the elapsed sim time."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        return self.busy_time() / now
