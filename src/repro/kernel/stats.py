"""Statistics primitives.

SSDExplorer's selling point is *performance breakdown*: per-component
utilization, latency distributions and throughput series.  These small
accumulators are deliberately allocation-free on the hot path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount


class Accumulator:
    """Running sum / min / max / mean / variance (Welford) of samples."""

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        if sample < self.minimum:
            self.minimum = sample
        if sample > self.maximum:
            self.maximum = sample
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class LatencyHistogram:
    """Log-spaced histogram with constant *relative* resolution.

    A linear-bin histogram trades tail resolution for range: a
    ``bin_width`` fine enough to resolve a 100 us median caps out at
    ``max_bins * bin_width`` and everything past it collapses into the
    overflow bucket, so p99.9/p99.99 of a long-tailed latency
    distribution degrade to ``inf``; widening the bins to reach the tail
    instead flattens the body into one bucket and misreports the median.
    This variant bins on a base-2 log scale — ``bins_per_octave``
    sub-bins per power of two — so every quantile resolves to within a
    relative error of ``1 / bins_per_octave`` over the entire positive
    float range, with no overflow bucket at all.

    Binning uses :func:`math.frexp` and exact dyadic arithmetic (no
    ``log``), so bin indices and edges are bit-identical across
    platforms — the golden tier depends on that.
    """

    __slots__ = ("bins_per_octave", "bins", "count", "zeros")

    def __init__(self, bins_per_octave: int = 8):
        if bins_per_octave < 1:
            raise ValueError(f"bins_per_octave must be >= 1, "
                             f"got {bins_per_octave}")
        self.bins_per_octave = bins_per_octave
        self.bins: Dict[int, int] = {}
        self.count = 0
        #: Zero-valued samples get their own bucket (log bins cannot
        #: represent 0; a zero-latency completion is still a sample).
        self.zeros = 0

    @property
    def relative_error(self) -> float:
        """Worst-case relative overstatement of any percentile.

        Sub-bins are spaced *linearly* inside each octave, so the widest
        relative step is an octave's first sub-bin:
        ``(0.5 + 1/(2B)) / 0.5 - 1 == 1 / B``.  (A geometric spacing
        would give ``2 ** (1/B) - 1``, but linear spacing keeps the edge
        arithmetic exactly dyadic — the cross-platform bit-identity the
        golden tier depends on.)
        """
        return 1.0 / self.bins_per_octave

    def add(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"latency samples must be >= 0, got {sample}")
        self.count += 1
        if sample == 0:
            self.zeros += 1
            return
        mantissa, exponent = math.frexp(sample)   # sample = m * 2**e
        # m in [0.5, 1): m - 0.5 is exact (Sterbenz), the scale by
        # 2 * bins_per_octave is clamped against a half-ulp round-up.
        sub = min(int((mantissa - 0.5) * 2 * self.bins_per_octave),
                  self.bins_per_octave - 1)
        key = exponent * self.bins_per_octave + sub
        self.bins[key] = self.bins.get(key, 0) + 1

    def _edge(self, key: int, upper: bool = True) -> float:
        exponent, sub = divmod(key, self.bins_per_octave)
        fraction = 0.5 + (sub + (1 if upper else 0)) \
            / (2 * self.bins_per_octave)
        return math.ldexp(fraction, exponent)

    def percentile(self, fraction: float) -> float:
        """Upper edge of the bin containing the given quantile.

        ``fraction == 0.0`` is the distribution minimum and returns the
        *lower* edge of the first occupied bin.  The result is always
        finite — there is no overflow bucket.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        if fraction == 0.0:
            if self.zeros:
                return 0.0
            return self._edge(min(self.bins), upper=False)
        target = fraction * self.count
        seen = self.zeros
        if self.zeros and seen >= target:
            return 0.0
        for key in sorted(self.bins):
            seen += self.bins[key]
            if seen >= target:
                return self._edge(key)
        return self._edge(max(self.bins)) if self.bins else 0.0


class UtilizationTracker:
    """Time-weighted busy/idle tracker for a single unit.

    Completed busy segments are kept as two parallel arrays — segment end
    times and the cumulative busy total after each segment — so windowed
    queries (``utilization(since=...)``) can subtract the busy time that
    fell *before* the window instead of counting it against the window.
    The hot path (``set_busy``/``set_idle``) stays append-only.
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

    def timeline(self, buckets: int = 60, start: int = 0,
                 end: Optional[int] = None) -> List[float]:
        """Busy fraction sampled over ``buckets`` equal windows.

        Covers ``[start, end]`` (``end`` defaults to the current sim
        time, and is clamped to it — an open busy segment cannot extend
        into the future).  Bucket boundaries are computed in integer
        picoseconds; the last bucket absorbs the rounding remainder.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        now = self.sim.now
        end = now if end is None else min(end, now)
        span = end - start
        if span <= 0:
            return []
        width = span // buckets
        if width == 0:
            buckets = span  # fewer, 1 ps wide
            width = 1
        out: List[float] = []
        for index in range(buckets):
            lo = start + index * width
            hi = end if index == buckets - 1 else lo + width
            out.append(self.busy_between(lo, hi) / (hi - lo))
        return out

    def busy_time(self, since: int = 0) -> int:
        """Total busy time within ``[since, now]``."""
        accum = self._accum
        if self._busy_since is not None:
            accum += self.sim.now - self._busy_since
        if since <= 0:
            return accum
        return accum - self._busy_before(since)

    def utilization(self, since: int = 0) -> float:
        """Busy fraction of the window from ``since`` to now.

        Only busy time that falls inside the window counts, so a unit that
        was saturated before ``since`` and idle after reports 0.0 — not the
        clamped carry-over the pre-fix implementation produced.
        """
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time(since) / elapsed


class ThroughputMeter:
    """Counts bytes and reports MB/s over the observed window."""

    __slots__ = ("sim", "bytes_total", "first_ps", "last_ps", "ops")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.bytes_total = 0
        self.ops = 0
        self.first_ps: Optional[int] = None
        self.last_ps: Optional[int] = None

    def record(self, nbytes: int) -> None:
        now = self.sim.now
        if self.first_ps is None:
            self.first_ps = now
        self.last_ps = now
        self.bytes_total += nbytes
        self.ops += 1

    def _default_window(self, from_zero: bool = False) -> Optional[int]:
        """The observed window ``[first_ps, last_ps]`` (idle ends excluded).

        The pre-fix default ran from t=0 to the last sample, so idle
        warm-up before the first I/O silently deflated MB/s and IOPS
        (``first_ps`` was recorded but never read).  ``from_zero=True``
        restores the old window for callers that want absolute-time
        figures (paper-figure parity).

        ``last_ps`` is compared against ``None`` explicitly: a sample
        recorded at t=0 is a legitimate observation, not "no window" (an
        even older ``last_ps or 0`` conflated the two and reported 0.0
        throughput despite recorded bytes).  A degenerate zero-width
        window (a single sample, or every sample at the same instant)
        falls back to the time elapsed since the window started.
        """
        if self.last_ps is None:
            return None
        if from_zero:
            if self.last_ps == 0:
                return self.sim.now
            return self.last_ps
        window = self.last_ps - self.first_ps
        if window == 0:
            return self.sim.now - self.first_ps
        return window

    def megabytes_per_second(self, window_ps: Optional[int] = None,
                             from_zero: bool = False) -> float:
        """Throughput in MB/s (10^6 bytes, as the paper's figures use).

        ``window_ps`` overrides the measurement window; by default the
        window runs from the first to the last recorded sample, so
        neither the idle warm-up head nor the idle tail dilutes the
        figure.  ``from_zero=True`` measures from t=0 instead.
        """
        if self.bytes_total == 0:
            return 0.0
        window = window_ps if window_ps is not None \
            else self._default_window(from_zero)
        if window is None or window <= 0:
            return 0.0
        seconds = window / 1e12
        return self.bytes_total / 1e6 / seconds

    def iops(self, window_ps: Optional[int] = None,
             from_zero: bool = False) -> float:
        """Operations per second over the same window."""
        if self.ops == 0:
            return 0.0
        window = window_ps if window_ps is not None \
            else self._default_window(from_zero)
        if window is None or window <= 0:
            return 0.0
        return self.ops / (window / 1e12)


class StatSet:
    """A named bag of statistics owned by a component."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.accumulators: Dict[str, Accumulator] = {}
        self.utilizations: Dict[str, UtilizationTracker] = {}
        self.meters: Dict[str, ThroughputMeter] = {}

    def counter(self, name: str) -> Counter:
        stat = self.counters.get(name)
        if stat is None:
            stat = self.counters[name] = Counter()
        return stat

    def accumulator(self, name: str) -> Accumulator:
        stat = self.accumulators.get(name)
        if stat is None:
            stat = self.accumulators[name] = Accumulator()
        return stat

    def utilization(self, name: str) -> UtilizationTracker:
        stat = self.utilizations.get(name)
        if stat is None:
            stat = self.utilizations[name] = UtilizationTracker(self.sim)
        return stat

    def meter(self, name: str) -> ThroughputMeter:
        stat = self.meters.get(name)
        if stat is None:
            stat = self.meters[name] = ThroughputMeter(self.sim)
        return stat

    def snapshot(self) -> Dict[str, float]:
        """Flatten all stats into a plain dict for reporting."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[f"{name}.count"] = counter.value
        for name, acc in self.accumulators.items():
            if acc.count:
                out[f"{name}.mean"] = acc.mean
                out[f"{name}.max"] = acc.maximum
                out[f"{name}.n"] = acc.count
        for name, util in self.utilizations.items():
            out[f"{name}.utilization"] = util.utilization()
        for name, meter in self.meters.items():
            if meter.ops:
                out[f"{name}.mbps"] = meter.megabytes_per_second()
                out[f"{name}.ops"] = meter.ops
        return out
