"""Regression tests for the stats/metrics bugfix sweep.

Locks the UtilizationTracker windowed-busy bisect (checked against a
brute-force reference) and the timeline sampled from it.
"""

import random

import pytest

from repro.kernel import Simulator
from repro.kernel.stats import UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


def brute_force_busy(segments, start, end):
    """Reference overlap sum over explicit (start, end) busy segments."""
    busy = 0
    for seg_start, seg_end in segments:
        busy += max(0, min(end, seg_end) - max(start, seg_start))
    return busy


class TestBusyBetweenProperty:
    def drive(self, sim, pattern):
        """Run alternating busy/idle durations; return busy segments."""
        tracker = UtilizationTracker(sim)
        segments = []

        def proc():
            for busy_for, idle_for in pattern:
                seg_start = sim.now
                tracker.set_busy()
                yield busy_for
                tracker.set_idle()
                segments.append((seg_start, sim.now))
                yield idle_for

        sim.process(proc())
        sim.run()
        return tracker, segments

    def test_brute_force_randomized_windows(self, sim):
        rng = random.Random(0xC0FFEE)
        pattern = [(rng.randint(1, 50), rng.randint(0, 30))
                   for __ in range(40)]
        tracker, segments = self.drive(sim, pattern)
        horizon = sim.now
        for __ in range(500):
            a = rng.randint(0, horizon)
            b = rng.randint(0, horizon)
            start, end = min(a, b), max(a, b)
            assert tracker.busy_between(start, end) == \
                brute_force_busy(segments, start, end), (start, end)

    def test_boundaries_inside_straddling_segment(self, sim):
        tracker, segments = self.drive(sim, [(100, 50), (100, 0)])
        # Segments: [0, 100) busy, [100, 150) idle, [150, 250) busy.
        assert tracker.busy_between(30, 70) == 40      # inside one segment
        assert tracker.busy_between(50, 200) == 100    # straddles both
        assert tracker.busy_between(100, 150) == 0     # exactly the idle gap
        assert tracker.busy_between(0, 100) == 100     # exact segment
        assert tracker.busy_between(100, 250) == 100
        assert tracker.busy_between(99, 151) == 2

    def test_zero_and_inverted_windows(self, sim):
        tracker, __ = self.drive(sim, [(100, 0)])
        assert tracker.busy_between(40, 40) == 0
        assert tracker.busy_between(80, 20) == 0

    def test_open_segment_counts(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            yield 50
            tracker.set_busy()
            yield 100  # still busy at the end of the run

        sim.process(proc())
        sim.run()
        assert tracker.busy_between(0, 150) == 100
        assert tracker.busy_between(100, 150) == 50
        assert tracker.busy_between(0, 50) == 0

    def test_timeline_buckets(self, sim):
        tracker, __ = self.drive(sim, [(100, 100)])
        assert sim.now == 200
        assert tracker.timeline(4) == [1.0, 1.0, 0.0, 0.0]
        # No elapsed time: nothing to sample.
        assert UtilizationTracker(Simulator()).timeline(3) == []
        with pytest.raises(ValueError):
            tracker.timeline(buckets=0)
