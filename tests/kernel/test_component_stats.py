"""Tests for the component hierarchy and statistics accumulators."""

import pytest

from repro.kernel import Component, Simulator
from repro.kernel.stats import Accumulator, UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


class TestComponent:
    def test_path_reflects_hierarchy(self, sim):
        root = Component(sim, "ssd")
        chn = Component(sim, "chn0", parent=root)
        way = Component(sim, "way1", parent=chn)
        assert way.path() == "ssd.chn0.way1"

    def test_children_registered(self, sim):
        root = Component(sim, "ssd")
        child = Component(sim, "host", parent=root)
        assert root.children == {"host": child}

    def test_duplicate_child_rejected(self, sim):
        root = Component(sim, "ssd")
        Component(sim, "host", parent=root)
        with pytest.raises(ValueError):
            Component(sim, "host", parent=root)

    def test_name_validation(self, sim):
        with pytest.raises(ValueError):
            Component(sim, "")
        with pytest.raises(ValueError):
            Component(sim, "a.b")


class TestCounterAccumulator:
    def test_accumulator_stats(self):
        acc = Accumulator()
        for sample in (2.0, 4.0, 6.0):
            acc.add(sample)
        assert acc.count == 3
        assert acc.total == 12.0
        assert acc.mean == pytest.approx(4.0)
        assert acc.maximum == 6.0

    def test_empty_accumulator(self):
        acc = Accumulator()
        assert acc.mean == 0.0


class TestUtilizationTracker:
    def test_busy_window(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 100
            tracker.set_idle()
            yield 100

        sim.process(proc())
        sim.run()
        assert tracker.busy_time() == 100
        assert tracker.utilization() == pytest.approx(0.5)

    def test_idempotent_transitions(self, sim):
        tracker = UtilizationTracker(sim)
        tracker.set_busy()
        tracker.set_busy()
        tracker.set_idle()
        tracker.set_idle()
        assert tracker.busy_time() == 0

    def test_open_interval_counts(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.set_busy()
            yield 100

        sim.process(proc())
        sim.run()
        assert tracker.busy_time() == 100
        assert tracker.utilization() == pytest.approx(1.0)
