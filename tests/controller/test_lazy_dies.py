"""Dies of a channel controller are built on first use."""

import pytest

from repro.controller import ChannelWayController
from repro.ecc import FixedBch
from repro.faults import FaultConfig, FaultPlan
from repro.kernel import Component, Simulator
from repro.nand import (MlcTimingModel, NandGeometry, OnfiTiming,
                        PageAddress, WearModel)

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)


@pytest.fixture
def sim():
    return Simulator()


def make_controller(sim, n_ways=2, dies_per_way=3, parent=None):
    return ChannelWayController(
        sim, "chn3", n_ways, dies_per_way, GEO, MlcTimingModel(),
        WearModel(), OnfiTiming.asynchronous(), FixedBch(t=8),
        parent=parent)


def built(controller):
    return [die.name for die in controller.built_dies()]


class TestFirstUse:
    def test_construction_builds_no_die(self, sim):
        controller = make_controller(sim)
        assert controller.built_dies() == []
        assert not any(name.startswith("way")
                       for name in controller.children)

    def test_die_builds_once_and_returns_same_object(self, sim):
        controller = make_controller(sim)
        die = controller.die(1, 2)
        assert built(controller) == ["way1_die2"]
        assert controller.die(1, 2) is die
        assert built(controller) == ["way1_die2"]
        assert controller.children["way1_die2"] is die

    @pytest.mark.parametrize("way, die_index", [(-1, 0), (2, 0), (0, -1),
                                                (0, 3)])
    def test_out_of_range_raises_and_builds_nothing(self, sim, way,
                                                    die_index):
        controller = make_controller(sim)
        with pytest.raises(ValueError, match="out of range"):
            controller.die(way, die_index)
        assert controller.built_dies() == []

    def test_page_operation_builds_only_its_die(self, sim):
        controller = make_controller(sim)
        sim.run(until=sim.process(
            controller.program_page(1, 0, PageAddress(0, 0, 0))))
        assert built(controller) == ["way1_die0"]


class TestDiesGrid:
    def test_dies_builds_all_in_way_die_order(self, sim):
        root = Component(sim, "ssd")
        controller = make_controller(sim, parent=root)
        early = controller.die(1, 1)
        grid = controller.dies
        assert [[die.name for die in way] for way in grid] == [
            ["way0_die0", "way0_die1", "way0_die2"],
            ["way1_die0", "way1_die1", "way1_die2"]]
        assert grid[1][1] is early
        assert built(controller) == [die.name for way in grid
                                     for die in way]
        assert grid[1][0].path() == "ssd.chn3.way1_die0"
        assert controller.dies[0][2] is grid[0][2]

    def test_built_dies_in_way_die_order_not_build_order(self, sim):
        controller = make_controller(sim)
        for way, die_index in ((1, 2), (0, 1), (1, 0)):
            controller.die(way, die_index)
        assert built(controller) == ["way0_die1", "way1_die0", "way1_die2"]


class TestDeferredSettings:
    def plan(self):
        return FaultPlan(FaultConfig(enabled=True, seed=7),
                         seed_material="lazy")

    def test_die_built_later_carries_fault_plan(self, sim):
        controller = make_controller(sim, parent=Component(sim, "ssd"))
        plan = self.plan()
        early = controller.die(0, 1)
        controller.set_fault_plan(plan)
        assert early.fault_plan is plan
        assert early._fault_id == "ssd.chn3.way0_die1"
        for way in range(2):
            for die_index in range(3):
                die = controller.die(way, die_index)
                assert die.fault_plan is plan
                # The draw key a die set up before the plan arrived
                # would carry, i.e. its full path.
                assert die._fault_id == die.path() == \
                    f"ssd.chn3.way{way}_die{die_index}"

    def test_die_built_later_carries_preload(self, sim):
        controller = make_controller(sim)
        early = controller.die(0, 0)
        early.preload_block(0, 5, 3)
        controller.preload_all()
        late = controller.die(1, 2)
        full = GEO.pages_per_block
        assert late.write_pointer(0, 0) == full
        assert late.write_pointer(0, 63) == full
        assert early.write_pointer(0, 0) == full
        assert early.write_pointer(0, 5) == 3

    def test_unset_controller_builds_fresh_dies(self, sim):
        die = make_controller(sim).die(0, 0)
        assert die.fault_plan is None
        assert die.write_pointer(0, 0) == 0


class TestMeanDieUtilization:
    def test_bit_identical_to_all_dies_sum(self, sim):
        controller = make_controller(sim, n_ways=4, dies_per_way=4)

        def flow():
            for way, die_index, block in ((0, 1, 0), (2, 3, 1), (0, 1, 2),
                                          (3, 0, 3)):
                yield sim.process(controller.program_page(
                    way, die_index, PageAddress(0, block, 0)))
            yield sim.process(controller.erase_block(2, 3, 0, 1))
            yield sim.timeout(12_345_678)

        sim.run(until=sim.process(flow()))
        assert len(controller.built_dies()) == 3
        lazy = controller.mean_die_utilization()
        assert 0.0 < lazy < 1.0
        assert len(controller.built_dies()) == 3
        # The reference sums every die in (way, die) order, unbuilt ones
        # (never busy) included.
        reference = sum(die.utilization()
                        for way in controller.dies for die in way)
        assert lazy == reference / controller.total_dies
        assert lazy.hex() == (reference / controller.total_dies).hex()

    def test_nothing_built_is_zero(self, sim):
        controller = make_controller(sim)
        assert controller.mean_die_utilization() == 0.0
        assert controller.built_dies() == []
