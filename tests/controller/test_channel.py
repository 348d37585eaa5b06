"""Tests for the channel/way controller and gang schemes."""

import pytest

from repro.controller import ChannelWayController, GangScheme
from repro.ecc import FixedBch
from repro.kernel import Simulator
from repro.kernel.simtime import ms, us
from repro.nand import (MlcTimingModel, NandGeometry, OnfiTiming,
                        PageAddress, WearModel)

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)


@pytest.fixture
def sim():
    return Simulator()


def make_controller(sim, n_ways=2, dies_per_way=2, scheme=GangScheme.SHARED_BUS,
                    ecc=None, **kwargs):
    return ChannelWayController(
        sim, "chn0", n_ways, dies_per_way, GEO, MlcTimingModel(),
        WearModel(), OnfiTiming.asynchronous(), ecc or FixedBch(t=8),
        gang_scheme=scheme, **kwargs)


class TestBasicOperations:
    def test_program_takes_transfer_plus_array_time(self, sim):
        controller = make_controller(sim)
        elapsed = sim.run(until=sim.process(
            controller.program_page(0, 0, PageAddress(0, 0, 0))))
        # Lower bound: ONFI data-in of 4320 bytes at 33 MB/s (~130 us)
        # plus fast-corner tPROG (900 us).
        assert elapsed > us(1000)
        assert elapsed < ms(4)

    def test_read_returns_elapsed(self, sim):
        controller = make_controller(sim)

        def flow():
            yield sim.process(controller.program_page(0, 0,
                                                      PageAddress(0, 0, 0)))
            elapsed = yield sim.process(controller.read_page(
                0, 0, PageAddress(0, 0, 0)))
            return elapsed

        elapsed = sim.run(until=sim.process(flow()))
        # tREAD (60us) + transfer (~130us) + decode.
        assert elapsed > us(190)

    def test_erase_block(self, sim):
        controller = make_controller(sim)
        elapsed = sim.run(until=sim.process(
            controller.erase_block(0, 0, 0, 0)))
        assert elapsed >= ms(1)
        assert controller.die(0, 0).pe_cycles(0, 0) == 1

    def test_die_indexing(self, sim):
        controller = make_controller(sim, n_ways=2, dies_per_way=3)
        assert controller.total_dies == 6
        with pytest.raises(ValueError):
            controller.die(2, 0)
        with pytest.raises(ValueError):
            controller.die(0, 3)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            make_controller(sim, dies_per_way=0)
        with pytest.raises(ValueError):
            make_controller(sim, sram_page_slots=0)


class TestParallelism:
    def test_array_time_overlaps_across_dies(self, sim):
        """Two programs to different dies: transfers serialize on the
        shared bus but tPROGs overlap, so total time is far below 2x."""
        controller = make_controller(sim, n_ways=2, dies_per_way=1)
        single = Simulator()
        lone = make_controller(single, n_ways=2, dies_per_way=1)
        single.run(until=single.process(
            lone.program_page(0, 0, PageAddress(0, 0, 0))))
        one_page = single.now

        def flow():
            a = sim.process(controller.program_page(0, 0,
                                                    PageAddress(0, 0, 0)))
            b = sim.process(controller.program_page(1, 0,
                                                    PageAddress(0, 0, 0)))
            yield sim.all_of([a, b])

        sim.run(until=sim.process(flow()))
        assert sim.now < 1.5 * one_page

    def test_same_die_serializes(self, sim):
        controller = make_controller(sim, n_ways=1, dies_per_way=1)

        def flow():
            a = sim.process(controller.program_page(0, 0,
                                                    PageAddress(0, 0, 0)))
            b = sim.process(controller.program_page(0, 0,
                                                    PageAddress(0, 0, 1)))
            yield sim.all_of([a, b])

        sim.run(until=sim.process(flow()))
        # Two full program times back-to-back (no overlap possible).
        assert sim.now > 2 * us(900)

    def test_shared_control_gang_parallel_transfers(self, sim):
        """Shared-control gang has per-way data paths: two simultaneous
        programs to different ways finish sooner than on a shared bus."""
        shared_bus_sim = Simulator()
        shared_bus = make_controller(shared_bus_sim,
                                     scheme=GangScheme.SHARED_BUS)
        control_sim = Simulator()
        shared_control = make_controller(control_sim,
                                         scheme=GangScheme.SHARED_CONTROL)

        def both(controller, sim_):
            def flow():
                a = sim_.process(controller.program_page(
                    0, 0, PageAddress(0, 0, 0)))
                b = sim_.process(controller.program_page(
                    1, 0, PageAddress(0, 0, 0)))
                yield sim_.all_of([a, b])
            sim_.run(until=sim_.process(flow()))
            return sim_.now

        bus_time = both(shared_bus, shared_bus_sim)
        control_time = both(shared_control, control_sim)
        assert control_time < bus_time

    def test_sram_slots_backpressure(self, sim):
        """With a single SRAM slot, page staging serializes even across
        ways of a shared-control gang."""
        controller = make_controller(sim, scheme=GangScheme.SHARED_CONTROL,
                                     sram_page_slots=1)
        wide = Simulator()
        roomy = make_controller(wide, scheme=GangScheme.SHARED_CONTROL,
                                sram_page_slots=8)

        def run_pair(ctl, sim_):
            def flow():
                a = sim_.process(ctl.program_page(0, 0, PageAddress(0, 0, 0)))
                b = sim_.process(ctl.program_page(1, 0, PageAddress(0, 0, 0)))
                yield sim_.all_of([a, b])
            sim_.run(until=sim_.process(flow()))
            return sim_.now

        tight_time = run_pair(controller, sim)
        roomy_time = run_pair(roomy, wide)
        assert tight_time > roomy_time


class TestEccIntegration:
    def test_wear_raises_read_time_with_adaptive_ecc(self):
        """Reads from worn blocks pay larger decode latency."""
        from repro.ecc import AdaptiveBch
        fresh_sim = Simulator()
        fresh = make_controller(fresh_sim, ecc=AdaptiveBch(),
                                initial_pe_cycles=0)
        worn_sim = Simulator()
        worn = make_controller(worn_sim, ecc=AdaptiveBch(),
                               initial_pe_cycles=3000)

        def read_one(ctl, sim_):
            def flow():
                yield sim_.process(ctl.program_page(0, 0,
                                                    PageAddress(0, 0, 0)))
                elapsed = yield sim_.process(ctl.read_page(
                    0, 0, PageAddress(0, 0, 0)))
                return elapsed
            return sim_.run(until=sim_.process(flow()))

        assert read_one(worn, worn_sim) > read_one(fresh, fresh_sim)

    def test_fixed_ecc_read_time_wear_independent(self):
        sims = [Simulator(), Simulator()]
        times = []
        for sim_, pe in zip(sims, (0, 3000)):
            ctl = make_controller(sim_, ecc=FixedBch(t=40),
                                  initial_pe_cycles=pe)

            def flow(ctl=ctl, sim_=sim_):
                yield sim_.process(ctl.program_page(0, 0,
                                                    PageAddress(0, 0, 0)))
                elapsed = yield sim_.process(ctl.read_page(
                    0, 0, PageAddress(0, 0, 0)))
                return elapsed

            times.append(sim_.run(until=sim_.process(flow())))
        assert times[0] == times[1]

    def test_stats_counters(self, sim):
        controller = make_controller(sim)

        def flow():
            yield sim.process(controller.program_page(0, 0,
                                                      PageAddress(0, 0, 0)))
            yield sim.process(controller.read_page(0, 0,
                                                   PageAddress(0, 0, 0)))
            yield sim.process(controller.erase_block(0, 0, 0, 0))

        sim.run(until=sim.process(flow()))
        assert controller.programs == 1
        assert controller.reads == 1
        assert controller.erases == 1
