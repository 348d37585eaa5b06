"""Tests for multi-plane NAND operations and cache programming."""

import pytest

from repro.controller import ChannelWayController, GangScheme
from repro.ecc import FixedBch
from repro.kernel import Simulator
from repro.kernel.simtime import ms, us
from repro.nand import (MlcTimingModel, NandDie, NandGeometry,
                        NandProtocolError, OnfiTiming, PageAddress,
                        WearModel)

GEO = NandGeometry(planes_per_die=2, blocks_per_plane=8, pages_per_block=8,
                   page_bytes=4096, spare_bytes=224)


@pytest.fixture
def sim():
    return Simulator()


def make_die(sim):
    return NandDie(sim, "die0", GEO, MlcTimingModel(), WearModel())


class TestMultiplaneProgram:
    def test_cheaper_than_two_singles(self, sim):
        die = make_die(sim)
        addresses = [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]
        duration = sim.run(until=sim.process(
            die.program_multiplane(addresses)))
        # max(tPROG) + overhead, far below the 2x of serial programs.
        assert duration < ms(3.5)
        assert die.write_pointer(0, 0) == 1
        assert die.write_pointer(1, 0) == 1

    def test_counts_programs_per_plane(self, sim):
        die = make_die(sim)
        sim.run(until=sim.process(die.program_multiplane(
            [PageAddress(0, 0, 0), PageAddress(1, 0, 0)])))
        assert die.stats.counter("programs").value == 2
        assert die.stats.counter("multiplane_programs").value == 1

    def test_rejects_same_plane(self, sim):
        die = make_die(sim)
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0), PageAddress(0, 1, 0)])))

    def test_rejects_mismatched_page_offset(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.process(die.program_multiplane(
                [PageAddress(0, 0, 1), PageAddress(1, 0, 0)]))

        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(flow()))

    def test_sequential_rule_enforced_per_plane(self, sim):
        die = make_die(sim)
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program_multiplane(
                [PageAddress(0, 0, 1), PageAddress(1, 0, 1)])))

    def test_needs_two_addresses(self, sim):
        die = make_die(sim)
        with pytest.raises(ValueError):
            sim.run(until=sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0)])))


class TestMultiplaneReadErase:
    def test_read_returns_rber_per_plane(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
            rbers = yield sim.process(die.read_multiplane(
                [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
            return rbers

        rbers = sim.run(until=sim.process(flow()))
        assert len(rbers) == 2

    def test_read_time_near_single(self, sim):
        die = make_die(sim)
        duration_event = sim.process(die.read_multiplane(
            [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
        sim.run(until=duration_event)
        assert sim.now < us(65)  # tREAD + 2us overhead vs 2 x tREAD

    def test_erase_resets_both_planes(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
            yield sim.process(die.erase_multiplane([(0, 0), (1, 0)]))

        sim.run(until=sim.process(flow()))
        assert die.write_pointer(0, 0) == 0
        assert die.write_pointer(1, 0) == 0
        assert die.pe_cycles(0, 0) == 1
        assert die.pe_cycles(1, 0) == 1

    def test_erase_validation(self, sim):
        die = make_die(sim)
        with pytest.raises(ValueError):
            sim.run(until=sim.process(die.erase_multiplane([(0, 0)])))
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.erase_multiplane(
                [(0, 0), (0, 1)])))


class TestMultiplaneSharesSinglePlaneChecks:
    """Multi-plane commands see the same write pointers as single-plane
    ones, including the O(1) fully-programmed default of preload_all()."""

    def test_program_rejects_page_zero_of_a_preloaded_block(self, sim):
        die = make_die(sim)
        die.preload_all()
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0), PageAddress(1, 0, 0)])))
        # The single-plane program rejects the same command.
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program(PageAddress(0, 0, 0))))
        assert die.write_pointer(0, 0) == GEO.pages_per_block
        assert die.write_pointer(1, 0) == GEO.pages_per_block
        assert die.stats.counter("programs").value == 0

    def test_erase_reopens_preloaded_blocks(self, sim):
        die = make_die(sim)
        die.preload_all()

        def flow():
            yield sim.process(die.erase_multiplane([(0, 0), (1, 0)]))
            yield sim.process(die.program_multiplane(
                [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))

        sim.run(until=sim.process(flow()))
        assert die.write_pointer(0, 0) == 1
        assert die.write_pointer(1, 0) == 1
        assert die.write_pointer(0, 1) == GEO.pages_per_block

    def test_read_counts_unwritten_pages(self, sim):
        die = make_die(sim)
        addresses = [PageAddress(0, 0, 3), PageAddress(1, 0, 3)]
        sim.run(until=sim.process(die.read_multiplane(addresses)))
        assert die.stats.counter("reads_unwritten").value == 2
        die.preload_all()
        sim.run(until=sim.process(die.read_multiplane(addresses)))
        assert die.stats.counter("reads_unwritten").value == 2
        assert die.stats.counter("reads").value == 4


def make_controller(sim, **kwargs):
    return ChannelWayController(
        sim, "chn0", 1, 1, GEO, MlcTimingModel(), WearModel(),
        OnfiTiming.asynchronous(), FixedBch(t=8), **kwargs)


class TestControllerMultiplane:
    def test_multiplane_program_beats_serial(self, sim):
        controller = make_controller(sim)
        sim.run(until=sim.process(controller.program_page_multiplane(
            0, 0, [PageAddress(0, 0, 0), PageAddress(1, 0, 0)])))
        multiplane_time = sim.now

        serial_sim = Simulator()
        serial = make_controller(serial_sim)

        def serial_flow():
            yield serial_sim.process(serial.program_page(
                0, 0, PageAddress(0, 0, 0)))
            yield serial_sim.process(serial.program_page(
                0, 0, PageAddress(1, 0, 0)))

        serial_sim.run(until=serial_sim.process(serial_flow()))
        assert multiplane_time < 0.75 * serial_sim.now

    def test_multiplane_read(self, sim):
        controller = make_controller(sim)

        def flow():
            yield sim.process(controller.program_page_multiplane(
                0, 0, [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
            elapsed = yield sim.process(controller.read_page_multiplane(
                0, 0, [PageAddress(0, 0, 0), PageAddress(1, 0, 0)]))
            return elapsed

        elapsed = sim.run(until=sim.process(flow()))
        assert elapsed > 0
        assert controller.stats.counter("reads").value == 2


class TestCacheProgram:
    def test_pipeline_hides_transfer(self):
        """Two back-to-back cached programs to one die finish sooner than
        two plain programs: the second page's transfer overlaps the first
        page's array time."""
        def run_pair(cached):
            sim = Simulator()
            controller = make_controller(sim)
            method = (controller.program_page_cached if cached
                      else controller.program_page)

            def flow():
                first = sim.process(method(0, 0, PageAddress(0, 0, 0)))
                second = sim.process(method(0, 0, PageAddress(0, 0, 1)))
                yield sim.all_of([first, second])

            sim.run(until=sim.process(flow()))
            return sim.now

        assert run_pair(cached=True) < run_pair(cached=False)

    def test_cached_counter(self, sim):
        controller = make_controller(sim)
        sim.run(until=sim.process(controller.program_page_cached(
            0, 0, PageAddress(0, 0, 0))))
        assert controller.stats.counter("cached_programs").value == 1
        assert controller.stats.counter("programs").value == 1
