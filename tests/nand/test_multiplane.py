"""Tests for multi-plane NAND operations and cache programming.

A multi-plane command is the single-page call with extra planes:
``die.program(address, *more)``, ``die.read(address, *more)``,
``die.erase(plane, block, *more)`` and the controller's
``program_page`` / ``read_page``; cache program is
``program_page(..., cached=True)``.
"""

import pytest

from repro.controller import ChannelWayController
from repro.ecc import AdaptiveBch, FixedBch
from repro.faults import FaultConfig, FaultPlan, ProgramFailError
from repro.kernel import SimulationError, Simulator
from repro.kernel.simtime import ms, us
from repro.nand import (MlcTimingModel, NandDie, NandGeometry,
                        NandProtocolError, OnfiTiming, PageAddress,
                        WearModel)

GEO = NandGeometry(planes_per_die=2, blocks_per_plane=8, pages_per_block=8,
                   page_bytes=4096, spare_bytes=224)
PAIR = (PageAddress(0, 0, 0), PageAddress(1, 0, 0))


@pytest.fixture
def sim():
    return Simulator()


def make_die(sim):
    return NandDie(sim, "die0", GEO, MlcTimingModel(), WearModel())


class TestMultiplaneProgram:
    def test_cheaper_than_two_singles(self, sim):
        die = make_die(sim)
        duration = sim.run(until=sim.process(die.program(*PAIR)))
        # max(tPROG) + overhead, far below the 2x of serial programs.
        assert duration < ms(3.5)
        assert die.write_pointer(0, 0) == 1
        assert die.write_pointer(1, 0) == 1

    def test_counts_programs_per_plane(self, sim):
        die = make_die(sim)
        sim.run(until=sim.process(die.program(*PAIR)))
        assert die.programs == 2
        assert die.multiplane_programs == 1

    def test_rejects_same_plane(self, sim):
        die = make_die(sim)
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program(
                PageAddress(0, 0, 0), PageAddress(0, 1, 0))))

    def test_rejects_mismatched_page_offset(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.process(die.program(
                PageAddress(0, 0, 1), PageAddress(1, 0, 0)))

        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(flow()))

    def test_sequential_rule_enforced_per_plane(self, sim):
        die = make_die(sim)
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program(
                PageAddress(0, 0, 1), PageAddress(1, 0, 1))))

    def test_needs_two_addresses(self, sim):
        """A multi-plane command needs two addresses: one address is the
        single-plane program, with no issue overhead and no multi-plane
        count."""
        die = make_die(sim)
        address = PageAddress(0, 0, 0)
        duration = sim.run(until=sim.process(die.program(address)))
        assert duration == die.timing.program_time(address.page,
                                                   address.block)
        assert die.multiplane_programs == 0
        assert die.programs == 1


class TestMultiplaneReadErase:
    def test_read_returns_rber_per_plane(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(*PAIR))
            rbers = yield sim.process(die.read(*PAIR))
            return rbers

        rbers = sim.run(until=sim.process(flow()))
        assert len(rbers) == 2
        assert die.multiplane_reads == 1

    def test_read_time_near_single(self, sim):
        die = make_die(sim)
        duration_event = sim.process(die.read(*PAIR))
        sim.run(until=duration_event)
        assert sim.now < us(65)  # tREAD + 2us overhead vs 2 x tREAD

    def test_erase_resets_both_planes(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(*PAIR))
            yield sim.process(die.erase(0, 0, (1, 0)))

        sim.run(until=sim.process(flow()))
        assert die.write_pointer(0, 0) == 0
        assert die.write_pointer(1, 0) == 0
        assert die.pe_cycles(0, 0) == 1
        assert die.pe_cycles(1, 0) == 1
        assert die.multiplane_erases == 1

    def test_erase_validation(self, sim):
        die = make_die(sim)
        # One block is the single-plane erase.
        sim.run(until=sim.process(die.erase(0, 0)))
        assert die.multiplane_erases == 0
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.erase(0, 0, (0, 1))))


class TestMultiplaneSharesSinglePlaneChecks:
    """Multi-plane commands see the same write pointers as single-plane
    ones, including the O(1) fully-programmed default of preload_all()."""

    def test_program_rejects_page_zero_of_a_preloaded_block(self, sim):
        die = make_die(sim)
        die.preload_all()
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program(*PAIR)))
        # The single-plane program rejects the same command.
        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(die.program(PageAddress(0, 0, 0))))
        assert die.write_pointer(0, 0) == GEO.pages_per_block
        assert die.write_pointer(1, 0) == GEO.pages_per_block
        assert die.programs == 0

    def test_erase_reopens_preloaded_blocks(self, sim):
        die = make_die(sim)
        die.preload_all()

        def flow():
            yield sim.process(die.erase(0, 0, (1, 0)))
            yield sim.process(die.program(*PAIR))

        sim.run(until=sim.process(flow()))
        assert die.write_pointer(0, 0) == 1
        assert die.write_pointer(1, 0) == 1
        assert die.write_pointer(0, 1) == GEO.pages_per_block

    def test_read_counts_unwritten_pages(self, sim):
        die = make_die(sim)
        addresses = [PageAddress(0, 0, 3), PageAddress(1, 0, 3)]
        sim.run(until=sim.process(die.read(*addresses)))
        assert die.reads_unwritten == 2
        die.preload_all()
        sim.run(until=sim.process(die.read(*addresses)))
        assert die.reads_unwritten == 2
        assert die.reads == 4


def make_controller(sim, ecc=None, **kwargs):
    return ChannelWayController(
        sim, "chn0", 1, 1, GEO, MlcTimingModel(), WearModel(),
        OnfiTiming.asynchronous(), ecc or FixedBch(t=8), **kwargs)


def install_plan(controller, **overrides):
    controller.set_fault_plan(FaultPlan(FaultConfig(enabled=True, seed=21,
                                                    **overrides)))


class TestControllerMultiplane:
    def test_multiplane_program_beats_serial(self, sim):
        controller = make_controller(sim)
        sim.run(until=sim.process(controller.program_page(0, 0, *PAIR)))
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
            yield sim.process(controller.program_page(0, 0, *PAIR))
            elapsed = yield sim.process(controller.read_page(0, 0, *PAIR))
            return elapsed

        elapsed = sim.run(until=sim.process(flow()))
        assert elapsed > 0
        assert controller.reads == 2

    @pytest.mark.parametrize("generator, kwargs", [
        ("program_page", {}),
        ("program_page", {"cached": True}),
        ("read_page", {}),
    ], ids=["program", "cached-program", "read"])
    def test_refused_on_a_fast_controller(self, sim, generator, kwargs):
        controller = make_controller(sim, fast=True)
        with pytest.raises(SimulationError, match="cycle-fidelity"):
            next(getattr(controller, generator)(0, 0, *PAIR, **kwargs))


class TestCacheProgram:
    def test_pipeline_hides_transfer(self):
        """Two back-to-back cached programs to one die finish sooner than
        two plain programs: the second page's transfer overlaps the first
        page's array time."""
        def run_pair(cached):
            sim = Simulator()
            controller = make_controller(sim)

            def flow():
                first = sim.process(controller.program_page(
                    0, 0, PageAddress(0, 0, 0), cached=cached))
                second = sim.process(controller.program_page(
                    0, 0, PageAddress(0, 0, 1), cached=cached))
                yield sim.all_of([first, second])

            sim.run(until=sim.process(flow()))
            return sim.now

        assert run_pair(cached=True) < run_pair(cached=False)

    def test_cached_counter(self, sim):
        controller = make_controller(sim)
        sim.run(until=sim.process(controller.program_page(
            0, 0, PageAddress(0, 0, 0), cached=True)))
        assert controller.cached_programs == 1
        assert controller.programs == 1


class TestEveryFormHonoursFaults:
    """Multi-plane and cached commands draw and report faults exactly as
    the single-page command does."""

    @pytest.mark.parametrize("more, cached", [
        ((PageAddress(1, 0, 0),), False),
        ((PageAddress(1, 0, 0),), True),
        ((), True),
    ], ids=["2-plane", "2-plane-cached", "cached"])
    def test_program_fail_raises(self, sim, more, cached):
        controller = make_controller(sim)
        install_plan(controller, program_fail_prob=1.0)
        with pytest.raises(ProgramFailError) as info:
            sim.run(until=sim.process(controller.program_page(
                0, 0, PageAddress(0, 0, 0), *more, cached=cached)))
        assert info.value.address == PageAddress(0, 0, 0)
        assert controller.program_fail_reports == 1
        die = controller.die(0, 0)
        assert die.program_fails == 1 + len(more)
        # The pages are consumed even though the data is lost.
        assert die.write_pointer(0, 0) == 1

    def test_program_fail_names_only_the_failing_plane(self, sim):
        class SecondPlaneFails(FaultPlan):
            def program_fails(self, die, plane, block, page):
                return plane == 1

        controller = make_controller(sim)
        controller.set_fault_plan(SecondPlaneFails(FaultConfig(enabled=True)))
        with pytest.raises(ProgramFailError) as info:
            sim.run(until=sim.process(controller.program_page(0, 0, *PAIR)))
        assert info.value.address == PageAddress(1, 0, 0)
        assert str(PageAddress(1, 0, 0)) in str(info.value)
        assert str(PageAddress(0, 0, 0)) not in str(info.value)
        die = controller.die(0, 0)
        assert die.failed_programs == (PageAddress(1, 0, 0),)
        assert die.program_fails == 1
        assert controller.program_fail_reports == 1

    def test_two_plane_read_climbs_the_retry_ladder(self, sim):
        """~220 mean errors per codeword on the first sense (t=40 at
        rated endurance), ~11 on the first retry rung: every plane is
        drawn, and the whole command re-senses until all planes are
        correctable."""
        controller = make_controller(sim, ecc=AdaptiveBch(),
                                     initial_pe_cycles=3000)
        install_plan(controller, rber_scale=20.0, retry_rber_scale=0.05)

        def flow():
            yield sim.process(controller.program_page(0, 0, *PAIR))
            yield sim.process(controller.read_page(0, 0, *PAIR))

        sim.run(until=sim.process(flow()))
        retries = controller.read_retries
        assert retries >= 1
        assert controller.read_retry_success == 1
        assert controller.reads == 2
        die = controller.die(0, 0)
        assert die.reads == 2 * (1 + retries)
        assert die.read_bit_errors > 0
