"""Tests for the channel controller's fault detection and retry ladder."""

import pytest

from repro.controller import ChannelWayController, GangScheme
from repro.ecc import AdaptiveBch
from repro.faults import (FaultConfig, FaultPlan, ProgramFailError,
                          UncorrectableReadError)
from repro.kernel import Simulator
from repro.nand import (MlcTimingModel, NandGeometry, OnfiTiming,
                        PageAddress, WearModel)

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)


def make_controller(sim, initial_pe_cycles=0, **kwargs):
    return ChannelWayController(
        sim, "chn0", 2, 2, GEO, MlcTimingModel(), WearModel(),
        OnfiTiming.asynchronous(), AdaptiveBch(),
        gang_scheme=GangScheme.SHARED_BUS,
        initial_pe_cycles=initial_pe_cycles, **kwargs)


def install_plan(controller, **overrides):
    defaults = dict(enabled=True, seed=21)
    defaults.update(overrides)
    plan = FaultPlan(FaultConfig(**defaults))
    for way in controller.dies:
        for die in way:
            die.set_fault_plan(plan)
    return plan


def program_then_read(sim, controller, address=PageAddress(0, 0, 0)):
    def flow():
        yield sim.process(controller.program_page(0, 0, address))
        elapsed = yield sim.process(controller.read_page(0, 0, address))
        return elapsed
    return sim.run(until=sim.process(flow()))


class TestReadRetryLadder:
    def test_fresh_die_reads_clean(self):
        """At low wear the drawn errors stay inside the ECC budget and
        the ladder never engages."""
        sim = Simulator()
        controller = make_controller(sim)
        install_plan(controller)
        program_then_read(sim, controller)
        assert controller.reads == 1
        assert controller.read_retries == 0
        assert controller.uncorrectable_reads == 0

    def test_retry_recovers_worn_page(self):
        """Tier-1 recovery: the first sense is over budget, a retry rung
        at reduced effective RBER comes back correctable."""
        sim = Simulator()
        controller = make_controller(sim, initial_pe_cycles=3000)
        # ~220 mean errors/codeword on the first sense (t=40 at rated
        # endurance), ~11 on the first retry rung.
        install_plan(controller, rber_scale=20.0, retry_rber_scale=0.05)
        program_then_read(sim, controller)
        assert controller.read_retries >= 1
        assert controller.read_retry_success == 1
        assert controller.reads == 1
        assert controller.uncorrectable_reads == 0

    def test_retry_costs_rereads(self):
        """Every rung pays a full re-sense: the die sees one array read
        per attempt and the recovered read takes longer."""
        clean_sim = Simulator()
        clean = make_controller(clean_sim, initial_pe_cycles=3000)
        install_plan(clean)  # bit errors drawn, but unscaled: no retries
        clean_elapsed = program_then_read(clean_sim, clean)

        retry_sim = Simulator()
        retry = make_controller(retry_sim, initial_pe_cycles=3000)
        install_plan(retry, rber_scale=20.0, retry_rber_scale=0.05)
        retry_elapsed = program_then_read(retry_sim, retry)

        assert retry_elapsed > clean_elapsed
        die_reads = retry.die(0, 0).reads
        retries = retry.read_retries
        assert die_reads == 1 + retries

    def test_ladder_exhaustion_raises_uncorrectable(self):
        """Retries that never reduce the error count end in an
        UncorrectableReadError carrying the failing address."""
        sim = Simulator()
        controller = make_controller(sim, initial_pe_cycles=3000)
        install_plan(controller, rber_scale=20.0, retry_rber_scale=1.0,
                     read_retry_max=2)
        with pytest.raises(UncorrectableReadError) as info:
            program_then_read(sim, controller)
        assert info.value.retries == 2
        assert info.value.errors > info.value.t
        assert info.value.address == PageAddress(0, 0, 0)
        assert controller.uncorrectable_reads == 1
        assert controller.read_retries == 2

    def test_no_plan_no_draws(self):
        sim = Simulator()
        controller = make_controller(sim, initial_pe_cycles=3000)
        program_then_read(sim, controller)
        assert controller.read_retries == 0
        die = controller.die(0, 0)
        assert die.read_bit_errors == 0


class TestStatusFailures:
    def test_program_fail_raises_for_remap(self):
        sim = Simulator()
        controller = make_controller(sim)
        install_plan(controller, program_fail_prob=1.0)
        with pytest.raises(ProgramFailError) as info:
            sim.run(until=sim.process(
                controller.program_page(0, 0, PageAddress(0, 0, 0))))
        assert info.value.address == PageAddress(0, 0, 0)
        assert controller.program_fail_reports == 1
        # The array time was spent and the page is consumed: the write
        # pointer moved even though the data is lost.
        assert controller.die(0, 0).write_pointer(0, 0) == 1

    def test_erase_fail_reported_not_raised(self):
        """Erase failure retires the block in place; the controller
        reports it but the operation completes."""
        sim = Simulator()
        controller = make_controller(sim)
        install_plan(controller, erase_fail_prob=1.0)
        sim.run(until=sim.process(controller.erase_block(0, 0, 0, 0)))
        assert controller.erase_fail_reports == 1
        assert controller.die(0, 0).is_bad_block(0, 0)
