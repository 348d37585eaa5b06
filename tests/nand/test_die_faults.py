"""Tests for die-level fault injection and NAND protocol errors."""

import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.kernel import Simulator
from repro.kernel.simtime import us
from repro.nand import (MlcTimingModel, NandGeometry, PageAddress, WearModel)
from repro.nand.die import NandDie, NandProtocolError

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)
GEO2 = NandGeometry(planes_per_die=2, blocks_per_plane=64, pages_per_block=16,
                    page_bytes=4096, spare_bytes=224)


@pytest.fixture
def sim():
    return Simulator()


def make_die(sim, geometry=GEO, initial_pe_cycles=0, **fault_overrides):
    die = NandDie(sim, "die0", geometry, MlcTimingModel(), WearModel(),
                  initial_pe_cycles=initial_pe_cycles)
    if fault_overrides:
        config = FaultConfig(enabled=True, seed=11, **fault_overrides)
        die.set_fault_plan(FaultPlan(config))
    return die


class TestFaultDraws:
    def test_factory_bad_memoized(self, sim):
        die = make_die(sim, factory_bad_prob=0.5)
        first = [die.is_bad_block(0, b) for b in range(64)]
        assert True in first and False in first
        again = [die.is_bad_block(0, b) for b in range(64)]
        assert first == again
        # Counter tallies each bad block exactly once, not per query.
        assert die.factory_bad_blocks == sum(first)

    def test_mark_bad_grows_bad_blocks(self, sim):
        die = make_die(sim)
        assert die.bad_block_count == 0
        die.mark_bad(0, 5)
        die.mark_bad(0, 5)  # idempotent
        assert die.bad_block_count == 1
        assert die.grown_bad_blocks == 1
        assert die.is_bad_block(0, 5)

    def test_program_status_fail_flagged(self, sim):
        die = make_die(sim, program_fail_prob=1.0)
        sim.run(until=sim.process(die.program(PageAddress(0, 0, 0))))
        assert die.failed_programs == (PageAddress(0, 0, 0),)
        assert die.program_fails == 1

    def test_erase_fail_retires_block(self, sim):
        die = make_die(sim, erase_fail_prob=1.0)
        sim.run(until=sim.process(die.erase(0, 3)))
        assert die.last_erase_failed
        assert die.is_bad_block(0, 3)
        assert die.erase_fails == 1

    def test_stuck_busy_extends_operation(self):
        plain_sim, faulty_sim = Simulator(), Simulator()
        plain = make_die(plain_sim)
        faulty = make_die(faulty_sim, stuck_busy_prob=1.0,
                          stuck_busy_extra_ps=us(500))
        plain_sim.run(until=plain_sim.process(
            plain.read(PageAddress(0, 0, 0))))
        faulty_sim.run(until=faulty_sim.process(
            faulty.read(PageAddress(0, 0, 0))))
        assert faulty_sim.now == plain_sim.now + us(500)
        assert faulty.stuck_busy_faults == 1

    def test_draw_read_errors_without_plan(self, sim):
        die = make_die(sim)
        assert die.fault_plan is None
        assert die.draw_read_errors(PageAddress(0, 0, 0), 8192, 4) == 0

    def test_draw_read_errors_tracks_wear(self):
        fresh_sim, worn_sim = Simulator(), Simulator()
        fresh = make_die(fresh_sim, rber_scale=1.0)
        worn = make_die(worn_sim, initial_pe_cycles=3000, rber_scale=1.0)

        def total(die):
            return sum(die.draw_read_errors(PageAddress(0, b, 0), 8192, 4)
                       for b in range(64))

        assert total(worn) > total(fresh)
        assert worn.read_bit_errors > 0


class TestProtocolErrors:
    def test_read_while_busy_rejected(self, sim):
        """ONFI R/B#: a command issued to a busy die is a protocol bug."""
        die = make_die(sim)

        def flow():
            handle = sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.timeout(us(10))
            assert die.is_busy
            with pytest.raises(NandProtocolError):
                next(die.read(PageAddress(0, 0, 0)))
            yield handle

        sim.run(until=sim.process(flow()))
        assert not die.is_busy

    def test_erase_while_busy_rejected(self, sim):
        die = make_die(sim)

        def flow():
            handle = sim.process(die.read(PageAddress(0, 0, 0)))
            yield sim.timeout(us(10))
            with pytest.raises(NandProtocolError):
                next(die.erase(0, 0))
            yield handle

        sim.run(until=sim.process(flow()))

    def test_out_of_order_program_rejected(self, sim):
        die = make_die(sim)
        with pytest.raises(NandProtocolError):
            next(die.program(PageAddress(0, 0, 3)))

    def test_multiplane_duplicate_planes_rejected(self, sim):
        die = make_die(sim, geometry=GEO2)
        with pytest.raises(NandProtocolError):
            next(die.program(PageAddress(0, 0, 0), PageAddress(0, 1, 0)))

    def test_multiplane_page_offsets_must_match(self, sim):
        die = make_die(sim, geometry=GEO2)
        with pytest.raises(NandProtocolError):
            next(die.read(PageAddress(0, 0, 0), PageAddress(1, 0, 3)))

    def test_multiplane_erase_distinct_planes(self, sim):
        die = make_die(sim, geometry=GEO2)
        with pytest.raises(NandProtocolError):
            next(die.erase(0, 0, (0, 1)))

    def test_multiplane_needs_two_addresses(self, sim):
        """One address is the single-plane command: no multi-plane
        addressing check, no issue overhead."""
        die = make_die(sim, geometry=GEO2)
        address = PageAddress(0, 0, 0)
        assert die.begin_program(address) == die.timing.program_time(
            address.page, address.block)
        die.finish_program(address)
        assert die.multiplane_programs == 0


class TestMultiplaneFaults:
    """A multi-plane command draws every fault for every plane, as the
    single-plane command draws it for its one plane."""

    def test_program_fails_and_sticks_on_every_plane(self):
        single_sim, dual_sim = Simulator(), Simulator()
        faults = dict(program_fail_prob=1.0, stuck_busy_prob=1.0)
        single = make_die(single_sim, geometry=GEO2, **faults)
        dual = make_die(dual_sim, geometry=GEO2, **faults)
        single_sim.run(until=single_sim.process(
            single.program(PageAddress(0, 0, 0))))
        dual_sim.run(until=dual_sim.process(
            dual.program(PageAddress(0, 0, 0), PageAddress(1, 0, 0))))
        assert dual.failed_programs == (PageAddress(0, 0, 0),
                                        PageAddress(1, 0, 0))
        assert dual.program_fails == 2
        assert dual.stuck_busy_faults == 2
        # The slowest plane's time includes its stuck-busy draw.
        assert dual_sim.now >= single_sim.now + dual.multiplane_overhead_ps

    def test_erase_fail_retires_every_block(self, sim):
        die = make_die(sim, geometry=GEO2, erase_fail_prob=1.0)
        sim.run(until=sim.process(die.erase(0, 3, (1, 3))))
        assert die.last_erase_failed
        assert die.is_bad_block(0, 3)
        assert die.is_bad_block(1, 3)
        assert die.erase_fails == 2

    def test_read_sticks_on_every_plane(self, sim):
        die = make_die(sim, geometry=GEO2, stuck_busy_prob=1.0,
                       stuck_busy_extra_ps=us(500))
        sim.run(until=sim.process(die.read(PageAddress(0, 0, 0),
                                           PageAddress(1, 0, 0))))
        assert die.stuck_busy_faults == 2
        assert sim.now == (die.timing.read_time() + us(500)
                           + die.multiplane_overhead_ps)
