"""Tests for the NAND die state machine and the ONFI channel bus."""

import pytest

from repro.kernel import Simulator
from repro.kernel.simtime import ns, us
from repro.nand import (MlcTimingModel, NandDie, NandGeometry,
                        NandProtocolError, OnfiChannel, OnfiTiming,
                        PageAddress, WearModel)

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=8,
                         pages_per_block=8, page_bytes=512, spare_bytes=32)


@pytest.fixture
def sim():
    return Simulator()


def make_die(sim, geometry=SMALL_GEO, initial_pe=0):
    return NandDie(sim, "die0", geometry, MlcTimingModel(), WearModel(),
                   initial_pe_cycles=initial_pe)


class TestDieOperations:
    def test_program_takes_band_time(self, sim):
        die = make_die(sim)
        duration = sim.run(until=sim.process(
            die.program(PageAddress(0, 0, 0))))
        assert us(900) <= duration <= us(3300)
        assert sim.now == duration

    def test_read_returns_rber(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            rber = yield sim.process(die.read(PageAddress(0, 0, 0)))
            return rber

        rber = sim.run(until=sim.process(flow()))
        assert rber == pytest.approx(1e-6)

    def test_read_takes_t_read(self, sim):
        die = make_die(sim)

        def flow():
            start = sim.now
            yield sim.process(die.read(PageAddress(0, 0, 0)))
            return sim.now - start

        assert sim.run(until=sim.process(flow())) == us(60)

    def test_sequential_program_rule(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.process(die.program(PageAddress(0, 0, 2)))  # skips 1

        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(flow()))

    def test_no_in_place_update(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.process(die.program(PageAddress(0, 0, 0)))

        with pytest.raises(NandProtocolError):
            sim.run(until=sim.process(flow()))

    def test_erase_allows_reprogram(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            yield sim.process(die.erase(0, 0))
            yield sim.process(die.program(PageAddress(0, 0, 0)))
            return die.pe_cycles(0, 0)

        assert sim.run(until=sim.process(flow())) == 1

    def test_concurrent_commands_rejected(self, sim):
        die = make_die(sim)

        def a():
            yield sim.process(die.program(PageAddress(0, 0, 0)))

        def b():
            yield sim.timeout(ns(10))
            yield sim.process(die.read(PageAddress(0, 1, 0)))

        sim.process(a())
        handle = sim.process(b())
        with pytest.raises(NandProtocolError):
            sim.run(until=handle)

    def test_wear_accumulates_with_erases(self, sim):
        die = make_die(sim)

        def flow():
            for __ in range(5):
                yield sim.process(die.erase(0, 3))

        sim.run(until=sim.process(flow()))
        assert die.pe_cycles(0, 3) == 5
        assert die.pe_cycles(0, 0) == 0

    def test_initial_pe_cycles_offset(self, sim):
        die = make_die(sim, initial_pe=1500)
        assert die.pe_cycles(0, 0) == 1500
        assert die.wear_fraction(0, 0) == pytest.approx(0.5)

    def test_unwritten_read_flagged(self, sim):
        die = make_die(sim)
        sim.run(until=sim.process(die.read(PageAddress(0, 0, 5))))
        assert die.reads_unwritten == 1

    def test_utilization_tracks_busy_time(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.read(PageAddress(0, 0, 0)))
            yield sim.timeout(us(60))  # equal idle time

        sim.run(until=sim.process(flow()))
        assert die.utilization() == pytest.approx(0.5)

    def test_write_pointer_visible(self, sim):
        die = make_die(sim)

        def flow():
            yield sim.process(die.program(PageAddress(0, 2, 0)))
            yield sim.process(die.program(PageAddress(0, 2, 1)))

        sim.run(until=sim.process(flow()))
        assert die.write_pointer(0, 2) == 2
        assert die.write_pointer(0, 0) == 0


class TestOnfiTiming:
    def test_async_bandwidth(self):
        timing = OnfiTiming.asynchronous()
        assert timing.bandwidth_mbps() == pytest.approx(33.33, rel=1e-2)

    def test_source_synchronous_bandwidth(self):
        timing = OnfiTiming.source_synchronous(133)
        assert timing.bandwidth_mbps() == pytest.approx(133, rel=1e-2)

    def test_command_time(self):
        timing = OnfiTiming(cycle_ps=ns(30))
        assert timing.command_time() == 7 * ns(30)

    def test_data_time_scales_with_bytes(self):
        timing = OnfiTiming(cycle_ps=ns(30))
        assert timing.data_time(4096) == 4096 * ns(30)

    def test_effective_page_time_sums_parts(self):
        timing = OnfiTiming(cycle_ps=ns(30), overhead_ps=ns(300))
        expected = timing.command_time() + timing.data_time(100) + ns(300)
        assert timing.effective_page_time(100) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            OnfiTiming(cycle_ps=0)
        with pytest.raises(ValueError):
            OnfiTiming.source_synchronous(0)
        with pytest.raises(ValueError):
            OnfiTiming().data_time(-1)


class TestOnfiChannel:
    def test_transfers_serialize_on_bus(self, sim):
        channel = OnfiChannel(sim, "chn0", OnfiTiming(cycle_ps=ns(10),
                                                      overhead_ps=0))
        finish_times = []

        def mover(nbytes):
            yield sim.process(channel.transfer(nbytes))
            finish_times.append(sim.now)

        sim.process(mover(100))
        sim.process(mover(100))
        sim.run()
        assert finish_times == [ns(1000), ns(2000)]

    def test_utilization(self, sim):
        channel = OnfiChannel(sim, "chn0", OnfiTiming(cycle_ps=ns(10),
                                                      overhead_ps=0))

        def flow():
            yield sim.process(channel.transfer(50))
            yield sim.timeout(ns(500))

        sim.run(until=sim.process(flow()))
        assert channel.utilization() == pytest.approx(0.5)

    def test_transfer_counted_and_timed_by_size(self, sim):
        timing = OnfiTiming()
        channel = OnfiChannel(sim, "chn0", timing)
        sim.run(until=sim.process(channel.transfer(4096)))
        assert sim.now == timing.data_time(4096)
