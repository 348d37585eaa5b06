"""Fast-fidelity page operations run as kernel callback chains.

``ChannelWayController.program/read/erase`` return an event.  At fast
fidelity that event is a chain of kernel callbacks that processes the
same kernel events, at the same times and in the same order, as the
generator process the fast path used to spawn.  The pinned numbers below
were measured with that generator process: a read is 11 kernel events
and a program or an erase 7 (bootstrap, prep delay, R/B# grant, bus
grant, tenure, array time, [data-out grant + tenure, decoder grant +
decode,] completion).
"""

import pytest

from repro.controller import ChannelWayController
from repro.ecc import AdaptiveBch, FixedBch
from repro.kernel import SimulationError, Simulator
from repro.nand import (MlcTimingModel, NandGeometry, OnfiTiming,
                        PageAddress, WearModel)
from repro.nand.die import NandProtocolError
from tests.grantlog import GrantLog

GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)


def make_controller(sim, ecc=None, fast=True, **kwargs):
    return ChannelWayController(
        sim, "chn0", 2, 2, GEO, MlcTimingModel(), WearModel(),
        OnfiTiming.asynchronous(), ecc or FixedBch(t=8), fast=fast,
        **kwargs)


def count_acquires(monkeypatch, resource):
    """Count the acquire() calls on one resource instance."""
    calls = []
    original = resource.acquire

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(resource, "acquire", counted)
    return calls


def run_alone(op, args, fast):
    """(elapsed, simulator) of one page operation on an idle controller."""
    sim = Simulator()
    controller = make_controller(sim, fast=fast)
    if op == "read":
        controller.die(0, 0).preload_all()
    return sim.run(until=getattr(controller, op)(*args)), sim


class TestUncontended:
    @pytest.mark.parametrize("op, args, events", [
        ("program", (0, 0, PageAddress(0, 0, 0)), 7),
        ("read", (0, 0, PageAddress(0, 0, 0)), 11),
        ("erase", (0, 0, 0, 0), 7),
    ])
    def test_same_events_and_elapsed_as_the_process(self, op, args, events):
        elapsed, sim = run_alone(op, args, fast=True)
        # Uncontended, the fast chain takes the cycle generator's time.
        assert elapsed == run_alone(op, args, fast=False)[0]
        assert sim.events_processed == events
        assert sim.now == elapsed

    def test_free_resources_are_held_in_place(self, monkeypatch):
        log = GrantLog(monkeypatch)
        sim = Simulator()
        controller = make_controller(sim)
        die = controller.die(0, 0)
        die.preload_all()
        resources = [controller._die_locks[0][0],
                     controller.buses.data_bus(0).bus, controller.decoder]
        calls = [count_acquires(monkeypatch, res) for res in resources]
        sim.run(until=controller.read(0, 0, PageAddress(0, 0, 0)))
        assert calls == [[], [], []]
        assert [log.grants(res) for res in resources] == [1, 2, 1]
        assert [res.in_use for res in resources] == [0, 0, 0]
        assert controller.reads == 1
        assert die.reads == 1


class TestContended:
    def test_second_read_on_a_die_takes_the_grant_route(self, monkeypatch):
        log = GrantLog(monkeypatch)
        sim = Simulator()
        controller = make_controller(sim, ecc=AdaptiveBch(),
                               initial_pe_cycles=3000)
        controller.die(0, 0).preload_all()
        controller.die(1, 0).preload_all()
        lock = controller._die_locks[0][0]
        bus = controller.buses.data_bus(0).bus
        decoder = controller.decoder
        lock_calls = count_acquires(monkeypatch, lock)
        first = controller.read(0, 0, PageAddress(0, 0, 0))
        second = controller.read(0, 0, PageAddress(0, 0, 1))
        other_way = controller.read(1, 0, PageAddress(0, 0, 1))
        sim.run()
        # Only the second read on die (0, 0) found R/B# held.
        assert len(lock_calls) == 1
        assert (first.value, second.value, other_way.value) == (
            518_874_000, 1_176_282_000, 847_578_000)
        assert sim.events_processed == 33
        stats = [(log.grants(res), log.wait_ps(res), res.busy_time())
                 for res in (lock, bus, decoder)]
        assert stats == [(2, 60_510_000, 250_620_000),
                         (6, 329_310_000, 390_330_000),
                         (3, 596_292_000, 986_112_000)]
        assert [res.in_use for res in (lock, bus, decoder)] == [0, 0, 0]


class TestFailure:
    def test_sequential_violation_fails_the_event_and_frees_the_die(
            self, monkeypatch):
        log = GrantLog(monkeypatch)
        sim = Simulator()
        controller = make_controller(sim)
        out_of_order = controller.program(0, 0, PageAddress(0, 0, 1))
        with pytest.raises(NandProtocolError, match="sequential"):
            sim.run(until=out_of_order)
        lock = controller._die_locks[0][0]
        assert lock.in_use == 0
        assert controller.buses.data_bus(0).bus.in_use == 0
        assert controller.programs == 0
        # The die is idle and unlocked: the next operation runs.
        retry = controller.program(0, 0, PageAddress(0, 0, 0))
        assert sim.run(until=retry) > 0
        assert controller.die(0, 0).write_pointer(0, 0) == 1
        assert log.grants(lock) == 2

    def test_failure_releases_a_queued_grant_too(self):
        sim = Simulator()
        controller = make_controller(sim)
        good = controller.program(0, 0, PageAddress(0, 0, 0))
        bad = controller.program(0, 0, PageAddress(0, 0, 5))
        sim.run(until=good)
        with pytest.raises(NandProtocolError):
            sim.run(until=bad)
        assert controller._die_locks[0][0].in_use == 0

    def test_out_of_range_die_fails_the_event(self):
        sim = Simulator()
        controller = make_controller(sim)
        with pytest.raises(ValueError, match="way 7 out of range"):
            sim.run(until=controller.erase(7, 0, 0, 0))

    @pytest.mark.parametrize("generator, args, method", [
        ("program_page", (0, 0, PageAddress(0, 0, 0)), "program"),
        ("read_page", (0, 0, PageAddress(0, 0, 0)), "read"),
        ("erase_block", (0, 0, 0, 0), "erase"),
    ])
    def test_cycle_generators_refuse_a_fast_controller(self, generator, args,
                                                       method):
        sim = Simulator()
        controller = make_controller(sim)
        process = sim.process(getattr(controller, generator)(*args))
        with pytest.raises(SimulationError, match=rf"use {method}\(\)"):
            sim.run(until=process)
        assert controller.built_dies() == []


class TestCycleFidelity:
    def test_event_methods_run_the_cycle_generators(self):
        sim = Simulator()
        controller = ChannelWayController(
            sim, "chn0", 1, 1, GEO, MlcTimingModel(), WearModel(),
            OnfiTiming.asynchronous(), FixedBch(t=8))
        event = controller.program(0, 0, PageAddress(0, 0, 0))
        assert event.name == "program_page"
        elapsed = sim.run(until=event)
        assert elapsed > 0
        assert controller.programs == 1
