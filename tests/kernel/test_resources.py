"""Tests for Resource and PriorityResource."""

import functools
import gc
import heapq
import random

import pytest

from repro.kernel import (ClaimChain, PriorityResource, Resource,
                          SimulationError, Simulator)
from tests.grantlog import GrantLog


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def log(monkeypatch):
    return GrantLog(monkeypatch)


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, "bus")
        grant = res.acquire()
        assert grant.triggered
        assert res.in_use == 1

    def test_fifo_arbitration(self, sim):
        res = Resource(sim, "bus")
        order = []

        def user(tag, hold):
            grant = res.acquire()
            yield grant
            order.append((tag, sim.now))
            yield hold
            res.release(grant)

        for tag in range(3):
            sim.process(user(tag, 100))
        sim.run()
        assert order == [(0, 0), (1, 100), (2, 200)]

    def test_capacity_two_admits_two(self, sim):
        res = Resource(sim, "dma", capacity=2)
        admitted = []

        def user(tag):
            grant = res.acquire()
            yield grant
            admitted.append((tag, sim.now))
            yield 50
            res.release(grant)

        for tag in range(4):
            sim.process(user(tag))
        sim.run()
        assert admitted == [(0, 0), (1, 0), (2, 50), (3, 50)]

    def test_double_release_raises(self, sim):
        res = Resource(sim, "bus")
        grant = res.acquire()
        res.release(grant)
        with pytest.raises(SimulationError):
            res.release(grant)

    def test_release_foreign_grant_raises(self, sim):
        res_a = Resource(sim, "a")
        res_b = Resource(sim, "b")
        grant = res_a.acquire()
        with pytest.raises(SimulationError):
            res_b.release(grant)

    def test_cancel_waiting_grant(self, sim):
        res = Resource(sim, "bus")
        holder = res.acquire()
        waiter = res.acquire()
        assert not waiter.triggered
        res.release(waiter)          # cancel before admission
        res.release(holder)
        assert res.in_use == 0
        assert res.queue_length == 0

    def test_busy_time_tracks_holding(self, sim):
        res = Resource(sim, "bus")

        def user():
            grant = res.acquire()
            yield grant
            yield 100
            res.release(grant)
            yield 100
            grant = res.acquire()
            yield grant
            yield 50
            res.release(grant)

        sim.process(user())
        sim.run()
        assert res.busy_time() == 150
        assert res.utilization() == pytest.approx(150 / 250)

    def test_wait_time_accounting(self, sim, log):
        res = Resource(sim, "bus")

        def holder():
            grant = res.acquire()
            yield grant
            yield 200
            res.release(grant)

        def waiter():
            yield 50
            grant = res.acquire()
            yield grant
            res.release(grant)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log.grants(res) == 2
        assert log.wait_ps(res) == 150


class TestPriorityResource:
    def test_lower_priority_value_first(self, sim):
        res = PriorityResource(sim, "arb")
        order = []

        def holder():
            grant = res.acquire()
            yield grant
            yield 100
            res.release(grant)

        def user(tag, priority):
            yield 1
            grant = res.acquire(priority)
            yield grant
            order.append(tag)
            res.release(grant)

        sim.process(holder())
        sim.process(user("low-urgency", 5))
        sim.process(user("urgent", 0))
        sim.process(user("medium", 2))
        sim.run()
        assert order == ["urgent", "medium", "low-urgency"]

    def test_equal_priority_fifo(self, sim):
        res = PriorityResource(sim, "arb")
        order = []

        def holder():
            grant = res.acquire()
            yield grant
            yield 100
            res.release(grant)

        def user(tag):
            yield 1
            grant = res.acquire(3)
            yield grant
            order.append(tag)
            res.release(grant)

        sim.process(holder())
        for tag in range(4):
            sim.process(user(tag))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_cancel_waiting_priority_grant(self, sim):
        res = PriorityResource(sim, "arb")
        holder = res.acquire()
        waiter = res.acquire(1)
        res.release(waiter)
        res.release(holder)
        assert res.queue_length == 0
        assert res.in_use == 0

    def test_claim_books_an_immediate_grant(self, sim, log):
        res = PriorityResource(sim, "arb")
        sim.run(until=10)
        assert res.claim(lambda ev: None) is None
        assert (res.in_use, log.grants(res), log.wait_ps(res)) == (1, 1, 0)
        queued = res.claim(lambda ev: None)
        assert queued is not None and not queued.triggered
        assert (res.in_use, log.grants(res)) == (1, 1)
        res.give_back(queued)
        sim.run(until=25)
        res.give_back(None)
        assert res.in_use == 0
        assert res.busy_time() == 15

    def test_return_slot_admits_the_most_urgent_waiter(self, sim):
        res = PriorityResource(sim, "arb")
        assert res.claim(lambda ev: None) is None
        late = res.acquire(5)
        urgent = res.acquire(0)
        res.give_back(None)
        assert urgent.triggered and not late.triggered
        res.release(urgent)
        assert late.triggered


class TestWaitAccounting:
    """The grant log charges each admitted grant the time from its
    request to its admission, and nothing else."""

    @staticmethod
    def _contend(sim, res, requests):
        """One holder for 100 ps from t=0, then each ``(arrive, priority,
        hold)`` request queues behind it."""
        order = []

        def holder():
            grant = res.acquire()
            yield grant
            yield 100
            res.release(grant)

        def user(tag, arrive, priority, hold):
            yield arrive
            grant = res.acquire(priority)
            yield grant
            order.append((tag, sim.now))
            yield hold
            res.release(grant)

        sim.process(holder())
        for tag, (arrive, priority, hold) in enumerate(requests):
            sim.process(user(tag, arrive, priority, hold))
        sim.run()
        return order

    def test_fifo_waiters(self, sim, log):
        res = Resource(sim, "bus")
        order = self._contend(sim, res, [(10, 0, 30), (20, 0, 40), (30, 0, 0)])
        assert order == [(0, 100), (1, 130), (2, 170)]
        assert log.grants(res) == 4
        assert log.wait_ps(res) == (100 - 10) + (130 - 20) + (170 - 30)

    def test_priority_waiters(self, sim, log):
        res = PriorityResource(sim, "arb")
        order = self._contend(sim, res, [(10, 5, 30), (20, 0, 40), (30, 2, 0)])
        assert order == [(1, 100), (2, 140), (0, 140)]
        assert log.grants(res) == 4
        assert log.wait_ps(res) == (100 - 20) + (140 - 30) + (140 - 10)

    def test_fifo_admission_misses_both_priority_pins(self, sim, log,
                                                      monkeypatch):
        """The witness can fail: a PriorityResource that admits waiters
        in arrival order misses both of test_priority_waiters' pins."""
        return_slot = PriorityResource.return_slot

        def fifo_return_slot(res):
            # Forget every waiter's priority: the heap orders by arrival.
            res._waiting = [(0, arrival, grant)
                            for __, arrival, grant in res._waiting]
            heapq.heapify(res._waiting)
            return_slot(res)

        monkeypatch.setattr(PriorityResource, "return_slot", fifo_return_slot)
        res = PriorityResource(sim, "arb")
        order = self._contend(sim, res, [(10, 5, 30), (20, 0, 40), (30, 2, 0)])
        assert order != [(1, 100), (2, 140), (0, 140)]
        assert log.wait_ps(res) != (100 - 20) + (140 - 30) + (140 - 10)
        assert order == [(0, 100), (1, 130), (2, 170)]
        assert log.wait_ps(res) == (100 - 10) + (130 - 20) + (170 - 30)

    def test_immediate_grant_waits_nothing(self, sim, log):
        res = Resource(sim, "bus")
        grant = res.acquire()
        assert (log.wait_ps(res), log.grants(res)) == (0, 1)
        res.release(grant)

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_cancelled_waiter_adds_no_wait_or_grant(self, sim, log, kind):
        res = kind(sim, "bus")

        def flow():
            holder = res.acquire()
            yield holder
            cancelled = res.acquire()
            yield 70
            res.release(cancelled)      # never admitted
            kept = res.acquire()
            yield 30
            res.release(holder)
            yield kept
            res.release(kept)

        sim.process(flow())
        sim.run()
        assert log.grants(res) == 2
        assert log.wait_ps(res) == 30
        assert res.queue_length == 0 and res.in_use == 0

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_grant_repr_names_resource(self, sim, kind):
        res = kind(sim, "chan3.bus")
        held = res.acquire()
        waiting = res.acquire()
        assert "chan3.bus" in repr(held)
        assert "chan3.bus" in repr(waiting)


class TestClaim:
    """``claim``/``give_back`` on both resource kinds: the callback-chain
    way to hold a slot."""

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_claim_free_slot_holds_in_place(self, sim, log, kind):
        res = kind(sim, "r")
        seen = []
        assert res.claim(lambda ev: seen.append(sim.now)) is None
        assert (res.in_use, log.grants(res), log.wait_ps(res)) == (1, 1, 0)
        sim.run()
        assert seen == [0]
        assert sim.events_processed == 1
        sim.run(until=30)
        res.give_back(None)
        assert res.in_use == 0
        assert res.busy_time() == 30

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_claim_held_slot_queues_a_grant(self, sim, log, kind):
        res = kind(sim, "r")
        assert res.claim(lambda ev: None) is None
        seen = []
        hold = res.claim(lambda ev: seen.append(sim.now))
        assert hold is not None and not hold.triggered
        sim.run(until=20)
        res.give_back(None)
        sim.run()
        assert seen == [20]
        assert (log.grants(res), log.wait_ps(res)) == (2, 20)
        res.give_back(hold)
        assert res.in_use == 0 and hold.released

    def test_fifo_return_slot_admits_in_arrival_order(self, sim):
        res = Resource(sim, "r")
        assert res.claim(lambda ev: None) is None
        first, second = res.acquire(), res.acquire()
        res.give_back(None)
        assert first.triggered and not second.triggered
        res.release(first)
        assert second.triggered


class TestGiveBackUnheld:
    """Returning a slot nobody holds is refused, as a double release()
    is: ``in_use`` must not go negative and double-book the resource."""

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_fresh_resource_refuses(self, sim, kind):
        res = kind(sim, "chan0.bus")
        with pytest.raises(SimulationError, match="chan0.bus"):
            res.give_back(None)
        assert res.in_use == 0
        with pytest.raises(SimulationError, match="chan0.bus"):
            res.return_slot()
        assert res.in_use == 0

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_second_give_back_of_one_hold_refuses(self, sim, kind):
        res = kind(sim, "chan0.bus")
        assert res.claim(lambda ev: None) is None
        res.give_back(None)
        with pytest.raises(SimulationError, match="chan0.bus"):
            res.give_back(None)
        # The capacity still holds: a second holder queues.
        assert res.claim(lambda ev: None) is None
        assert res.claim(lambda ev: None) is not None
        assert res.in_use == 1


class TestGrantCycle:
    """An admitted grant's value is the grant; release() clears it so
    the grant is not a reference cycle."""

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_released_grant_does_not_refer_to_itself(self, sim, kind):
        res = kind(sim, "r")
        got = []

        def user():
            grant = yield res.acquire()
            got.append(grant)
            yield 10
            res.release(grant)

        sim.process(user())
        sim.run()
        grant = got[0]
        assert grant.resource is res and grant.released
        assert grant not in gc.get_referents(grant)
        assert grant.triggered


def _legacy_claim(res, callback, priority=0):
    """Reference ``claim``: a free slot's callback always goes through a
    zero-delay ``_after``."""
    in_use = res._in_use
    if in_use < res.capacity:
        if in_use == 0:
            res._busy_since = res.sim._now
        res._in_use = in_use + 1
        res.sim._after(0, callback)
        return None
    grant = res.acquire(priority)
    grant.callbacks.append(callback)
    return grant


def _legacy_give_back(res, hold):
    """Reference ``give_back``: an in-place slot always goes through
    ``return_slot``."""
    if hold is None:
        res.return_slot()
    else:
        res.release(hold)


def _contended_chains(sim, res, seed):
    """Seeded claim/give_back chains and acquire/release processes on
    ``res``, colliding at shared timestamps; returns the observation log
    (time, tag, what, in_use, busy_time) in the order it happened."""
    rng = random.Random(seed)
    seen = []

    def note(tag, what):
        seen.append((sim.now, tag, what, res.in_use, res.busy_time()))

    class Chain:
        def __init__(self, tag, start, hold_ps, priority):
            self.tag, self.hold_ps, self.priority = tag, hold_ps, priority
            self.hold = None
            sim.timeout(start).add_callback(self.go)

        def go(self, _event):
            self.hold = res.claim(self.held, self.priority)
            note(self.tag, "claimed" if self.hold is None else "queued")

        def held(self, event):
            note(self.tag, "held" if event is None else "granted")
            sim._after(self.hold_ps, self.done)

        def done(self, _event):
            res.give_back(self.hold)
            note(self.tag, "back")

    def user(tag, start, hold_ps, priority):
        yield start
        grant = res.acquire(priority)
        yield grant
        note(tag, "acquired")
        yield hold_ps
        res.release(grant)
        note(tag, "released")

    for tag in range(24):
        start = rng.choice((0, 0, 10, 10, 25, rng.randrange(60)))
        hold_ps = rng.choice((0, 5, 10, 15))
        priority = rng.randrange(3)
        if rng.random() < 0.7:
            Chain(tag, start, hold_ps, priority)
        else:
            sim.process(user(tag, start, hold_ps, priority))
    sim.run()
    note(None, "end")
    return seen, sim.events_processed


class TestClaimFastPaths:
    """The live-batch ``claim`` and the inline ``give_back`` leave the
    same slots, busy time, admission order and event order as a claim
    that always schedules through ``_after(0, ...)`` and a give-back that
    always goes through ``return_slot``."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("capacity", [2, 1])
    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_matches_the_scheduled_path(self, kind, capacity, seed,
                                        monkeypatch):
        sim = Simulator()
        fast = _contended_chains(sim, kind(sim, "r", capacity), seed)
        monkeypatch.setattr(Resource, "claim", _legacy_claim)
        monkeypatch.setattr(Resource, "give_back", _legacy_give_back)
        sim = Simulator()
        legacy = _contended_chains(sim, kind(sim, "r", capacity), seed)
        assert fast == legacy
        whats = {what for __, __, what, __, __ in fast[0]}
        assert {"claimed", "queued", "held", "granted"} <= whats

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_claim_outside_run_schedules_a_zero_delay_entry(self, sim, kind):
        res = kind(sim, "r", capacity=2)
        seen = []

        def step(event):
            seen.append((sim.now, event))

        assert res.claim(step) is None
        assert sim.peek() == 0 and sim._buckets[0] == [step]
        sim.run()
        assert seen == [(0, None)]
        assert sim.events_processed == 1

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_claim_inside_run_joins_the_live_batch(self, sim, kind):
        res = kind(sim, "r", capacity=2)
        order = []

        def first(_event):
            order.append("first")
            assert res.claim(lambda ev: order.append(("held", ev))) is None
            sim._after(0, lambda ev: order.append("after"))

        sim._after(0, first)
        sim.run()
        assert order == ["first", ("held", None), "after"]
        assert sim.events_processed == 3

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_claim_refuses_a_callback_the_calendar_cannot_hold(self, sim,
                                                              kind):
        res = kind(sim, "r")
        refused = []

        def step(_event):
            try:
                res.claim(functools.partial(print))
            except TypeError:
                refused.append(sim.now)

        sim._after(5, step)
        sim.run()
        assert refused == [5]

    @pytest.mark.parametrize("kind", [Resource, PriorityResource])
    def test_inline_give_back_keeps_busy_time_and_admits_waiters(self, sim,
                                                                kind):
        res = kind(sim, "r", capacity=2)
        assert res.claim(lambda ev: None) is None
        assert res.claim(lambda ev: None) is None
        waiter = res.acquire()
        sim.run(until=10)
        res.give_back(None)          # a waiter: through return_slot
        assert waiter.triggered and res.in_use == 2
        res.release(waiter)
        sim.run(until=30)
        res.give_back(None)          # the last slot, nobody waiting
        assert res.in_use == 0
        assert res.busy_time() == 30
        sim.run(until=50)
        assert res.busy_time() == 30


class TestClaimChain:
    """A :class:`ClaimChain` holds each resource in order, one calendar
    entry per hold, exactly as a chain that claims one resource per step
    through ``Resource.claim``."""

    class PerStepChain:
        """The reference: one ``claim`` per step, returned in claim order
        through ``give_back``."""

        def __init__(self, sim, resources, priority, on_held):
            self.sim, self.resources = sim, resources
            self.priority, self.on_held = priority, on_held
            self.holds = [None] * len(resources)
            self.index = 0

        def start(self, delay):
            self.index = 0
            self.sim._after(delay, self.step)

        def step(self, _event=None):
            index = self.index
            if index == len(self.resources):
                self.on_held()
                return
            self.index = index + 1
            self.holds[index] = self.resources[index].claim(self.step,
                                                            self.priority)

        def give_back(self):
            for resource, hold in zip(self.resources, self.holds):
                resource.give_back(hold)

    def _race(self, chain_kind, seed):
        rng = random.Random(seed)
        sim = Simulator()
        banks = [PriorityResource(sim, f"b{i}") for i in range(3)]
        seen = []
        state = {}

        def held():
            seen.append((sim.now, "held"))
            sim._after(7, released)

        def released(_event):
            state["chain"].give_back()
            seen.append((sim.now, "released",
                         [bank.busy_time() for bank in banks]))
            if sim.now < 150:
                state["chain"].start(20)

        state["chain"] = chain_kind(sim, banks, -1, held)
        state["chain"].start(0)

        def user(tag, start, bank, hold_ps):
            yield start
            grant = banks[bank].acquire()
            yield grant
            seen.append((sim.now, tag))
            yield hold_ps
            banks[bank].release(grant)

        for tag in range(20):
            sim.process(user(tag, rng.randrange(0, 160, 5),
                             rng.randrange(3), rng.choice((0, 5, 12))))
        sim.run()
        return seen, sim.events_processed, [bank.in_use for bank in banks]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_claim_per_step(self, seed):
        chain = self._race(ClaimChain, seed)
        assert chain == self._race(self.PerStepChain, seed)
        assert chain[2] == [0, 0, 0]

    def test_idle_chain_counts_one_grant_per_hold(self, sim, log):
        banks = [Resource(sim, f"b{i}") for i in range(2)]
        chain = ClaimChain(sim, banks, 0, lambda: chain.give_back())
        chain.start(5)
        sim.run()
        # The first step, a hold per resource, and the report step.
        assert sim.events_processed == 3
        assert [(log.grants(bank), log.wait_ps(bank)) for bank in banks] \
            == [(1, 0), (1, 0)]
        assert [bank.in_use for bank in banks] == [0, 0]
