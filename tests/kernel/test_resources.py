"""Tests for Resource and PriorityResource."""

import gc
import heapq

import pytest

from repro.kernel import (PriorityResource, Resource, SimulationError,
                          Simulator)
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

