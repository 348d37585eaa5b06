"""Tests for the event calendar, processes and run-loop semantics."""

import pytest

from repro.kernel import SimulationError, Simulator, us


@pytest.fixture
def sim():
    return Simulator()


class TestEventBasics:
    def test_fresh_event_is_pending(self, sim):
        event = sim.event("e")
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            __ = sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            __ = sim.event().ok

    def test_succeed_carries_value(self, sim):
        event = sim.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_fail_carries_exception(self, sim):
        error = RuntimeError("boom")
        event = sim.event().fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event().succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["x"]


class TestTimeoutOrdering:
    def test_timeouts_fire_in_time_order(self, sim):
        order = []
        for delay in (30, 10, 20):
            sim.timeout(delay).add_callback(
                lambda ev, d=delay: order.append((sim.now, d)))
        sim.run()
        assert order == [(10, 10), (20, 20), (30, 30)]

    def test_same_time_fifo_order(self, sim):
        order = []
        for tag in range(5):
            sim.timeout(100).add_callback(lambda ev, t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_fires_at_now(self, sim):
        fired = []
        sim.timeout(0).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [0]


class TestRunUntil:
    def test_run_until_time_stops_clock_there(self, sim):
        sim.timeout(us(10))
        sim.run(until=us(3))
        assert sim.now == us(3)

    def test_events_at_stop_time_still_processed(self, sim):
        hits = []
        sim.timeout(us(3)).add_callback(lambda ev: hits.append(sim.now))
        sim.run(until=us(3))
        assert hits == [us(3)]

    def test_run_until_past_raises(self, sim):
        sim.timeout(10)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(100)
            return "done"
        assert sim.run(until=sim.process(proc())) == "done"

    def test_run_until_event_reraises_failure(self, sim):
        def proc():
            yield sim.timeout(1)
            raise ValueError("inner")
        with pytest.raises(ValueError, match="inner"):
            sim.run(until=sim.process(proc()))

    def test_run_until_processed_event_dispatches_nothing(self, sim):
        done = sim.timeout(5, value="first")
        assert sim.run(until=done) == "first"
        hits = []
        sim.timeout(10).add_callback(lambda ev: hits.append(sim.now))
        before = sim.events_processed
        assert sim.run(until=done) == "first"
        assert (sim.now, hits, sim.events_processed) == (5, [], before)
        assert sim.peek() == 15  # the callback is still scheduled

    def test_run_until_processed_failed_event_reraises(self, sim):
        def proc():
            yield sim.timeout(1)
            raise ValueError("inner")
        failed = sim.process(proc())
        with pytest.raises(ValueError, match="inner"):
            sim.run(until=failed)
        sim.timeout(10)
        with pytest.raises(ValueError, match="inner"):
            sim.run(until=failed)
        assert sim.now == 1

    def test_run_until_never_fired_event_raises(self, sim):
        orphan = sim.event()
        sim.timeout(10)
        with pytest.raises(SimulationError):
            sim.run(until=orphan)

    def test_run_drains_calendar(self, sim):
        sim.timeout(5)
        sim.timeout(9)
        sim.run()
        assert sim.peek() is None
        assert sim.now == 9

    def test_until_bad_type_raises(self, sim):
        with pytest.raises(TypeError):
            sim.run(until=3.5)

    def test_events_processed_counter(self, sim):
        for __ in range(7):
            sim.timeout(1)
        sim.run()
        assert sim.events_processed == 7


class TestProcesses:
    def test_yield_int_is_timeout(self, sim):
        times = []

        def proc():
            yield 100
            times.append(sim.now)
            yield 50
            times.append(sim.now)

        sim.run(until=sim.process(proc()))
        assert times == [100, 150]

    def test_return_value_is_event_payload(self, sim):
        def proc():
            yield 1
            return 99
        assert sim.run(until=sim.process(proc())) == 99

    def test_wait_on_process(self, sim):
        def child():
            yield 100
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        assert sim.run(until=sim.process(parent())) == (100, "child-result")

    def test_wait_on_already_finished_process(self, sim):
        def child():
            yield 10
            return "early"

        def parent(child_proc):
            yield 500
            result = yield child_proc
            return (sim.now, result)

        child_proc = sim.process(child())
        assert sim.run(until=sim.process(parent(child_proc))) == (500, "early")

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield 10
            raise KeyError("nope")

        def parent():
            try:
                yield sim.process(child())
            except KeyError:
                return "caught"
            return "missed"

        assert sim.run(until=sim.process(parent())) == "caught"

    def test_yield_bad_value_fails_process(self, sim):
        def proc():
            yield "garbage"

        with pytest.raises(SimulationError):
            sim.run(until=sim.process(proc()))

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_many_sequential_zero_delays_do_not_recurse(self, sim):
        # Regression guard: resuming on already-processed events must not
        # blow the Python stack.
        def proc():
            for __ in range(5000):
                done = sim.event().succeed()
                sim.run  # no-op touch to keep the loop honest
                yield done
            return "ok"

        assert sim.run(until=sim.process(proc())) == "ok"


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def make(delay, value):
            yield delay
            return value

        def main():
            procs = [sim.process(make(d, v)) for d, v in ((30, "a"), (10, "b"))]
            results = yield sim.all_of(procs)
            return (sim.now, sorted(results.values()))

        assert sim.run(until=sim.process(main())) == (30, ["a", "b"])

    def test_all_of_propagates_failure(self, sim):
        def bad():
            yield 5
            raise RuntimeError("broken child")

        def good():
            yield 50

        def main():
            with pytest.raises(RuntimeError):
                yield sim.all_of([sim.process(bad()), sim.process(good())])
            return "handled"

        assert sim.run(until=sim.process(main())) == "handled"

    def test_empty_condition_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.all_of([])


class TestKernelTimers:
    """``Simulator._after``: the callback itself is the calendar entry."""

    def test_after_runs_the_bare_callback_with_none(self, sim):
        seen = []
        returned = sim._after(40, lambda entry: seen.append((sim.now, entry)))
        assert returned is None
        sim.run()
        assert seen == [(40, None)]
        assert sim.events_processed == 1

    def test_bare_entries_and_events_run_in_schedule_order(self, sim):
        order = []
        sim._after(10, lambda _entry: order.append("bare-1"))
        sim.timeout(10).callbacks.append(lambda _ev: order.append("timeout"))
        sim._after(10, lambda _entry: order.append("bare-2"))

        def at_ten():
            yield 10
            order.append("process")
            sim._after(0, lambda _entry: order.append("bare-3"))
            sim.event().succeed().callbacks.append(
                lambda _ev: order.append("event"))

        sim.process(at_ten())
        sim.run()
        assert order == ["bare-1", "timeout", "bare-2", "process", "bare-3",
                         "event"]
        # Bootstrap, three entries at 10, the sleep, two at the tail and
        # the process's own completion.
        assert sim.events_processed == 8

    def test_after_takes_a_bound_method(self, sim):
        class Step:
            def __init__(self):
                self.seen = []

            def run(self, entry):
                self.seen.append((sim.now, entry))

        step = Step()
        sim._after(7, step.run)
        sim.run()
        assert step.seen == [(7, None)]

    def test_after_rejects_other_callables(self, sim):
        with pytest.raises(TypeError):
            sim._after(0, [].append)
        assert sim.peek() is None

    def test_after_rejects_a_negative_delay(self, sim):
        with pytest.raises(ValueError):
            sim._after(-1, lambda _entry: None)

    def test_failed_relay_reaches_the_waiter_and_later_steps_run(self, sim):
        failed = sim.event()
        failed.fail(RuntimeError("boom"))
        sim.run()
        caught = []

        def waiter():
            # Yielding an already-processed failed event goes through a
            # relay timer that carries the failure.
            try:
                yield failed
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["boom"]
        seen = []
        sim._after(0, lambda entry: seen.append(entry))
        sim.run()
        assert seen == [None]


class TestUntilInsideABareEntry:
    """``run(until=ev)`` where ``ev`` is processed inline by a bare
    calendar entry (``_SpaceWaiter._wake`` calls ``Event._process()``):
    the stop check follows every entry, not only event entries."""

    def test_stops_at_that_entry_and_keeps_the_batch_tail(self, sim):
        from repro.dram import DEFAULT_DDR2, BufferManager

        manager = BufferManager(sim, "buffers", 1, DEFAULT_DDR2, 1,
                                capacity_bytes_per_buffer=100,
                                enable_refresh=False)
        order = []

        def writer(tag, nbytes):
            yield from manager.reserve(0, nbytes)
            order.append((tag, sim.now))

        sim.process(writer("first", 100))
        sim.process(writer("blocked", 60))
        sim.run()
        assert order == [("first", 0)]
        waiter = manager._space_waiters[0][0]

        def drain(_entry):
            order.append(("drain", sim.now))
            manager.release(0, 100)     # schedules waiter._wake at now
            sim._after(0, lambda _e: order.append(("tail", sim.now)))

        sim._after(10, drain)
        sim._after(10, lambda _e: order.append(("same-time", sim.now)))
        assert sim.run(until=waiter) is None
        # _wake processed the waiter, which resumed the writer inline;
        # the entries after it in the t=10 batch are still scheduled.
        assert order == [("first", 0), ("drain", 10), ("same-time", 10),
                         ("blocked", 10)]
        assert waiter.processed and sim.now == 10
        assert sim.peek() == 10
        sim.run()
        assert order[-1] == ("tail", 10)
        assert manager.occupancy(0) == 60
