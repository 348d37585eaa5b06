"""Property-based stress tests for the DES kernel.

These pin the invariants every model above relies on: global time order,
FIFO fairness, resource conservation, and process isolation.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import Resource, Simulator


class TestEventOrderingProperties:
    @given(delays=st.lists(st.integers(0, 10**9), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_callbacks_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.timeout(delay).add_callback(
                lambda ev, d=delay: fired.append((sim.now, d)))
        sim.run()
        times = [when for when, __ in fired]
        assert times == sorted(times)
        assert sorted(d for __, d in fired) == sorted(delays)
        assert sim.now == max(delays)

    @given(delays=st.lists(st.integers(0, 1000), min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_equal_times_fifo(self, delays):
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.timeout(delay).add_callback(
                lambda ev, i=index: fired.append(i))
        sim.run()
        # Among events with equal delay, creation order is preserved.
        by_delay = {}
        for index in fired:
            by_delay.setdefault(delays[index], []).append(index)
        for indices in by_delay.values():
            assert indices == sorted(indices)


class TestProcessProperties:
    @given(steps=st.lists(st.integers(1, 1000), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sequential_delays_sum(self, steps):
        sim = Simulator()

        def walker():
            for step in steps:
                yield step

        sim.run(until=sim.process(walker()))
        assert sim.now == sum(steps)

    @given(n_processes=st.integers(1, 30), delay=st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_parallel_processes_independent(self, n_processes, delay):
        sim = Simulator()
        finished = []

        def worker(tag):
            yield delay
            finished.append(tag)

        for tag in range(n_processes):
            sim.process(worker(tag))
        sim.run()
        assert sorted(finished) == list(range(n_processes))
        assert sim.now == delay


class TestResourceProperties:
    @given(holds=st.lists(st.integers(1, 500), min_size=1, max_size=30),
           capacity=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_fairness(self, holds, capacity):
        """Every requester is eventually served exactly once, the resource
        is never over-committed, and same-priority FIFO order holds."""
        sim = Simulator()
        resource = Resource(sim, "r", capacity=capacity)
        served = []
        peak = [0]

        def user(tag, hold):
            grant = resource.acquire()
            yield grant
            served.append(tag)
            peak[0] = max(peak[0], resource.in_use)
            yield hold
            resource.release(grant)

        for tag, hold in enumerate(holds):
            sim.process(user(tag, hold))
        sim.run()
        assert sorted(served) == list(range(len(holds)))
        assert peak[0] <= capacity
        assert resource.in_use == 0
        # First `capacity` admissions happen immediately in FIFO order.
        assert served[:capacity] == list(range(min(capacity, len(holds))))

    @given(holds=st.lists(st.integers(1, 100), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_busy_time_bounded_by_elapsed(self, holds):
        sim = Simulator()
        resource = Resource(sim, "r", capacity=1)

        def user(hold):
            grant = resource.acquire()
            yield grant
            yield hold
            resource.release(grant)

        for hold in holds:
            sim.process(user(hold))
        sim.run()
        assert resource.busy_time() == sum(holds)
        assert resource.busy_time() <= sim.now

