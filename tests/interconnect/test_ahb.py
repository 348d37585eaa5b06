"""Tests for the AMBA AHB bus, arbiter, and multi-layer variant."""

import pytest

from repro.interconnect import (AhbBus, AhbSlaveConfig, MAX_MASTERS,
                                MAX_SLAVES, MultiLayerAhbBus,
                                RoundRobinArbiter)
from repro.kernel import Simulator
from repro.kernel.simtime import Clock, ns, us

CYCLE = 5000  # 200 MHz in ps


@pytest.fixture
def sim():
    return Simulator()


def make_bus(sim, **slave_kwargs):
    bus = AhbBus(sim, "ahb")
    bus.attach_slave(AhbSlaveConfig(name="mem", **slave_kwargs))
    return bus


class TestArbiter:
    def test_immediate_grant_when_idle(self, sim):
        arbiter = RoundRobinArbiter(sim, Clock("c", frequency_hz=200e6), 4)
        event = arbiter.request(2)
        assert event.triggered
        assert arbiter.owner == 2

    def test_round_robin_order(self, sim):
        arbiter = RoundRobinArbiter(sim, Clock("c", frequency_hz=200e6), 4)
        order = []

        def user(master_id, hold):
            grant = arbiter.request(master_id)
            yield grant
            order.append(master_id)
            yield hold
            arbiter.release(master_id)

        # Master 3 grabs first; 0..2 queue. RR pointer wraps from 3 to 0.
        sim.process(user(3, 100))
        sim.process(user(2, 100))
        sim.process(user(0, 100))
        sim.process(user(1, 100))
        sim.run()
        assert order == [3, 0, 1, 2]

    def test_release_by_non_owner_raises(self, sim):
        from repro.kernel import SimulationError
        arbiter = RoundRobinArbiter(sim, Clock("c", frequency_hz=200e6), 2)
        arbiter.request(0)
        with pytest.raises(SimulationError):
            arbiter.release(1)

    def test_master_id_validation(self, sim):
        arbiter = RoundRobinArbiter(sim, Clock("c", frequency_hz=200e6), 2)
        with pytest.raises(ValueError):
            arbiter.request(2)
        with pytest.raises(ValueError):
            RoundRobinArbiter(sim, Clock("c", frequency_hz=200e6), 0)

    def test_rearbitration_costs_one_cycle(self, sim):
        arbiter = RoundRobinArbiter(sim, Clock("c", period_ps=CYCLE), 2)
        grant_times = []

        def user(master_id):
            grant = arbiter.request(master_id)
            yield grant
            grant_times.append((master_id, sim.now))
            yield 100
            arbiter.release(master_id)

        sim.process(user(0))
        sim.process(user(1))
        sim.run()
        assert grant_times[0] == (0, 0)
        assert grant_times[1] == (1, 100 + CYCLE)


class TestAhbTransfers:
    def test_beats_rounding(self, sim):
        bus = make_bus(sim)
        assert bus.beats_for(4) == 1
        assert bus.beats_for(5) == 2
        assert bus.beats_for(4096) == 1024
        with pytest.raises(ValueError):
            bus.beats_for(0)

    def test_single_beat_timing(self, sim):
        bus = make_bus(sim)
        port = bus.attach_master("cpu")
        elapsed = sim.run(until=sim.process(port.write("mem", 4)))
        # 1 address + 1 data cycle, no contention.
        assert elapsed == 2 * CYCLE

    def test_burst_timing(self, sim):
        bus = make_bus(sim)
        port = bus.attach_master("dma")
        elapsed = sim.run(until=sim.process(port.read("mem", 64)))
        assert elapsed == (1 + 16) * CYCLE

    def test_wait_states_slow_beats(self, sim):
        bus = make_bus(sim, wait_states=2)
        port = bus.attach_master("dma")
        elapsed = sim.run(until=sim.process(port.read("mem", 16)))
        assert elapsed == (1 + 4 * 3) * CYCLE

    def test_unknown_slave_raises(self, sim):
        bus = make_bus(sim)
        port = bus.attach_master("cpu")
        with pytest.raises(KeyError):
            sim.run(until=sim.process(port.read("nope", 4)))

    def test_contention_serializes(self, sim):
        bus = make_bus(sim)
        port_a = bus.attach_master("a")
        port_b = bus.attach_master("b")
        finishes = {}

        def client(port, tag):
            yield sim.process(port.write("mem", 64))
            finishes[tag] = sim.now

        sim.process(client(port_a, "a"))
        sim.process(client(port_b, "b"))
        sim.run()
        assert finishes["a"] == 17 * CYCLE
        # b re-arbitrates one cycle after a releases, then 17 cycles.
        assert finishes["b"] == finishes["a"] + 18 * CYCLE

    def test_split_frees_bus_during_slave_latency(self, sim):
        bus = AhbBus(sim, "ahb")
        bus.attach_slave(AhbSlaveConfig(name="slow", access_latency_ps=us(1),
                                        supports_split=True))
        bus.attach_slave(AhbSlaveConfig(name="fast"))
        slow_port = bus.attach_master("a")
        fast_port = bus.attach_master("b")
        finishes = {}

        def slow_client():
            yield sim.process(slow_port.read("slow", 4))
            finishes["slow"] = sim.now

        def fast_client():
            yield sim.timeout(CYCLE)  # let the slow client win the bus
            yield sim.process(fast_port.read("fast", 4))
            finishes["fast"] = sim.now

        sim.process(slow_client())
        sim.process(fast_client())
        sim.run()
        # The fast client completes during the slow slave's split window.
        assert finishes["fast"] < us(1)
        assert finishes["slow"] > us(1)
        assert bus.splits == 1

    def test_no_split_stalls_bus(self, sim):
        bus = AhbBus(sim, "ahb")
        bus.attach_slave(AhbSlaveConfig(name="slow", access_latency_ps=us(1),
                                        supports_split=False))
        bus.attach_slave(AhbSlaveConfig(name="fast"))
        slow_port = bus.attach_master("a")
        fast_port = bus.attach_master("b")
        finishes = {}

        def slow_client():
            yield sim.process(slow_port.read("slow", 4))
            finishes["slow"] = sim.now

        def fast_client():
            yield sim.timeout(CYCLE)
            yield sim.process(fast_port.read("fast", 4))
            finishes["fast"] = sim.now

        sim.process(slow_client())
        sim.process(fast_client())
        sim.run()
        assert finishes["fast"] > us(1)

    def test_utilization_tracks_phases(self, sim):
        bus = make_bus(sim)
        port = bus.attach_master("cpu")

        def flow():
            yield sim.process(port.write("mem", 4))
            yield sim.timeout(2 * CYCLE)  # idle tail

        sim.run(until=sim.process(flow()))
        assert bus.utilization() == pytest.approx(0.5)

    def test_topology_limits(self, sim):
        bus = AhbBus(sim, "ahb")
        for i in range(MAX_MASTERS):
            bus.attach_master(f"m{i}")
        with pytest.raises(ValueError):
            bus.attach_master("extra")
        for i in range(MAX_SLAVES):
            bus.attach_slave(AhbSlaveConfig(name=f"s{i}"))
        with pytest.raises(ValueError):
            bus.attach_slave(AhbSlaveConfig(name="extra"))

    def test_duplicate_slave_rejected(self, sim):
        bus = make_bus(sim)
        with pytest.raises(ValueError):
            bus.attach_slave(AhbSlaveConfig(name="mem"))


class TestMultiLayerAhb:
    def test_different_slaves_do_not_contend(self, sim):
        bus = MultiLayerAhbBus(sim)
        bus.attach_slave(AhbSlaveConfig(name="s0"))
        bus.attach_slave(AhbSlaveConfig(name="s1"))
        port_a = bus.attach_master("a")
        port_b = bus.attach_master("b")
        finishes = {}

        def client(port, slave, tag):
            yield sim.process(port.write(slave, 64))
            finishes[tag] = sim.now

        sim.process(client(port_a, "s0", "a"))
        sim.process(client(port_b, "s1", "b"))
        sim.run()
        assert finishes["a"] == finishes["b"] == 17 * CYCLE

    def test_same_slave_contends(self, sim):
        bus = MultiLayerAhbBus(sim)
        bus.attach_slave(AhbSlaveConfig(name="s0"))
        port_a = bus.attach_master("a")
        port_b = bus.attach_master("b")
        finishes = {}

        def client(port, tag):
            yield sim.process(port.write("s0", 64))
            finishes[tag] = sim.now

        sim.process(client(port_a, "a"))
        sim.process(client(port_b, "b"))
        sim.run()
        assert finishes["a"] < finishes["b"]

    def test_unknown_slave(self, sim):
        bus = MultiLayerAhbBus(sim)
        port = bus.attach_master("a")
        with pytest.raises(KeyError):
            sim.run(until=sim.process(port.read("ghost", 4)))


class TestArbitrationProperties:
    """Hypothesis stress tests on round-robin fairness."""

    def test_no_starvation_under_saturation(self, sim):
        """With every master constantly requesting, grant counts stay
        within one round of each other (round-robin fairness)."""
        bus = AhbBus(sim, "ahb")
        bus.attach_slave(AhbSlaveConfig(name="mem"))
        ports = [bus.attach_master(f"m{i}") for i in range(6)]
        grants = {i: 0 for i in range(6)}

        def hammer(index, port):
            for __ in range(10):
                yield sim.process(port.write("mem", 16))
                grants[index] += 1

        for index, port in enumerate(ports):
            sim.process(hammer(index, port))
        sim.run()
        assert all(count == 10 for count in grants.values())

    def test_interleaving_under_contention(self, sim):
        """No master gets two consecutive grants while others wait."""
        from hypothesis import given, settings, strategies as st
        bus = AhbBus(sim, "ahb")
        bus.attach_slave(AhbSlaveConfig(name="mem"))
        ports = [bus.attach_master(f"m{i}") for i in range(3)]
        order = []

        def hammer(index, port):
            for __ in range(5):
                yield sim.process(port.write("mem", 4))
                order.append(index)

        for index, port in enumerate(ports):
            sim.process(hammer(index, port))
        sim.run()
        # While all three compete (first 12 grants), no immediate repeats.
        competitive = order[:12]
        repeats = sum(1 for a, b in zip(competitive, competitive[1:])
                      if a == b)
        assert repeats == 0, order
