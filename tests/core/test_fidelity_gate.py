"""The fidelity gate's speed check (``benchmarks/bench_fidelity.py``): a
ceiling on the calibrated fast replay's cost at the reference host
speed, not a cycle/fast ratio.

Every verdict here is independent of how fast the test host is: the
stubbed clock advances only by what a replay is said to take, and the
real slowed replay's sleep lasts at least its argument while its probe
is pinned to the reference speed.
"""

import importlib.util
import os
import time

import pytest

from repro.core import calibrate
from repro.core.tracereplay import TraceWorkload, replay_trace
from repro.ssd import SsdArchitecture

_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                     "bench_fidelity.py")
_SPEC = importlib.util.spec_from_file_location("bench_fidelity", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

CEILING = bench.MAX_FAST_REPLAY_S


class StubHost:
    """A clock that only replays advance, and a probe at a fixed speed
    (``slowdown`` times the reference host's probe time)."""

    def __init__(self, slowdown=1.0):
        self.now = 0.0
        self.probe_s = bench.REFERENCE_S * slowdown

    def clock(self):
        return self.now

    def probe(self):
        return self.probe_s

    def replays(self, *seconds):
        """A replay whose successive runs take ``seconds``, cycled."""
        runs = iter(seconds * bench.RUNS)

        def replay():
            self.now += next(runs)
        return replay

    def measure(self, *seconds):
        return bench.normalized_seconds(self.replays(*seconds),
                                        clock=self.clock, probe=self.probe)


def test_gate_takes_the_median_of_at_least_ten_replays():
    assert bench.RUNS >= 10
    samples = StubHost().measure(0.5 * CEILING)
    assert samples == [pytest.approx(0.5 * CEILING)] * bench.RUNS


def test_quick_fast_replay_passes():
    assert bench.speed_failure(StubHost().measure(0.5 * CEILING)) is None


def test_slowed_fast_replay_fails():
    failure = bench.speed_failure(StubHost().measure(2 * CEILING))
    assert failure is not None and "ceiling" in failure


def test_host_speed_is_normalized_away():
    # 1.5x the ceiling in raw seconds on a host half the reference speed
    # is 0.75x at the reference speed; on a host twice as fast, 0.6x the
    # ceiling in raw seconds is 1.2x.
    assert bench.speed_failure(
        StubHost(slowdown=2.0).measure(1.5 * CEILING)) is None
    assert bench.speed_failure(
        StubHost(slowdown=0.5).measure(0.6 * CEILING)) is not None


def test_one_slow_replay_does_not_fail_the_median():
    host = StubHost()
    samples = host.measure(10 * CEILING, *[0.5 * CEILING] * 9)
    assert max(samples) == pytest.approx(10 * CEILING)
    assert bench.speed_failure(samples) is None


def test_real_fast_replay_slowed_by_a_sleep_fails():
    arch = SsdArchitecture()
    fast = arch.with_fidelity(calibrate(arch).to_fidelity())
    workload = TraceWorkload.from_file(bench.TRACE)
    events = []

    def slowed():
        events.append(replay_trace(workload, arch=fast).result.events)
        time.sleep(2 * CEILING)

    samples = bench.normalized_seconds(
        slowed, runs=3, probe=lambda: bench.REFERENCE_S)
    assert events == [events[0]] * 3 and events[0] > 0
    assert min(samples) >= 2 * CEILING
    assert bench.speed_failure(samples) is not None
