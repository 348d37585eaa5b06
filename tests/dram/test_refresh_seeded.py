"""Seeded refresh races, pinned to the values of the per-step claim chain.

Each seed issues about 40 cycle-DRAM accesses over several banks, at
times on, just before and just after the nominal refresh timestamps,
plus two-step waits whose last timer lands on a refresh timestamp
behind the re-armed tREFI timer in the same-time batch.  Every figure
in ``refresh_pins.json`` was recorded from the refresh that claimed
each bank and the bus through ``Resource.claim``, one calendar entry
per step: any change to how refresh holds and returns its slots must
keep each one, event count included.
"""

import json
import os
import random

import pytest

from repro.dram import Ddr2Timing, DramController
from repro.kernel import Simulator
from tests.grantlog import GrantLog

PINS = os.path.join(os.path.dirname(__file__), "refresh_pins.json")
SEEDS = range(8)
INTERVAL = 1_000_000
ROW = 2048
SIZES = (64, 128, 256, 512, 1024, ROW + 256)
ACCESSES = 40
HORIZON = 40_000_000


def _plan(seed, rfc, burst):
    """``(waits, address, nbytes, is_write)`` per access of ``seed``."""
    rng = random.Random(seed)
    plan = []
    for __ in range(ACCESSES):
        # The nominal k-th refresh timer of an idle device.
        stamp = INTERVAL + rng.randrange(12) * (INTERVAL + rfc)
        offset = rng.choice((0, 0, -1, 1, -burst, burst, rfc - 1, rfc,
                             rfc + 1, -rng.randrange(1, INTERVAL // 2)))
        issue = max(0, stamp + offset)
        if rng.random() < 0.3:
            # Two steps: the last timer is scheduled late, often after
            # a refresh re-armed, so it can join a batch behind that
            # refresh's timer.
            first = max(0, issue - rng.randrange(1, INTERVAL // 2))
            waits = (first, issue - first)
        else:
            waits = (issue,)
        address = rng.randrange(16) * ROW + rng.choice((0, 512, 1536))
        plan.append((waits, address, rng.choice(SIZES), rng.random() < 0.5))
    return plan


def run_seed(seed, log):
    """Run one seed's accesses; return every pinned figure."""
    sim = Simulator()
    timing = Ddr2Timing(refresh_interval_ps=INTERVAL)
    ctrl = DramController(sim, "d", timing)
    done = {}

    def client(tag, waits, address, nbytes, is_write):
        for wait in waits:
            yield sim.timeout(wait)
        yield sim.process(ctrl.access(address, nbytes, is_write))
        done[tag] = sim.now

    plan = _plan(seed, timing.refresh_ps(), timing.burst_ps(1))
    for tag, (waits, address, nbytes, is_write) in enumerate(plan):
        sim.process(client(tag, waits, address, nbytes, is_write))
    sim.run(until=HORIZON)
    resources = [ctrl.bus, *ctrl._banks]
    return {
        "events": sim.events_processed,
        "done": [done.get(tag) for tag in range(len(plan))],
        "busy": [res.busy_time() for res in resources],
        "refreshes": ctrl.refreshes,
        "grants": [[log.grants(res), log.wait_ps(res)] for res in resources],
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_refresh_race_is_pinned(seed, pins, monkeypatch):
    log = GrantLog(monkeypatch)
    assert run_seed(seed, log) == pins[str(seed)]


def test_pins_cover_contended_and_idle_refreshes(pins):
    """The seeds exercise refresh both ways: the bus and most banks kept
    waiters while the accesses ran, and idle refreshes followed the last
    completion."""
    for seed in SEEDS:
        pinned = pins[str(seed)]
        assert None not in pinned["done"]
        assert max(pinned["done"]) < HORIZON - 5 * INTERVAL
        assert pinned["grants"][0][1] > 0
        assert sum(1 for __, wait in pinned["grants"] if wait) >= 8
