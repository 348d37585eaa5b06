"""Contract of the allocation-free delay: a process that yields an ``int``.

A process that yields a plain non-negative ``int`` resumes from a bare
calendar entry instead of a :class:`~repro.kernel.events.Timeout`.  The
entry takes the place the Timeout would have had, so a model written
either way processes the same events in the same order; these tests pin
that, and the edge cases of the int form.
"""

import random

import pytest

from repro.kernel import Resource, Simulator
from repro.kernel.events import Timeout


def _run_mix(seed, use_timeout):
    """A seeded mix of processes that share a resource, hand events to
    each other and spawn children; returns ``(events_processed, log)``
    where the log holds ``(time, owner)`` for every resume in order."""
    sim = Simulator()
    rng = random.Random(seed)
    bus = Resource(sim, "bus", capacity=2)
    log = []
    mailbox = [sim.event("mail")]

    def wait(delay):
        return sim.timeout(delay) if use_timeout else delay

    def child(owner, delay):
        yield wait(delay)
        log.append((sim.now, owner))
        return delay

    def worker(owner, steps):
        for step in range(steps):
            roll = rng.random()
            if roll < 0.45:
                # Small delays so many entries share a timestamp.
                yield wait(rng.choice((0, 0, 1, 3, 5, 8)))
            elif roll < 0.7:
                grant = bus.acquire()
                yield grant
                log.append((sim.now, owner + ".held"))
                yield wait(rng.randrange(0, 6))
                bus.release(grant)
            elif roll < 0.8:
                event = mailbox[-1]
                if not event.triggered:
                    event.succeed(owner)
                    mailbox.append(sim.event("mail"))
                else:
                    yield event
            elif roll < 0.9:
                value = yield sim.process(
                    child(f"{owner}.child{step}", rng.randrange(0, 4)))
                log.append((sim.now, f"{owner}.joined{value}"))
            else:
                yield sim.all_of([sim.process(child(f"{owner}.a{step}", 2)),
                                  sim.process(child(f"{owner}.b{step}", 0))])
            log.append((sim.now, owner))

    for index in range(12):
        sim.process(worker(f"w{index}", 40))
    sim.run()
    return sim.events_processed, log


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_int_delay_processes_the_timeout_events_in_its_order(seed):
    events_int, log_int = _run_mix(seed, use_timeout=False)
    events_timeout, log_timeout = _run_mix(seed, use_timeout=True)
    assert events_int == events_timeout
    assert log_int == log_timeout
    assert len(log_int) > 400
    # The mix does put several resumes on one timestamp.
    times = [when for when, __ in log_int]
    assert len(set(times)) < len(times) // 2


def _count_timeouts(monkeypatch):
    built = []
    init = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    return built


def test_int_delay_builds_no_timeout(monkeypatch):
    built = _count_timeouts(monkeypatch)
    sim = Simulator()

    def delays():
        for delay in (5, 0, 7, 0, 11):
            yield delay
        return sim.now

    assert sim.run(until=sim.process(delays())) == 23
    assert built == []
    assert sim.events_processed == 7  # bootstrap, five delays, the exit


def test_timeout_is_still_built_for_a_shared_wait(monkeypatch):
    built = _count_timeouts(monkeypatch)
    sim = Simulator()

    def waits():
        yield sim.timeout(5)

    sim.run(until=sim.process(waits()))
    assert len(built) == 1


def test_negative_int_delay_raises_out_of_run():
    sim = Simulator()

    def backwards():
        yield -1

    sim.process(backwards())
    with pytest.raises(ValueError, match="must be >= 0"):
        sim.run()


def test_true_waits_one_picosecond():
    sim = Simulator()

    def tick():
        yield True
        return sim.now

    assert sim.run(until=sim.process(tick())) == 1


def test_float_delay_is_refused_into_the_generator():
    sim = Simulator()

    def fractional():
        try:
            yield 1.5
        except Exception as exc:
            return type(exc).__name__

    assert sim.run(until=sim.process(fractional())) == "SimulationError"


def test_default_process_name_is_the_generator_name():
    sim = Simulator()

    def program_page():
        yield 1

    assert sim.process(program_page()).name == "program_page"
    assert sim.process(program_page(), name="custom").name == "custom"
