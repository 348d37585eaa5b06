"""Coroutine processes.

A :class:`Process` wraps a Python generator and advances it each time the
event it yielded triggers — the same execution model as SystemC's dynamic
``SC_THREAD``s or simpy processes.  A process may yield:

* a plain non-negative ``int`` — a delay of that many ps.  This is the
  allocation-free wait: the process resumes from a bare calendar entry,
  with no event object, at the place a ``Timeout`` would have had;
* an :class:`~repro.kernel.events.Event` (including a ``Timeout``, for a
  delay that something else also waits on),
* another :class:`Process` (wait for it to finish; receives its return value).

The generator's ``return`` value becomes the process event's payload.
"""

from __future__ import annotations

from heapq import heappush
from types import GeneratorType
from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import PENDING, Event, SimulationError, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

ProcessGenerator = Generator[Any, Any, Any]


class Process(Event):
    """A running coroutine; also an event that fires when it terminates."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if generator.__class__ is GeneratorType:
            name = name or generator.__name__
        elif hasattr(generator, "send") and hasattr(generator, "throw"):
            name = name or getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"process target must be a generator, got {generator!r}")
        # Inline Event constructor: one of these per process.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.generator = generator
        # Kick off at the current simulation time as a bare calendar entry
        # (called with None), where _after(0, ...) would put it.
        batch = sim._buckets.get(sim._now)
        if batch is None:
            sim._after(0, self._resume)
        else:
            batch.append(self._resume)

    def _resume(self, event: Optional[Event]) -> None:
        """Send ``event``'s value into the generator (or throw its
        exception) and wait on what the generator yields next.

        ``event`` is None when the process resumes from a bare calendar
        entry (its bootstrap, or the end of an ``int`` delay): the
        generator is sent None.
        """
        if event is None:
            ok, value = True, None
        else:
            ok, value = event._ok, event._value
        while True:
            try:
                if ok:
                    target = self.generator.send(value)
                else:
                    target = self.generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if isinstance(target, int):
                # A delay: this method, bound, is the calendar entry.
                if target < 0:
                    raise ValueError(
                        f"timeout delay must be >= 0, got {target}")
                sim = self.sim
                when = sim._now + target
                bucket = sim._buckets.get(when)
                if bucket is None:
                    sim._buckets[when] = [self._resume]
                    heappush(sim._times, when)
                else:
                    bucket.append(self._resume)
                return
            if isinstance(target, Event):
                if target.callbacks is None:
                    # Already over: resume immediately (same sim time) via
                    # a fresh relay so recursion depth stays bounded.
                    relay = Timeout(self.sim, 0, target._value)
                    relay._ok = target._ok
                    target = relay
                target.callbacks.append(self._resume)
                return
            # Not something to wait on: the error goes back into the
            # generator, which may catch it and yield again.
            ok, value = False, SimulationError(
                f"process {self.name} yielded {target!r}; expected "
                f"Event, Process or int delay")
