"""The discrete-event simulation core.

:class:`Simulator` owns the event calendar and the simulated clock.  It
plays the role SystemC's kernel plays for the original SSDExplorer:
components schedule timed events, processes synchronize on them, and
:meth:`Simulator.run` advances virtual time until the calendar drains or a
limit is reached.

The calendar is a two-level structure tuned for the simulator's dominant
access pattern (many events sharing a timestamp):

* ``_times`` — a binary heap of *distinct* pending timestamps;
* ``_buckets`` — a dict mapping each pending timestamp to the FIFO list of
  entries scheduled there: events, or bare callbacks from
  :meth:`Simulator._after`, each run with ``None`` as one event.

Scheduling an event at an already-pending timestamp is a plain list append
(no heap operation, no ``(time, seq, event)`` tuple), and :meth:`run`
drains a whole same-time batch per heap pop.  Events scheduled *at* the
current time while a batch is draining join the tail of the live batch, so
same-time cascades never re-heapify.  FIFO order within a timestamp is the
list order, which preserves schedule order exactly as the old
``(time, sequence)`` key did.

Statistics that later feed the Fig. 6 "simulation speed" experiment are kept
here too: the kernel counts processed events and exposes wall-clock totals.
"""

from __future__ import annotations

import heapq
import time as _wall_time
from types import FunctionType, MethodType
from typing import Any, Callable, Dict, List, Optional

from .events import Condition, Event, SimulationError, Timeout, all_of
from .process import Process, ProcessGenerator


class Simulator:
    """A timed discrete-event simulator with coroutine processes."""

    def __init__(self) -> None:
        self._now: int = 0
        #: Heap of distinct pending timestamps.
        self._times: List[int] = []
        #: FIFO batch of events or bare callbacks per pending timestamp.
        self._buckets: Dict[int, list] = {}
        #: Number of events processed since construction.
        self.events_processed: int = 0
        #: Wall-clock seconds spent inside :meth:`run`.
        self.wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the calendar is empty."""
        return self._times[0] if self._times else None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _schedule_event(self, event: Event, delay: int = 0) -> None:
        # Callers pass delay >= 0: Timeout checks it, the rest pass 0.
        when = self._now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heapq.heappush(self._times, when)
        else:
            bucket.append(event)

    def _after(self, delay: int, callback: Callable[[None], None]) -> None:
        """Run ``callback(None)`` after ``delay`` ps as one kernel event.

        The callback, a bound method or function, is itself the calendar
        entry: a step of a callback chain allocates no event object.
        """
        cls = callback.__class__
        if cls is not MethodType and cls is not FunctionType:
            raise TypeError(
                f"_after needs a bound method or function, got {callback!r}")
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        when = self._now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [callback]
            heapq.heappush(self._times, when)
        else:
            bucket.append(callback)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` picoseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> Condition:
        """Event that fires once every listed event has fired."""
        return all_of(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[Any] = None) -> Any:
        """Advance simulation.

        ``until`` may be:

        * ``None`` — run until the event calendar is empty;
        * an ``int`` — absolute sim time at which to stop (events at exactly
          that time are still processed);
        * an :class:`Event` — run until that event has been processed, then
          return its value (re-raising its exception if it failed).

        ``bool`` is rejected explicitly: ``run(until=True)`` would otherwise
        silently parse as ``run(until=1)``.
        """
        stop_time: Optional[int] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            if until.processed:
                # Already done: answer at once, without touching the calendar.
                if not until.ok:
                    raise until.value
                return until.value
            stop_event = until
        elif isinstance(until, bool):
            raise TypeError(f"until must be None, int or Event, got {until!r}")
        elif isinstance(until, int):
            stop_time = until
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})")
        elif until is not None:
            raise TypeError(f"until must be None, int or Event, got {until!r}")

        started = _wall_time.perf_counter()
        processed = 0
        # Hot-attribute locals: the loop below runs once per event batch and
        # once per event; every dotted lookup it avoids is measurable.
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        push_time = heapq.heappush
        method_type, function_type = MethodType, FunctionType
        try:
            while times:
                when = times[0]
                if stop_time is not None and when > stop_time:
                    self._now = stop_time
                    break
                pop_time(times)
                self._now = when
                batch = buckets[when]
                first = processed
                # Drain the whole same-time batch in FIFO order.  Entries
                # scheduled at `now` during the drain append to this same
                # list, and the list iterator reaches them too.
                for entry in batch:
                    processed += 1
                    cls = entry.__class__
                    if cls is method_type or cls is function_type:
                        entry(None)
                    else:
                        callbacks = entry.callbacks
                        entry.callbacks = None
                        if callbacks:
                            for callback in callbacks:
                                callback(entry)
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                else:
                    del buckets[when]
                    continue
                # The until-event fired: keep the unprocessed tail of the
                # batch scheduled so a later run() resumes exactly here.
                done = processed - first
                if done < len(batch):
                    buckets[when] = batch[done:]
                    push_time(times, when)
                else:
                    del buckets[when]
                break
            else:
                if stop_time is not None:
                    self._now = max(self._now, stop_time)
        finally:
            self.events_processed += processed
            self.wall_seconds += _wall_time.perf_counter() - started

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the calendar before the event "
                    f"fired: {stop_event!r}")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None
