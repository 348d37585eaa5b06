"""Shared-resource primitives built on events.

These model the contention points of the SSD microarchitecture: a
:class:`Resource` is a counted semaphore with a FIFO grant queue (an ONFI
channel data bus, a DMA engine, a DRAM data bus); a
:class:`PriorityResource` lets urgent requesters (e.g. refresh logic) jump
the queue.

Usage from a process::

    grant = yield bus.acquire()
    ...use the bus...
    bus.release(grant)
"""

from __future__ import annotations

import heapq
from collections import deque
from types import FunctionType, MethodType
from typing import Callable, Deque, Optional, Sequence, TYPE_CHECKING

from .events import PENDING, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


def _nothing_held(resource: "Resource") -> SimulationError:
    # A slot returned while none is held would drive in_use below zero
    # and let the resource admit more holders than its capacity.
    return SimulationError(
        f"{resource.name}: slot given back, but no slot is held")


class Grant(Event):
    """An event that fires once the resource is granted to the requester."""

    __slots__ = ("resource", "released")

    def __init__(self, sim: "Simulator", resource: "Resource"):
        # Grants are allocated once per resource use; inline the Event
        # constructor and skip name formatting (repr derives it on demand).
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.resource = resource
        self.released = False

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<Grant {self.resource.name} {state}>"


class Resource:
    """A counted resource with FIFO arbitration.

    Tracks busy time so utilization can be reported in performance
    breakdowns (one of SSDExplorer's headline capabilities).
    """

    def __init__(self, sim: "Simulator", name: str = "resource", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Grant] = deque()
        # Utilization bookkeeping.
        self._busy_since: Optional[int] = None
        self._busy_accum: int = 0

    @property
    def in_use(self) -> int:
        """Number of grants currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requesters waiting."""
        return len(self._waiting)

    def acquire(self, priority: int = 0) -> Grant:
        """Request the resource; returns a :class:`Grant` event to yield on.

        FIFO arbitration ignores ``priority``; :class:`PriorityResource`
        orders its waiters by it.
        """
        grant = Grant(self.sim, self)
        if self._in_use < self.capacity:
            self._admit(grant)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, grant: Grant) -> None:
        """Return the resource; wakes the next waiter if any."""
        if grant.resource is not self:
            raise SimulationError(f"grant {grant!r} does not belong to {self.name}")
        if grant.released:
            raise SimulationError(f"grant {grant!r} released twice")
        grant.released = True
        if not grant.triggered:
            # Cancelled before being admitted: drop from the wait queue.
            self._cancel(grant)
            return
        # An admitted grant's value is the grant itself; clearing it breaks
        # that self-reference so plain refcounting frees the grant.
        grant._value = None
        self.return_slot()

    def _cancel(self, grant: Grant) -> None:
        try:
            self._waiting.remove(grant)
        except ValueError:
            raise SimulationError(f"grant {grant!r} was never issued by {self.name}")

    def claim(self, callback: Callable[[Optional[Grant]], None],
              priority: int = 0) -> Optional[Grant]:
        """Hold a slot for a callback chain; ``callback`` runs once held.

        A free slot is held in place, busy from now, and
        ``callback(None)`` joins the tail of the live same-time batch as
        a bare calendar entry, in the place the grant event would have
        had (outside :meth:`Simulator.run`, where no batch is draining,
        it is scheduled at zero delay); otherwise the request queues as
        a :class:`Grant` that carries the callback.  Either way the
        kernel processes the same events at the same times.  Returns
        the Grant, or None for a slot held in place; hand it back to
        :meth:`give_back`.
        """
        # acquire()'s test: a waiter exists only while every slot is
        # held, because a returned slot admits the waiters first.
        in_use = self._in_use
        if in_use < self.capacity:
            sim = self.sim
            now = sim._now
            if in_use == 0:
                self._busy_since = now
            self._in_use = in_use + 1
            batch = sim._buckets.get(now)
            cls = callback.__class__
            if batch is None or (cls is not MethodType
                                 and cls is not FunctionType):
                # No batch drains at this time (outside run()), or the
                # callback is not a calendar entry: _after schedules or
                # refuses it.
                sim._after(0, callback)
            else:
                batch.append(callback)
            return None
        grant = self.acquire(priority)
        grant.callbacks.append(callback)
        return grant

    def give_back(self, hold: Optional[Grant]) -> None:
        """Return a slot obtained from :meth:`claim`.

        The last slot held in place, with nobody waiting, is returned
        inline; every other return goes through :meth:`return_slot` or
        :meth:`release`.
        """
        if hold is None:
            if self._in_use == 1 and not self._waiting:
                self._in_use = 0
                self._busy_accum += self.sim._now - self._busy_since
                self._busy_since = None
            else:
                self.return_slot()
        else:
            self.release(hold)

    def return_slot(self) -> None:
        """Give back one held slot and admit waiters in FIFO order.

        :meth:`release` ends here after its checks; a slot held in place
        by :meth:`claim` comes back here through :meth:`give_back`.
        """
        in_use = self._in_use - 1
        if in_use < 0:
            raise _nothing_held(self)
        self._in_use = in_use
        if in_use == 0 and self._busy_since is not None:
            self._busy_accum += self.sim._now - self._busy_since
            self._busy_since = None
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            self._admit(waiting.popleft())

    def _admit(self, grant: Grant) -> None:
        sim = self.sim
        now = sim._now
        if self._in_use == 0:
            self._busy_since = now
        self._in_use += 1
        # Trigger inline: a grant reaches here exactly once, still pending.
        # It joins the tail of the live same-time batch, if one is
        # draining, which is where _schedule_event would put it.
        grant._ok = True
        grant._value = grant
        batch = sim._buckets.get(now)
        if batch is None:
            sim._schedule_event(grant)
        else:
            batch.append(grant)

    def busy_time(self) -> int:
        """Total picoseconds during which at least one grant was held."""
        accum = self._busy_accum
        if self._busy_since is not None:
            accum += self.sim.now - self._busy_since
        return accum

    def utilization(self) -> float:
        """Fraction of elapsed sim time the resource was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time() / self.sim.now

    def __repr__(self) -> str:
        return (f"<Resource {self.name} {self._in_use}/{self.capacity} busy, "
                f"{len(self._waiting)} waiting>")


class PriorityResource(Resource):
    """A resource whose waiters are served by (priority, arrival) order.

    Lower priority values are served first.  The wait queue is a heap of
    ``(priority, arrival, grant)`` entries.
    """

    def __init__(self, sim: "Simulator", name: str = "presource", capacity: int = 1):
        super().__init__(sim, name, capacity)
        #: Heap of ``(priority, arrival, grant)`` waiters.
        self._waiting = []  # type: ignore[assignment]
        self._arrivals = 0

    def acquire(self, priority: int = 0) -> Grant:
        grant = Grant(self.sim, self)
        if self._in_use < self.capacity:
            self._admit(grant)
        else:
            self._arrivals += 1
            heapq.heappush(self._waiting, (priority, self._arrivals, grant))
        return grant

    def _cancel(self, grant: Grant) -> None:
        self._waiting = [entry for entry in self._waiting
                         if entry[2] is not grant]
        heapq.heapify(self._waiting)

    def return_slot(self) -> None:
        """Give back one held slot and admit waiters in priority order."""
        in_use = self._in_use - 1
        if in_use < 0:
            raise _nothing_held(self)
        self._in_use = in_use
        if in_use == 0 and self._busy_since is not None:
            self._busy_accum += self.sim._now - self._busy_since
            self._busy_since = None
        while self._waiting and self._in_use < self.capacity:
            __, __, waiter = heapq.heappop(self._waiting)
            self._admit(waiter)


class ClaimChain:
    """Hold a fixed sequence of resources in order, one calendar entry
    per hold, then run ``on_held()``; :meth:`give_back` returns them all.

    This is the lock-ordered multi-resource claim of a callback chain
    (DRAM refresh: every bank, then the bus).  :meth:`start` schedules
    the first step; each step holds the next resource and hands over to
    the step after it, and the step after the last hold calls
    ``on_held()``.  A step runs from the calendar, so a batch is always
    draining at its time.  A free resource is held in its own frame, as
    :meth:`Resource.claim` holds a free slot: in place, busy from now,
    with the next step appended to the live same-time batch.  A held
    resource goes through ``claim(step, priority)``, and the next step
    rides its :class:`Grant`.  Either way the chain processes the events
    a ``claim`` per step would, at the same times and in the same order.
    """

    __slots__ = ("sim", "_resources", "_count", "_priority", "_on_held",
                 "_holds", "_index", "_step")

    def __init__(self, sim: "Simulator", resources: Sequence[Resource],
                 priority: int, on_held: Callable[[], None]):
        self.sim = sim
        self._resources = tuple(resources)
        self._count = len(self._resources)
        self._priority = priority
        self._on_held = on_held
        #: Per resource, the Grant the chain holds, or None for a slot
        #: held in place; give_back() leaves every entry None.
        self._holds: list = [None] * self._count
        self._index = 0  # the next resource to hold
        self._step = self.step  # one bound method, the reused entry

    def start(self, delay: int) -> None:
        """Begin holding the resources ``delay`` ps from now."""
        self._index = 0
        self.sim._after(delay, self._step)

    def step(self, _event: Optional[Grant] = None) -> None:
        """Hold the next resource, or report that every one is held."""
        index = self._index
        if index < self._count:
            self._index = index + 1
            resource = self._resources[index]
            in_use = resource._in_use
            if in_use < resource.capacity:
                sim = self.sim
                now = sim._now
                if in_use == 0:
                    resource._busy_since = now
                resource._in_use = in_use + 1
                sim._buckets[now].append(self._step)
            else:
                self._holds[index] = resource.claim(self._step,
                                                    self._priority)
            return
        self._on_held()

    def give_back(self) -> None:
        """Return every held slot, in claim order.

        A slot held in place that is its resource's last, with nobody
        waiting, is returned inline, as :meth:`Resource.give_back` does.
        """
        now = self.sim._now
        holds = self._holds
        for index, resource in enumerate(self._resources):
            hold = holds[index]
            if hold is not None:
                holds[index] = None
                resource.release(hold)
            elif resource._in_use == 1 and not resource._waiting:
                resource._in_use = 0
                resource._busy_accum += now - resource._busy_since
                resource._busy_since = None
            else:
                resource.return_slot()
