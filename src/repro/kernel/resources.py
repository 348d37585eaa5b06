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
from typing import Callable, Deque, Optional, TYPE_CHECKING

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

    __slots__ = ("resource", "priority", "released", "requested_at")

    def __init__(self, sim: "Simulator", resource: "Resource", priority: int = 0):
        # Grants are allocated once per resource use; inline the Event
        # constructor and skip name formatting (repr derives it on demand).
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.resource = resource
        self.priority = priority
        self.released = False
        #: Sim time of the request, for the resource's wait accounting.
        self.requested_at = sim._now

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
        self.total_grants = 0
        self.total_wait_ps = 0

    @property
    def in_use(self) -> int:
        """Number of grants currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requesters waiting."""
        return len(self._waiting)

    def acquire(self, priority: int = 0) -> Grant:
        """Request the resource; returns a :class:`Grant` event to yield on."""
        grant = Grant(self.sim, self, priority)
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

        A free slot is held in place, with the bookkeeping of an
        immediate grant (one grant, wait 0, busy from now), and
        ``callback(None)`` runs as a zero-delay bare calendar entry, in
        the place the grant event would have had in this batch;
        otherwise the request queues as a :class:`Grant` that carries
        the callback.  Either way the kernel processes the same events
        at the same times.  Returns the Grant, or None for a slot held
        in place; hand it back to :meth:`give_back`.
        """
        # acquire()'s test: a waiter exists only while every slot is
        # held, because a returned slot admits the waiters first.
        in_use = self._in_use
        if in_use < self.capacity:
            self.total_grants += 1
            if in_use == 0:
                self._busy_since = self.sim._now
            self._in_use = in_use + 1
            self.sim._after(0, callback)
            return None
        grant = self.acquire(priority)
        grant.callbacks.append(callback)
        return grant

    def give_back(self, hold: Optional[Grant]) -> None:
        """Return a slot obtained from :meth:`claim`."""
        if hold is None:
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
        self.total_wait_ps += now - grant.requested_at
        self.total_grants += 1
        if self._in_use == 0:
            self._busy_since = now
        self._in_use += 1
        # Trigger inline: a grant reaches here exactly once, still pending.
        grant._ok = True
        grant._value = grant
        sim._schedule_event(grant)

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
        grant = Grant(self.sim, self, priority)
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

