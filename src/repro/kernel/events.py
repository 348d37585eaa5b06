"""Events: the primitive synchronization objects of the kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
yielding them; components trigger them with :meth:`Event.succeed` or
:meth:`Event.fail`.  The scheduling model mirrors SystemC's evaluate/notify
semantics without delta cycles: callbacks attached to an event run at the
simulation time at which the event was triggered, in FIFO order.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .simulator import Simulator

PENDING = object()


class SimulationError(Exception):
    """Base class for kernel errors."""


class Event:
    """A one-shot event processes can wait on.

    The lifecycle is: *pending* -> *triggered* (ok or failed).  Triggering an
    event schedules its callbacks at the current simulation time; an event
    may only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callbacks invoked (with this event) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        if self._ok is None:
            raise SimulationError(f"event {self} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event payload (or the exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"event {self} has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to propagate to waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = self.name or hex(id(self))
        return f"<Event {label} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        # Timeouts are the kernel's hottest allocation; inline the Event
        # constructor and skip name formatting (repr derives it on demand).
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay=delay)

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else "scheduled"
        return f"<Timeout delay={self.delay} {state}>"


class Condition(Event):
    """Waits for *all* of a set of events.

    The payload is a dict mapping each child event to its value.  The first
    child to fail fails the condition with that child's exception.
    """

    __slots__ = ("events", "_need", "_count")

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, name="all_of")
        if not events:
            raise ValueError("condition needs at least one event")
        self.events = list(events)
        self._count = 0
        self._need = len(self.events)
        # Fast path: children that are already processed are counted via a
        # direct call (no add_callback dispatch), which also lets an
        # already-satisfied condition trigger before any heap traffic.
        on_child = self._on_child
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is None:
                on_child(event)
            else:
                callbacks.append(on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count >= self._need:
            self.succeed({ev: ev._value for ev in self.events})


def all_of(sim: "Simulator", events: List[Event]) -> Condition:
    """Return an event that fires when every event in ``events`` has fired."""
    return Condition(sim, events)
