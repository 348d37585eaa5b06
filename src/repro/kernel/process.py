"""Coroutine processes.

A :class:`Process` wraps a Python generator and advances it each time the
event it yielded triggers — the same execution model as SystemC's dynamic
``SC_THREAD``s or simpy processes.  A process may yield:

* an :class:`~repro.kernel.events.Event` (including ``Timeout``),
* another :class:`Process` (wait for it to finish; receives its return value),
* a plain non-negative ``int`` — shorthand for ``Timeout(delay_ps)``.

The generator's ``return`` value becomes the process event's payload.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import Event, Interrupt, SimulationError, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

ProcessGenerator = Generator[Any, Any, Any]

_NOT_STARTED: Any = object()  # Process._waiting_on until the bootstrap


class Process(Event):
    """A running coroutine; also an event that fires when it terminates."""

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # What a resume is pending on, for interrupt() to detach.
        self._waiting_on: Optional[Event] = _NOT_STARTED
        # Kick off at the current simulation time as a bare calendar entry.
        sim._after(0, self._start)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated or unstarted process is an error;
        interrupting a waiting process detaches it from what it waits on.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name}")
        waiting_on = self._waiting_on
        if waiting_on is _NOT_STARTED:
            raise SimulationError(
                f"cannot interrupt process {self.name} before it has started")
        if waiting_on is not None and waiting_on.callbacks is not None:
            try:
                waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self.sim._after(0, lambda _entry: self._step(throw=Interrupt(cause)))

    def _start(self, _entry: None) -> None:
        self._waiting_on = None
        self._step()

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event.value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        sim._active_process = None

        if isinstance(target, int):
            target = Timeout(sim, target)
        elif not isinstance(target, Event):
            self._step(throw=SimulationError(
                f"process {self.name} yielded {target!r}; expected Event, "
                f"Process or int delay"))
            return
        elif target.callbacks is None:
            # Already over: resume immediately (same sim time) via a fresh
            # relay so recursion depth stays bounded.
            relay = Timeout(sim, 0, target._value)
            relay._ok = target._ok
            target = relay
        self._waiting_on = target
        target.callbacks.append(self._resume)
