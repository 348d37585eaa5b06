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

from typing import Any, Generator, TYPE_CHECKING

from .events import Event, SimulationError, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

ProcessGenerator = Generator[Any, Any, Any]


class _Started:
    """What the bootstrap hands :meth:`Process._resume`: a fired event's
    outcome with nothing to send (a generator's first send is None)."""

    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A running coroutine; also an event that fires when it terminates."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Kick off at the current simulation time as a bare calendar entry
        # (called with None).
        sim._after(0, self._step)

    def _step(self, _entry: None) -> None:
        """The bootstrap: the generator's first send."""
        self._resume(_STARTED)

    def _resume(self, event: Event) -> None:
        """Send ``event``'s value into the generator (or throw its
        exception) and wait on what the generator yields next."""
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

            if isinstance(target, Event):
                if target.callbacks is None:
                    # Already over: resume immediately (same sim time) via
                    # a fresh relay so recursion depth stays bounded.
                    relay = Timeout(self.sim, 0, target._value)
                    relay._ok = target._ok
                    target = relay
            elif isinstance(target, int):
                target = Timeout(self.sim, target)
            else:
                # Not something to wait on: the error goes back into the
                # generator, which may catch it and yield again.
                ok, value = False, SimulationError(
                    f"process {self.name} yielded {target!r}; expected "
                    f"Event, Process or int delay")
                continue
            target.callbacks.append(self._resume)
            return
