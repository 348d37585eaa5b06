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

from .events import Event, SimulationError, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

ProcessGenerator = Generator[Any, Any, Any]


class Process(Event):
    """A running coroutine; also an event that fires when it terminates."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Kick off at the current simulation time as a bare calendar entry
        # (called with None, which is the generator's first send).
        sim._after(0, self._step)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event.value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return

        if isinstance(target, int):
            target = Timeout(self.sim, target)
        elif not isinstance(target, Event):
            self._step(throw=SimulationError(
                f"process {self.name} yielded {target!r}; expected Event, "
                f"Process or int delay"))
            return
        elif target.callbacks is None:
            # Already over: resume immediately (same sim time) via a fresh
            # relay so recursion depth stays bounded.
            relay = Timeout(self.sim, 0, target._value)
            relay._ok = target._ok
            target = relay
        target.callbacks.append(self._resume)
