"""Discrete-event simulation kernel (the SystemC stand-in).

The kernel provides:

* :class:`Simulator` — the event calendar and run loop;
* :class:`Event`, :class:`Timeout`, :func:`all_of`;
* :class:`Process` — coroutine processes (yield events / delays);
* :class:`Resource`, :class:`PriorityResource` — contention, and
  :class:`ClaimChain`, a lock-ordered hold of several of them;
* :class:`Component` — the named module hierarchy;
* :class:`Clock` and picosecond time helpers;
* :class:`UtilizationTracker` and :class:`Accumulator` for breakdowns.
"""

from .component import Component
from .config import ConfigError, load_file, loads, parse_flat_config
from .events import Condition, Event, SimulationError, Timeout, all_of
from .process import Process
from .resources import ClaimChain, Grant, PriorityResource, Resource
from .simtime import (MS, NS, PS, SEC, US, Clock, format_time, ms, ns,
                      period_from_hz, ps, seconds, to_seconds, to_us, us)
from .simulator import Simulator
from .stats import Accumulator, UtilizationTracker

__all__ = [
    "Accumulator", "ClaimChain", "Clock", "Component", "Condition",
    "ConfigError", "Event", "Grant", "MS", "NS", "PS",
    "PriorityResource", "Process", "Resource", "SEC", "SimulationError",
    "Simulator", "Timeout", "US", "UtilizationTracker", "all_of",
    "format_time", "load_file", "loads", "ms", "ns", "parse_flat_config",
    "period_from_hz", "ps", "seconds", "to_seconds", "to_us", "us",
]
