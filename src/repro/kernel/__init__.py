"""Discrete-event simulation kernel (the SystemC stand-in).

The kernel provides:

* :class:`Simulator` — the event calendar and run loop;
* :class:`Event`, :class:`Timeout`, :func:`all_of`, :func:`any_of`;
* :class:`Process` — coroutine processes (yield events / delays);
* :class:`Resource`, :class:`PriorityResource`, :class:`Store` — contention;
* :class:`Component` — the named module hierarchy;
* :class:`Clock` and picosecond time helpers;
* statistics accumulators used for performance breakdowns.
"""

from .component import Component
from .config import ConfigError, load_file, loads, parse_flat_config
from .events import (Condition, Event, Interrupt, SimulationError, Timeout,
                     all_of, any_of)
from .process import Process
from .resources import Grant, PriorityResource, Resource, Store, using_acquire
from .simtime import (MS, NS, PS, SEC, US, Clock, format_time, ms, ns,
                      period_from_hz, ps, seconds, to_seconds, to_us, us)
from .simulator import Simulator
from .tracing import (TraceRecord, TraceRecorder, disable_tracing,
                      enable_tracing, trace, trace_enabled)
from .stats import (Accumulator, Counter, LatencyHistogram,
                    StatSet, ThroughputMeter, UtilizationTracker)

__all__ = [
    "Accumulator", "Clock", "Component", "Condition", "ConfigError",
    "Counter", "Event", "Grant", "Interrupt",
    "LatencyHistogram", "MS", "NS", "PS",
    "PriorityResource", "Process", "Resource", "SEC", "SimulationError",
    "Simulator", "StatSet", "Store", "ThroughputMeter", "Timeout", "US",
    "UtilizationTracker", "all_of", "any_of", "format_time", "load_file",
    "loads", "ms", "ns", "parse_flat_config", "period_from_hz", "ps",
    "seconds", "to_seconds", "to_us", "trace", "trace_enabled", "us",
    "using_acquire",
    "TraceRecord", "TraceRecorder", "disable_tracing", "enable_tracing",
]
