"""Span-based instrumentation: exact latency decomposition per command.

This layer answers both "what happened" and "where did the time go".
Two kinds of spans are recorded:

* **Command spans** — every host command carries a :class:`CommandSpan`
  from device issue to completion.  The span is a *gap-free* stage
  timeline: each pipeline boundary calls :meth:`CommandSpan.mark` which
  closes the stage that just ended, so the per-command stage durations
  sum to the end-to-end latency exactly (the invariant the profile CLI
  and its tests rely on).
* **Component spans** — individual resources (host link, DRAM
  controllers, ONFI buses, NAND dies, ECC engines, the gang arbiter)
  record ``(track, name, start, end)`` intervals describing their own
  activity.  These overlap freely and feed the Chrome-trace export and
  the per-resource activity table.

Observability is opt-in and zero-cost when disabled: hot call sites
guard with :func:`obs_enabled` (a module-level flag read) before
touching ``sim.now`` or building any object, so a disabled run pays a
single flag check per call site and allocates nothing.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from ..kernel.stats import Accumulator

#: Stage name used for any residual interval between the last explicit
#: mark and command completion (zero on fully instrumented paths).
OTHER_STAGE = "other"


class ComponentSpan(NamedTuple):
    """One completed activity interval of a simulated resource."""

    track: str      # component path, e.g. "ssd.chn0.way1_die0"
    name: str       # activity label, e.g. "nand_busy", "bus_xfer"
    start_ps: int
    end_ps: int

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class CommandSpan:
    """Gap-free stage timeline of one host command.

    ``mark(name, now)`` attributes the interval since the previous mark
    (or since the span start) to ``name``; ``finish(now)`` closes the
    span, attributing any unmarked remainder to :data:`OTHER_STAGE`.
    Stage intervals therefore tile ``[start_ps, end_ps]`` exactly:

        sum(stage durations) == end_ps - start_ps == command latency

    Zero-length stages are dropped (a mark with no elapsed time since
    the previous one records nothing).  Marks after ``finish`` are
    ignored — a cached write completes to the host before its background
    flush runs, and the flush must not extend the command's timeline.
    """

    __slots__ = ("span_id", "label", "start_ps", "end_ps", "stages",
                 "_cursor", "finished")

    def __init__(self, span_id: int, label: str, start_ps: int):
        self.span_id = span_id
        self.label = label
        self.start_ps = start_ps
        self.end_ps = -1
        self._cursor = start_ps
        self.stages: List[Tuple[str, int, int]] = []
        self.finished = False

    def mark(self, name: str, now: int) -> None:
        """Close the current stage at ``now``, labeling it ``name``."""
        if self.finished:
            return
        if now > self._cursor:
            self.stages.append((name, self._cursor, now))
            self._cursor = now

    def finish(self, now: int) -> None:
        """End the span; leftover time becomes the ``other`` stage."""
        if self.finished:
            return
        if now > self._cursor:
            self.stages.append((OTHER_STAGE, self._cursor, now))
            self._cursor = now
        self.end_ps = now
        self.finished = True

    @property
    def duration_ps(self) -> int:
        return (self.end_ps if self.end_ps >= 0 else self._cursor) \
            - self.start_ps

    def stage_totals(self) -> Dict[str, int]:
        """Per-stage picoseconds, summing exactly to ``duration_ps``."""
        totals: Dict[str, int] = {}
        for name, start, end in self.stages:
            totals[name] = totals.get(name, 0) + (end - start)
        return totals

    def __repr__(self) -> str:
        return (f"<CommandSpan #{self.span_id} {self.label!r} "
                f"[{self.start_ps}, {self.end_ps}] "
                f"{len(self.stages)} stages>")


class SpanRecorder:
    """Collects command and component spans, aggregating as they close.

    Aggregates (per-stage and per-activity accumulators, per-track busy
    totals) are unbounded and exact; the *retained* raw span lists that
    feed the Chrome-trace export are bounded, and spans past the caps
    are counted in ``dropped_commands`` / ``dropped_component_spans``
    instead of being kept.  The head of the run is kept, not the tail:
    the trace viewer wants a contiguous prefix.
    """

    def __init__(self, max_command_spans: int = 100_000,
                 max_component_spans: int = 500_000):
        if max_command_spans < 1 or max_component_spans < 1:
            raise ValueError("span capacities must be >= 1")
        self.max_command_spans = max_command_spans
        self.max_component_spans = max_component_spans
        self.commands: List[CommandSpan] = []
        self.component_spans: List[ComponentSpan] = []
        self.dropped_commands = 0
        self.dropped_component_spans = 0
        #: Per-stage latency accumulators over all completed commands.
        self.stage_stats: Dict[str, Accumulator] = {}
        #: Per-activity accumulators over all component spans.
        self.activity_stats: Dict[str, Accumulator] = {}
        #: Total busy picoseconds per component track.
        self.track_busy: Dict[str, int] = {}
        self.commands_completed = 0
        self._next_id = 0

    # -- command spans --------------------------------------------------
    def begin_command(self, label: str, now: int) -> CommandSpan:
        span = CommandSpan(self._next_id, label, now)
        self._next_id += 1
        return span

    def end_command(self, span: CommandSpan, now: int) -> None:
        """Finish a span and fold its stages into the aggregates."""
        span.finish(now)
        self.commands_completed += 1
        for name, total in span.stage_totals().items():
            acc = self.stage_stats.get(name)
            if acc is None:
                acc = self.stage_stats[name] = Accumulator()
            acc.add(total)
        if len(self.commands) < self.max_command_spans:
            self.commands.append(span)
        else:
            self.dropped_commands += 1

    # -- component spans ------------------------------------------------
    def record_span(self, track: str, name: str, start_ps: int,
                    end_ps: int) -> None:
        duration = end_ps - start_ps
        acc = self.activity_stats.get(name)
        if acc is None:
            acc = self.activity_stats[name] = Accumulator()
        acc.add(duration)
        self.track_busy[track] = self.track_busy.get(track, 0) + duration
        if len(self.component_spans) < self.max_component_spans:
            self.component_spans.append(
                ComponentSpan(track, name, start_ps, end_ps))
        else:
            self.dropped_component_spans += 1

    # -- aggregation ----------------------------------------------------
    @staticmethod
    def _breakdown(stats: Dict[str, Accumulator]) -> Dict[str, Dict[str, float]]:
        grand_total = sum(acc.total for acc in stats.values())
        out: Dict[str, Dict[str, float]] = {}
        for name, acc in stats.items():
            out[name] = {
                "count": acc.count,
                "total_ps": acc.total,
                "mean_ps": acc.mean,
                "max_ps": acc.maximum if acc.count else 0.0,
                "share": (acc.total / grand_total) if grand_total else 0.0,
            }
        return out

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-stage aggregate over all completed command spans.

        ``share`` is each stage's fraction of total time-in-flight (the
        sum over commands of their end-to-end latency), so shares sum
        to 1.0.
        """
        return self._breakdown(self.stage_stats)

    def component_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-activity aggregate over all component spans."""
        return self._breakdown(self.activity_stats)

    def busiest_tracks(self, top_k: int = 10) -> List[Tuple[str, int]]:
        """Component tracks ranked by total busy time, busiest first."""
        ranked = sorted(self.track_busy.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:top_k]

    def clear(self) -> None:
        self.commands.clear()
        self.component_spans.clear()
        self.stage_stats.clear()
        self.activity_stats.clear()
        self.track_busy.clear()
        self.dropped_commands = 0
        self.dropped_component_spans = 0
        self.commands_completed = 0


class _NullRecorder:
    """The disabled hook: every call is a no-op (mirrors tracing)."""

    def begin_command(self, label: str, now: int) -> None:
        return None

    def end_command(self, span, now: int) -> None:
        return None

    def record_span(self, track: str, name: str, start_ps: int,
                    end_ps: int) -> None:
        return None


#: Module-level fast flag: True iff a real recorder is installed.  Hot
#: call sites read this (via :func:`obs_enabled` or directly) *before*
#: calling ``sim.now`` or ``path()``, keeping the disabled path free of
#: any allocation or attribute walk.
enabled = False

#: The process-global recorder components write to.
active_recorder = _NullRecorder()


def obs_enabled() -> bool:
    """True when a span recorder is installed.

    The idiom for instrumented call sites::

        t0 = self.sim.now if obs_enabled() else -1
        ...  # the timed activity
        if t0 >= 0:
            record_span(self.path(), "bus_xfer", t0, self.sim.now)

    The ``t0 >= 0`` re-check also handles observability being enabled
    midway through an operation (the half-observed interval is simply
    not recorded).
    """
    return enabled


def enable_observability(max_command_spans: int = 100_000,
                         max_component_spans: int = 500_000) -> SpanRecorder:
    """Install and return a fresh span recorder as the global hook."""
    global active_recorder, enabled
    recorder = SpanRecorder(max_command_spans=max_command_spans,
                            max_component_spans=max_component_spans)
    active_recorder = recorder
    enabled = True
    return recorder


def disable_observability() -> None:
    """Restore the no-op hook."""
    global active_recorder, enabled
    active_recorder = _NullRecorder()
    enabled = False


def record_span(track: str, name: str, start_ps: int, end_ps: int) -> None:
    """Record one component span on whatever recorder is active."""
    if enabled:
        active_recorder.record_span(track, name, start_ps, end_ps)
