"""Profile rendering: stage breakdown tables, bottleneck report,
utilization timeline sparklines, and :func:`render_columns`, the one
fixed-width table renderer behind every text table of the package.

Pure formatting over the aggregates a :class:`~repro.obs.spans.SpanRecorder`
collects plus utilization timelines sampled elsewhere (the device layer
samples its die-array :class:`~repro.kernel.stats.UtilizationTracker`
instances with ``timeline(buckets)``; this module never imports the SSD
stack).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

from ..kernel.simtime import format_time

_SPARK = "▁▂▃▄▅▆▇█"

#: The alignment-and-width prefix of a format spec (``">8"`` of ``">8.1f"``).
_SHAPE = re.compile(r"[<>^]?\d*")


def render_columns(columns: Sequence[Tuple[str, str]], rows: Iterable,
                   sep: str = " ", rule: bool = True) -> str:
    """Render a fixed-width text table: header, dash rule, one line per row.

    ``columns`` pairs each header with the format spec of its cells
    (e.g. ``("MB/s", ">8.1f")``); the header takes the spec's alignment
    and width.  A string cell is pre-formatted text (a composite value or
    a ``-`` placeholder) and is only aligned; a string row is emitted
    verbatim (a failure note).  ``rule=False`` drops the dash line.
    """
    shapes = [_SHAPE.match(spec).group() for __, spec in columns]
    header = sep.join(format(title, shape)
                      for (title, __), shape in zip(columns, shapes))
    lines = [header, "-" * len(header)] if rule else [header]
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        lines.append(sep.join(
            format(cell, shape if isinstance(cell, str) else spec)
            for cell, (__, spec), shape in zip(row, columns, shapes)))
    return "\n".join(lines)


def sparkline(values: List[float], vmax: float = 1.0) -> str:
    """Render fractions in ``[0, vmax]`` as a unicode block sparkline."""
    if not values:
        return ""
    top = max(vmax, 1e-12)
    chars = []
    for value in values:
        level = min(1.0, max(0.0, value / top))
        chars.append(_SPARK[min(len(_SPARK) - 1,
                                int(level * (len(_SPARK) - 1) + 0.5))])
    return "".join(chars)


def _sorted_rows(breakdown: Dict[str, Dict[str, float]],
                 top_k: int) -> List[Tuple[str, Dict[str, float]]]:
    ranked = sorted(breakdown.items(),
                    key=lambda item: (-item[1]["total_ps"], item[0]))
    return ranked[:top_k] if top_k else ranked


def render_stage_table(breakdown: Dict[str, Dict[str, float]],
                       top_k: int = 10,
                       title: str = "stage") -> str:
    """Fixed-width table of the top-k stages by total time-in-flight."""
    rows = [[name, row["share"], format_time(int(row["total_ps"])),
             format_time(int(row["mean_ps"])),
             format_time(int(row["max_ps"])), int(row["count"])]
            for name, row in _sorted_rows(breakdown, top_k)]
    return render_columns(
        [(title, "<14"), ("share", ">8.1%"), ("total", ">14"),
         ("mean", ">12"), ("max", ">12"), ("count", ">9d")],
        rows or ["(no spans recorded)"], sep="")


def render_timelines(timelines: Dict[str, List[float]],
                     title: str = "utilization timeline") -> str:
    """One sparkline row per unit, with its mean busy fraction."""
    if not timelines:
        return f"{title}: (none)"
    width = max(len(name) for name in timelines)
    lines = [f"{title} (t=0 .. end of run):"]
    for name, values in timelines.items():
        mean = sum(values) / len(values) if values else 0.0
        lines.append(f"  {name.ljust(width)}  {mean:6.1%}  "
                     f"{sparkline(values)}")
    return "\n".join(lines)


def render_bottleneck_report(recorder, top_k: int = 5) -> str:
    """Rank stages and component tracks by time spent — the "where does
    the next dollar go" summary."""
    lines = ["bottleneck report:"]
    stages = _sorted_rows(recorder.breakdown(), top_k)
    if stages:
        name, row = stages[0]
        lines.append(f"  dominant stage: {name} "
                     f"({row['share']:.1%} of time-in-flight, "
                     f"mean {format_time(int(row['mean_ps']))}/cmd)")
    tracks = recorder.busiest_tracks(top_k)
    if tracks:
        width = max(len(track) for track, __ in tracks)
        lines.append("  busiest components:")
        for track, busy_ps in tracks:
            lines.append(f"    {track.ljust(width)}  "
                         f"{format_time(busy_ps)} busy")
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)


def render_profile(recorder, timelines: Dict[str, List[float]] = None,
                   top_k: int = 10) -> str:
    """The full ``repro profile`` body: stage table, component activity
    table, bottleneck report and utilization timelines."""
    sections = [
        f"commands profiled : {recorder.commands_completed}"
        + (f" ({recorder.dropped_commands} spans dropped past capacity)"
           if recorder.dropped_commands else ""),
        "",
        render_stage_table(recorder.breakdown(), top_k=top_k,
                           title="stage"),
        "",
        render_stage_table(recorder.component_breakdown(), top_k=top_k,
                           title="activity"),
        "",
        render_bottleneck_report(recorder, top_k=min(top_k, 5)),
    ]
    if timelines:
        sections += ["", render_timelines(timelines)]
    return "\n".join(sections)
