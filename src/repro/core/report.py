"""Plain-text report rendering for experiment outputs."""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Sequence, Tuple

from ..ssd.metrics import json_safe
from ..ssd.scenarios import BreakdownRow
from .speed import SpeedSample


def render_json(payload, indent: int = 2) -> str:
    """Strict-JSON dump of an experiment payload.

    Non-finite floats (the min/max of an empty accumulator surfaces as
    ``inf``) are sanitized to ``null`` first, and ``allow_nan=False``
    guarantees the output never contains the ``Infinity``/``NaN`` tokens
    that are outside the JSON grammar.
    """
    return json.dumps(json_safe(payload), indent=indent, sort_keys=True,
                      allow_nan=False)


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


def render_breakdown_table(rows: Dict[str, BreakdownRow]) -> str:
    """Render a Fig. 3/4 style table: one row per configuration."""
    columns = ["DDR+FLASH", "SSD cache", "SSD no cache", "HOST ideal",
               "HOST+DDR"]
    table = []
    for name, row in rows.items():
        values = row.as_dict()
        table.append([name] + [values[column] for column in columns])
    return render_columns(
        [("Config", "<8")] + [(column, ">14.1f") for column in columns],
        table, sep="")


def render_series_table(series: Dict[str, List[Tuple[float, float]]],
                        x_label: str = "endurance") -> str:
    """Render Fig. 5 style series: one column per series."""
    names = list(series)
    xs = [x for x, __ in series[names[0]]]
    return render_columns(
        [(x_label, "<12.2f")] + [(name, ">16.1f") for name in names],
        ([x] + [series[name][index][1] for name in names]
         for index, x in enumerate(xs)), sep="")


def render_speed_table(samples: Dict[str, SpeedSample]) -> str:
    """Render Fig. 6: KCPS per configuration."""
    return render_columns(
        [("Config", "<8"), ("KCPS", ">12.1f"), ("events/s", ">14.0f"),
         ("wall s", ">10.2f")],
        ([name, sample.kcps, sample.events_per_second, sample.wall_seconds]
         for name, sample in samples.items()), sep="")


def render_validation_table(points: Dict) -> str:
    """Render Fig. 2: simulator vs reference device."""
    return render_columns(
        [("Workload", "<10"), ("SSDExplorer", ">14.1f"),
         ("Reference", ">14.1f"), ("Error %", ">10.2f")],
        ([name, point.simulated_mbps, point.reference_mbps,
          point.relative_error * 100] for name, point in points.items()),
        sep="")
