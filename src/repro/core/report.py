"""Plain-text report rendering for experiment outputs."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..obs.profile import render_columns
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
