"""Parameter sensitivity analysis.

The FGDSE workflow is not only about discrete design points: a designer
also needs to know *which* component parameter binds the architecture
("identification of microarchitectural bottlenecks", paper abstract).
:func:`sweep_parameter` measures throughput as one knob varies, and
:func:`bottleneck_report` ranks component utilizations for a single run —
the two primitives behind a breakdown-style analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..host.workload import Workload
from ..ssd.architecture import SsdArchitecture
from ..ssd.metrics import RunResult
from ..ssd.scenarios import measure
from .report import render_columns

ArchFactory = Callable[[Any], SsdArchitecture]


@dataclass
class SensitivityPoint:
    """One parameter value's measurement."""

    value: Any
    result: RunResult

    @property
    def mbps(self) -> float:
        return self.result.sustained_mbps


@dataclass
class SensitivityCurve:
    """A full parameter sweep."""

    parameter: str
    points: List[SensitivityPoint]

    def series(self) -> List[Tuple[Any, float]]:
        return [(point.value, point.mbps) for point in self.points]

    def elasticity(self) -> float:
        """Relative throughput change per relative parameter change
        between the first and last points (log-free approximation).

        Near 1.0 the parameter is the binding constraint; near 0.0 the
        architecture is insensitive to it.
        """
        if len(self.points) < 2:
            raise ValueError("elasticity needs at least two points")
        first, last = self.points[0], self.points[-1]
        try:
            value_change = (float(last.value) - float(first.value)) \
                / float(first.value)
        except (TypeError, ValueError):
            raise ValueError("elasticity needs numeric parameter values")
        if value_change == 0:
            raise ValueError("parameter did not change across the sweep")
        if first.mbps == 0:
            return 0.0
        throughput_change = (last.mbps - first.mbps) / first.mbps
        return throughput_change / value_change

    def saturation_value(self, tolerance: float = 0.03) -> Optional[Any]:
        """First parameter value beyond which throughput stops improving
        (within ``tolerance``); None if it never saturates."""
        best = max(point.mbps for point in self.points)
        for point in self.points:
            if point.mbps >= (1.0 - tolerance) * best:
                return point.value
        return None


def sweep_parameter(parameter: str, values: Sequence[Any],
                    arch_factory: ArchFactory, workload: Workload,
                    warm_start: bool = False,
                    max_commands: Optional[int] = None) -> SensitivityCurve:
    """Measure the workload at each parameter value.

    ``arch_factory`` maps a parameter value to a full architecture, so any
    knob — ONFI speed, tPROG, queue depth, ECC strength — can be swept
    without this module knowing its type.
    """
    points = []
    for value in values:
        result = measure(arch_factory(value), workload,
                         warm_start=warm_start, max_commands=max_commands,
                         label=f"{parameter}={value}")
        points.append(SensitivityPoint(value=value, result=result))
    return SensitivityCurve(parameter=parameter, points=points)


def bottleneck_report(result: RunResult) -> List[Tuple[str, float]]:
    """Component utilizations, busiest first — the breakdown that tells a
    designer where the next dollar should go."""
    return sorted(result.utilizations.items(), key=lambda item: -item[1])


def render_sensitivity_table(curve: SensitivityCurve) -> str:
    """Fixed-width rendering of a sweep."""
    return render_columns([(curve.parameter, "<16"), ("MB/s", ">10.1f")],
                          ([str(value), mbps]
                           for value, mbps in curve.series()), sep="")
