"""Observability: span-based latency decomposition and trace export.

The one record of what happened in simulated time, zero-cost when
disabled: a module-level flag plus a process-global recorder hook.  See
:mod:`repro.obs.spans` for the span model, :mod:`repro.obs.chrometrace`
for the Chrome ``trace_event`` exporter and :mod:`repro.obs.profile` for
the breakdown/bottleneck renderers behind ``python -m repro profile``.
"""

from .chrometrace import (to_chrome_trace, validate_chrome_trace,
                          validate_file, write_chrome_trace)
from .profile import (render_bottleneck_report, render_profile,
                      render_stage_table, render_timelines, sparkline)
from .spans import (OTHER_STAGE, CommandSpan, ComponentSpan, SpanRecorder,
                    disable_observability, enable_observability,
                    obs_enabled, record_span)

__all__ = [
    "OTHER_STAGE", "CommandSpan", "ComponentSpan", "SpanRecorder",
    "disable_observability", "enable_observability", "obs_enabled",
    "record_span",
    "to_chrome_trace", "validate_chrome_trace", "validate_file",
    "write_chrome_trace",
    "render_bottleneck_report", "render_profile", "render_stage_table",
    "render_timelines", "sparkline",
]
