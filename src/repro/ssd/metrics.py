"""Workload runner and result metrics.

:func:`run_workload` drives a command stream through an :class:`SsdDevice`
in closed loop: the host issues as many commands as the interface queue
depth allows (NCQ's 32 / NVMe's 64K), which is exactly the mechanism
behind the paper's Fig. 3 "performance flattening" analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..faults.outcomes import classify_commands
from ..host import IoCommand
from ..host.workload import Workload
from ..kernel import Simulator
from ..kernel.stats import UtilizationTracker
from ..obs import spans as _obs
from .device import DataPathMode, SsdDevice


def json_safe(value):
    """Recursively replace non-finite floats with ``None``.

    ``json.dumps`` happily emits ``Infinity``/``NaN`` — tokens outside the
    JSON grammar that many parsers reject.  Empty accumulators report
    ``minimum=inf`` / ``maximum=-inf``, so anything built from raw stat
    snapshots must pass through here before serialization.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


@dataclass
class RunResult:
    """Measured outcome of one workload run."""

    label: str
    throughput_mbps: float
    #: Throughput over the post-warmup window (skips the cache-fill head
    #: start) — the steady-state figure the paper's bars report.
    sustained_mbps: float
    iops: float
    commands: int
    bytes_moved: int
    sim_time_ps: int
    mean_latency_us: float
    max_latency_us: float
    p50_latency_us: float
    p95_latency_us: float
    p99_latency_us: float
    wall_seconds: float
    events: int
    utilizations: Dict[str, float]
    #: Reliability outcomes (all zero on a fault-free run).
    failed_commands: int = 0
    uber: float = 0.0
    read_retries: int = 0
    retries_per_read: float = 0.0
    uncorrectable_reads: int = 0
    retired_blocks: int = 0
    remapped_programs: int = 0
    #: Total page reads, successful plus uncorrectable — the UBER
    #: denominator (in pages; multiply by page bits for the JEDEC form).  Exported so replica estimators can
    #: pool exact counts instead of re-deriving them from ratios.
    page_reads: int = 0
    #: Write faults absorbed after a cached write was acknowledged (the
    #: host saw success; only the device counted the loss).
    background_write_faults: int = 0
    #: Per-command outcome histogram from
    #: :func:`repro.faults.outcomes.classify_commands` — every bucket
    #: present, zero-filled, in classifier order.
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Per-stage latency decomposition (populated only when observability
    #: is enabled during the run): stage name -> breakdown row as
    #: produced by :meth:`repro.obs.spans.SpanRecorder.breakdown`.
    stage_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Real-FTL accounting (scheme, counters, mapping footprint) from
    #: :meth:`repro.ssd.ftl_device.FtlSsdDevice.ftl_metrics`.  Empty for
    #: WAF-abstraction devices — and omitted from :meth:`to_dict` so the
    #: existing golden payloads stay byte-identical.
    ftl: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"{self.label}: {self.throughput_mbps:8.1f} MB/s  "
                f"{self.iops:9.0f} IOPS  lat(mean) "
                f"{self.mean_latency_us:8.1f} us")

    def to_dict(self) -> Dict[str, object]:
        """Flatten to plain types (for JSON export / result archives).

        The payload is sanitized with :func:`json_safe`: non-finite
        floats (e.g. the min/max of an empty accumulator) become ``null``
        instead of leaking as ``Infinity`` tokens into result archives.
        """
        return json_safe({
            "label": self.label,
            "throughput_mbps": self.throughput_mbps,
            "sustained_mbps": self.sustained_mbps,
            "iops": self.iops,
            "commands": self.commands,
            "bytes_moved": self.bytes_moved,
            "sim_time_ps": self.sim_time_ps,
            "latency_us": {
                "mean": self.mean_latency_us,
                "p50": self.p50_latency_us,
                "p95": self.p95_latency_us,
                "p99": self.p99_latency_us,
                "max": self.max_latency_us,
            },
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "utilizations": dict(self.utilizations),
            "reliability": {
                "failed_commands": self.failed_commands,
                "uber": self.uber,
                "read_retries": self.read_retries,
                "retries_per_read": self.retries_per_read,
                "uncorrectable_reads": self.uncorrectable_reads,
                "retired_blocks": self.retired_blocks,
                "remapped_programs": self.remapped_programs,
                "page_reads": self.page_reads,
                "background_write_faults": self.background_write_faults,
                "outcomes": dict(self.outcomes),
            },
            "stage_breakdown": {name: dict(row) for name, row
                                in self.stage_breakdown.items()},
            **({"ftl": dict(self.ftl)} if self.ftl else {}),
        })

    def to_payload(self) -> Dict[str, object]:
        """:meth:`to_dict` with ``wall_seconds`` zeroed: wall time is machine
        load, not simulation output, so cached and fresh payloads agree
        byte for byte."""
        payload = self.to_dict()
        payload["wall_seconds"] = 0.0
        return payload


def run_workload(sim: Simulator, device: SsdDevice, workload: Workload,
                 max_commands: Optional[int] = None,
                 label: str = "",
                 internal_queue_depth: int = 0,
                 honor_issue_times: bool = False) -> RunResult:
    """Run a workload to completion and collect metrics.

    ``internal_queue_depth`` overrides the host queue depth — used by the
    DDR+FLASH scenario where the host interface is out of the picture and
    concurrency is bounded by internal resources instead.

    ``honor_issue_times`` switches from closed-loop (issue as fast as the
    queue admits — the Fig. 3/4 regime) to open-loop trace replay: each
    command is held until its ``issue_time_ps`` (as parsed by the trace
    player) before entering the queue.  Issue times are trace-relative
    (rebased to t=0 by the parsers), so they are anchored to the
    measurement-window start — a warm-up phase that already advanced
    ``sim.now`` (e.g. steady-state preconditioning) shifts the whole
    replay schedule instead of collapsing it into closed loop.
    """
    commands = list(workload.commands())
    if max_commands is not None:
        commands = commands[:max_commands]
    pattern = workload.pattern_name
    if device.mode is DataPathMode.DDR_FLASH and not internal_queue_depth:
        internal_queue_depth = 4 * device.arch.total_dies

    latencies = []
    completions = []  # (complete_time_ps, nbytes) in completion order
    events_before = sim.events_processed
    wall_before = sim.wall_seconds
    # Measurement window start: non-zero when an earlier phase (e.g.
    # steady-state preconditioning) already ran on this device.  All
    # throughput figures are window-relative so warm-up work never
    # inflates or dilutes the measured numbers.
    t_start = sim.now
    bytes_before = device.bytes_completed

    def issue_one(command: IoCommand):
        if honor_issue_times:
            # issue_time_ps is trace-relative; anchor it to the window
            # start, not the simulation epoch.
            issue_at = t_start + command.issue_time_ps
            if issue_at > sim.now:
                yield sim.timeout(issue_at - sim.now)
        if device.mode is DataPathMode.DDR_FLASH:
            yield from _execute_and_record(command)
        else:
            slot = yield from device.hostif.acquire_slot()
            try:
                yield from _execute_and_record(command)
            finally:
                device.hostif.release_slot(slot)

    def _execute_and_record(command: IoCommand):
        yield from device.execute(command, pattern)
        latencies.append(command.latency_ps)
        completions.append((command.complete_time_ps, command.nbytes))

    def driver():
        if device.mode is DataPathMode.DDR_FLASH:
            # Closed loop bounded by an internal issue window.
            from ..kernel import Resource
            window = Resource(sim, "issue_window",
                              capacity=internal_queue_depth)
            handles = []

            def windowed(command):
                grant = window.acquire()
                yield grant
                try:
                    yield from issue_one(command)
                finally:
                    window.release(grant)

            for command in commands:
                handles.append(sim.process(windowed(command)))
            yield sim.all_of(handles)
        else:
            handles = [sim.process(issue_one(command))
                       for command in commands]
            yield sim.all_of(handles)

    sim.run(until=sim.process(driver()))

    last = device.last_completion_ps
    span = (last if last > t_start else sim.now) - t_start
    total_bytes = device.bytes_completed - bytes_before
    seconds = span / 1e12 if span else 0.0
    mean_latency = (sum(latencies) / len(latencies) / 1e6) if latencies else 0
    max_latency = (max(latencies) / 1e6) if latencies else 0
    p50, p95, p99 = _latency_percentiles_us(latencies)

    return RunResult(
        label=label or f"{device.arch.label}/{workload.pattern_name}",
        throughput_mbps=(total_bytes / 1e6 / seconds) if seconds else 0.0,
        sustained_mbps=_sustained_mbps(completions, t_start=t_start),
        iops=(len(latencies) / seconds) if seconds else 0.0,
        commands=len(latencies),
        bytes_moved=total_bytes,
        sim_time_ps=sim.now,
        mean_latency_us=mean_latency,
        max_latency_us=max_latency,
        p50_latency_us=p50,
        p95_latency_us=p95,
        p99_latency_us=p99,
        wall_seconds=sim.wall_seconds - wall_before,
        events=sim.events_processed - events_before,
        utilizations=collect_utilizations(device),
        stage_breakdown=(_obs.active_recorder.breakdown()
                         if _obs.enabled else {}),
        outcomes=classify_commands(commands),
        ftl=(device.ftl_metrics()
             if hasattr(device, "ftl_metrics") else {}),
        **collect_reliability(device),
    )


def _latency_percentiles_us(latencies,
                            fractions=(0.50, 0.95, 0.99)) -> tuple:
    """Command latency percentiles in microseconds, one per fraction.

    Exact nearest rank over all samples: the sorted sample at index
    ``round(f * (n - 1))``.  Every latency percentile in a payload
    (run results and tenant rows) comes from here.
    """
    if not latencies:
        return (0.0,) * len(fractions)
    ordered = sorted(latencies)
    n = len(ordered)
    return tuple(ordered[min(n - 1, max(0, int(round(f * (n - 1)))))] / 1e6
                 for f in fractions)


def _sustained_mbps(completions, warmup_fraction: float = 0.5,
                    t_start: int = 0) -> float:
    """Post-warmup throughput: skips the initial cache-fill transient.

    ``t_start`` is the measurement-window start; it only matters for the
    short-trace fallback, which would otherwise divide by time since the
    simulation began instead of since the window opened.
    """
    if len(completions) < 8:
        if not completions:
            return 0.0
        last_time, __ = completions[-1]
        span = last_time - t_start
        total = sum(nbytes for __, nbytes in completions)
        return total / 1e6 / (span / 1e12) if span > 0 else 0.0
    ordered = sorted(completions)
    cut = int(len(ordered) * warmup_fraction)
    window_start = ordered[cut - 1][0] if cut else 0
    window_bytes = sum(nbytes for __, nbytes in ordered[cut:])
    span = ordered[-1][0] - window_start
    if span <= 0:
        return 0.0
    return window_bytes / 1e6 / (span / 1e12)


def collect_reliability(device: SsdDevice) -> Dict[str, object]:
    """Aggregate fault/recovery outcomes across the device hierarchy.

    UBER approximates the JEDEC definition at page granularity: each
    uncorrectable page read counts its full payload as bad bits against
    the total bits read, so ``uber = uncorrectable_reads / page_reads``.
    ``page_reads`` counts every page read the ECC judged: the successful
    ones plus the uncorrectable ones (host or GC reads alike).
    Deterministic by construction: every term is a pure function of the
    fault plan's seeded draws.
    """
    retries = sum(c.read_retries for c in device.channels)
    uncorrectable = sum(c.uncorrectable_reads for c in device.channels)
    reads = sum(c.reads for c in device.channels) + uncorrectable
    return {
        "failed_commands": device.commands_failed,
        "uber": (uncorrectable / reads) if reads else 0.0,
        "read_retries": retries,
        "retries_per_read": (retries / reads) if reads else 0.0,
        "uncorrectable_reads": uncorrectable,
        "retired_blocks": device.retired_blocks,
        "remapped_programs": device.remapped_programs,
        "page_reads": reads,
        "background_write_faults": device.background_write_faults,
    }


def collect_utilizations(device: SsdDevice) -> Dict[str, float]:
    """Headline busy fractions for the performance breakdown."""
    out: Dict[str, float] = {
        "host_link": device.hostif.utilization(),
    }
    if device.channels:
        out["onfi_data"] = (sum(c.buses.data_utilization()
                                for c in device.channels)
                            / len(device.channels))
        out["dies"] = (sum(c.mean_die_utilization()
                           for c in device.channels)
                       / len(device.channels))
    buffers = device.buffers.buffers
    if buffers:
        out["dram"] = sum(b.utilization() for b in buffers) / len(buffers)
    return out


def collect_utilization_timelines(device: SsdDevice,
                                  buckets: int = 60
                                  ) -> Dict[str, List[float]]:
    """Bucketed busy-fraction timelines of the device's hot units.

    Per channel: the mean of its die-array trackers (the unit that
    saturates first in the Fig. 3 regime).  Feeds the sparkline view of
    ``python -m repro profile``.
    """
    # Every tracker spans [0, now], so all timelines share one width; a
    # die the run never built contributes an all-zero timeline.
    width = len(UtilizationTracker(device.sim).timeline(buckets))
    out: Dict[str, List[float]] = {}
    if not width:
        return out
    for index, channel in enumerate(device.channels):
        per_die = [die.array_busy.timeline(buckets)
                   for die in channel.built_dies()]
        out[f"chn{index}.dies"] = [
            sum(t[i] for t in per_die) / channel.total_dies
            for i in range(width)]
    return out
