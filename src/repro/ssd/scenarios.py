"""Measurement scenarios: the five bars of the paper's Fig. 3/4.

For each architecture and workload the exploration flow measures:

* ``host_ideal``   — the interface streaming stand-alone ("SATA ideal"),
* ``host_ddr``     — interface + DMA into the DRAM buffers ("SATA+DDR"),
* ``ddr_flash``    — DRAM-to-flash drain bandwidth ("DDR+FLASH"),
* ``full`` (cache) — the complete SSD with write-back caching,
* ``full`` (no cache) — completion deferred to NAND program.

Every measured run in the package — these bars, trace replays, FTL and
tenant sweep points, profiled points and the Fig. 6 speed runs — goes
through one path: a :class:`Scenario` handed to :func:`run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ..host.traces import run_preconditioning
from ..host.workload import Workload
from ..kernel import Simulator
from .architecture import CachePolicy, SsdArchitecture
from .device import DataPathMode, SsdDevice
from .ftl_device import FtlSsdDevice
from .metrics import RunResult, run_workload


def host_ideal_mbps(arch: SsdArchitecture, block_bytes: int = 4096) -> float:
    """The interface's stand-alone streaming throughput (analytic)."""
    return arch.host.ideal_throughput_mbps(block_bytes)


class ScenarioRun(NamedTuple):
    """What :func:`run_scenario` produced; ``device.sim`` is its simulator."""

    result: RunResult
    device: SsdDevice
    preconditioning_commands: int


@dataclass(frozen=True)
class Scenario:
    """One measured run: a design point, a workload and device preparation.

    Callers resolve every field; :func:`run_scenario` applies no policy.
    ``precondition`` is the host-level ``none``/``fill``/``steady``
    warm-up; ``namespaces`` are ``(base_lba, end_lba, channels)`` ranges.
    A set ``ftl_utilization`` runs the real-FTL :class:`FtlSsdDevice`
    (``ftl_steady`` drives it to steady state first) instead of the
    WAF-abstraction :class:`SsdDevice`.
    """

    arch: SsdArchitecture
    workload: Any
    label: str = ""
    mode: DataPathMode = DataPathMode.FULL
    max_commands: Optional[int] = None
    preload_reads: bool = False
    warm_start: bool = False
    precondition: str = "none"
    honor_issue_times: bool = False
    namespaces: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()
    ftl_utilization: Optional[float] = None
    ftl_blocks_per_plane: Optional[int] = None
    ftl_steady: bool = False


def run_scenario(scenario: Scenario) -> ScenarioRun:
    """Build a fresh simulator and device, prepare it, run the workload.

    Warm-started and host-preconditioned runs are in the steady regime
    for their whole window, so their full-window throughput *is* the
    sustained figure — immune to erase-burst completion clumping.
    """
    sim = Simulator()
    if scenario.ftl_utilization is None:
        device = SsdDevice(sim, scenario.arch, mode=scenario.mode)
    else:
        device = FtlSsdDevice(
            sim, scenario.arch, mode=scenario.mode,
            logical_utilization=scenario.ftl_utilization,
            ftl_blocks_per_plane=scenario.ftl_blocks_per_plane)
    if scenario.namespaces:
        device.set_namespace_channels(list(scenario.namespaces))
    if scenario.preload_reads:
        device.preload_for_reads()
    if scenario.warm_start:
        device.warm_start_cache(scenario.workload.pattern_name)
    if scenario.ftl_steady:
        device.precondition_steady()
    warmup = 0
    if scenario.precondition != "none":
        commands = list(scenario.workload.commands())[:scenario.max_commands]
        span_sectors = max((c.lba + c.sectors for c in commands
                            if c.sectors), default=0) or 8
        warmup = run_preconditioning(sim, device, span_sectors,
                                     mode=scenario.precondition)
    result = run_workload(sim, device, scenario.workload,
                          max_commands=scenario.max_commands,
                          label=scenario.label,
                          honor_issue_times=scenario.honor_issue_times)
    if scenario.warm_start or scenario.precondition != "none":
        result.sustained_mbps = result.throughput_mbps
    return ScenarioRun(result, device, warmup)


def measure(arch: SsdArchitecture, workload: Workload,
            mode: DataPathMode = DataPathMode.FULL,
            max_commands: Optional[int] = None,
            label: str = "",
            preload_reads: bool = True,
            warm_start: bool = False) -> RunResult:
    """Build a fresh device and run one scenario (``preload_reads``
    applies only when the first command is a read)."""
    return run_scenario(Scenario(
        arch, workload, label=label, mode=mode, max_commands=max_commands,
        preload_reads=preload_reads and workload.opcode.name == "READ",
        warm_start=warm_start)).result


@dataclass
class BreakdownRow:
    """One configuration's Fig. 3/4 bar group."""

    label: str
    ddr_flash_mbps: float
    ssd_cache_mbps: float
    ssd_no_cache_mbps: float
    host_ideal_mbps: float
    host_ddr_mbps: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "DDR+FLASH": self.ddr_flash_mbps,
            "SSD cache": self.ssd_cache_mbps,
            "SSD no cache": self.ssd_no_cache_mbps,
            "HOST ideal": self.host_ideal_mbps,
            "HOST+DDR": self.host_ddr_mbps,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "BreakdownRow":
        """Inverse of ``dataclasses.asdict`` — used by the sweep cache."""
        return cls(label=str(payload["label"]),
                   ddr_flash_mbps=float(payload["ddr_flash_mbps"]),
                   ssd_cache_mbps=float(payload["ssd_cache_mbps"]),
                   ssd_no_cache_mbps=float(payload["ssd_no_cache_mbps"]),
                   host_ideal_mbps=float(payload["host_ideal_mbps"]),
                   host_ddr_mbps=float(payload["host_ddr_mbps"]))


def breakdown(arch: SsdArchitecture, workload: Workload,
              max_commands: Optional[int] = None) -> BreakdownRow:
    """Measure all five bars for one architecture (Fig. 3/4 row)."""
    row, __ = breakdown_with_events(arch, workload,
                                    max_commands=max_commands)
    return row


def breakdown_with_events(arch: SsdArchitecture, workload: Workload,
                          max_commands: Optional[int] = None
                          ) -> "tuple[BreakdownRow, int]":
    """The Fig. 3/4 row plus total kernel events across its four runs.

    The caching-policy run is *warm-started*: the DRAM write cache begins
    full with its flush backlog already queued, so the short trace
    measures the sustained regime instead of the cache-fill transient.
    """
    ddr_flash = measure(arch, workload, mode=DataPathMode.DDR_FLASH,
                        max_commands=max_commands,
                        label=f"{arch.label}/ddr+flash")
    cache = measure(arch.with_cache_policy(CachePolicy.CACHING), workload,
                    max_commands=max_commands,
                    label=f"{arch.label}/cache", warm_start=True)
    no_cache = measure(arch.with_cache_policy(CachePolicy.NO_CACHING),
                       workload, max_commands=max_commands,
                       label=f"{arch.label}/no-cache")
    host_ddr = measure(arch, workload, mode=DataPathMode.HOST_DDR,
                       max_commands=max_commands,
                       label=f"{arch.label}/host+ddr")
    row = BreakdownRow(
        label=arch.label,
        # DDR+FLASH is a makespan measure (drain a batch into flash);
        # cache/no-cache bars are steady-state sustained figures.
        ddr_flash_mbps=ddr_flash.throughput_mbps,
        ssd_cache_mbps=cache.sustained_mbps,
        ssd_no_cache_mbps=no_cache.sustained_mbps,
        host_ideal_mbps=host_ideal_mbps(arch, workload.block_bytes),
        host_ddr_mbps=host_ddr.sustained_mbps,
    )
    events = (ddr_flash.events + cache.events + no_cache.events
              + host_ddr.events)
    return row, events
