"""Canonical experiment definitions: the paper's tables and figures.

Everything the benchmark harness regenerates lives here so that tests,
benches and examples share one source of truth:

* :data:`TABLE2_CONFIGS` — the ten design points of Table II (Fig. 3/4),
* :data:`TABLE3_CONFIGS` — the eight configurations of Table III (Fig. 6),
* :func:`fig3_sweep` / :func:`fig4_sweep` — the host-interface studies,
* :func:`fig5_wearout_sweep` — fixed vs adaptive BCH over endurance,
* :func:`validation_config` — the barefoot-like instance behind Fig. 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ecc import AdaptiveBch, FixedBch
from ..host.interface import pcie_nvme_spec, sata2_spec
from ..host.workload import (Workload, sequential_read, sequential_write)
from ..ssd.architecture import (CachePolicy, SsdArchitecture,
                                parse_geometry_label)
from ..ssd.scenarios import BreakdownRow
from .sweep import SweepPoint, SweepRunner

#: Table II of the paper: "SSD CONFIGURATIONS" for Fig. 3 and Fig. 4.
TABLE2_LABELS: Dict[str, str] = {
    "C1": "4-DDR-buf;4-CHN;4-WAY;2-DIE",
    "C2": "8-DDR-buf;8-CHN;4-WAY;2-DIE",
    "C3": "8-DDR-buf;8-CHN;8-WAY;2-DIE",
    "C4": "8-DDR-buf;8-CHN;8-WAY;4-DIE",
    "C5": "8-DDR-buf;8-CHN;8-WAY;8-DIE",
    "C6": "16-DDR-buf;16-CHN;8-WAY;4-DIE",
    "C7": "16-DDR-buf;16-CHN;4-WAY;2-DIE",
    "C8": "32-DDR-buf;32-CHN;4-WAY;2-DIE",
    "C9": "32-DDR-buf;32-CHN;1-WAY;1-DIE",
    "C10": "32-DDR-buf;32-CHN;8-WAY;4-DIE",
}

#: Table III of the paper: configurations for the simulation-speed study.
TABLE3_LABELS: Dict[str, str] = {
    "C1": "1-DDR-buf;1-CHN;1-WAY;1-DIE",
    "C2": "1-DDR-buf;2-CHN;1-WAY;2-DIE",
    "C3": "1-DDR-buf;4-CHN;1-WAY;2-DIE",
    "C4": "1-DDR-buf;4-CHN;2-WAY;4-DIE",
    "C5": "4-DDR-buf;4-CHN;2-WAY;4-DIE",
    "C6": "4-DDR-buf;4-CHN;2-WAY;8-DIE",
    "C7": "4-DDR-buf;4-CHN;2-WAY;16-DIE",
    "C8": "32-DDR-buf;32-CHN;16-WAY;16-DIE",
}


def _architectures(labels: Dict[str, str],
                   base: Optional[SsdArchitecture] = None
                   ) -> Dict[str, SsdArchitecture]:
    base = base or SsdArchitecture()
    return {name: base.scaled(**parse_geometry_label(label))
            for name, label in labels.items()}


def table2_configs(base: Optional[SsdArchitecture] = None
                   ) -> Dict[str, SsdArchitecture]:
    """The ten Table II architectures, on a common base."""
    return _architectures(TABLE2_LABELS, base)


def table3_configs(base: Optional[SsdArchitecture] = None
                   ) -> Dict[str, SsdArchitecture]:
    """The eight Table III architectures, on a common base."""
    return _architectures(TABLE3_LABELS, base)


#: Workload of the Fig. 3/4 experiments: sequential write, 4 KiB payloads.
def fig3_workload(n_commands: int = 2000) -> Workload:
    return sequential_write(4096 * n_commands)


def breakdown_points(base: SsdArchitecture, n_commands: int,
                     configs: Optional[List[str]] = None,
                     prefix: str = "") -> List[SweepPoint]:
    """Table II study as sweep points (shared by figs, campaigns and the
    adaptive search, which prefixes its fast-tier screen ``fast/``)."""
    workload = fig3_workload(n_commands)
    selected = configs or list(TABLE2_LABELS)
    return [SweepPoint(name=f"{prefix}{name}", arch=arch,
                       workload=workload)
            for name, arch in table2_configs(base).items()
            if name in selected]


def _breakdown_sweep(base: SsdArchitecture, n_commands: int,
                     configs: Optional[List[str]],
                     runner: Optional[SweepRunner]
                     ) -> Dict[str, BreakdownRow]:
    """Fan a Table II study out through the sweep engine."""
    runner = runner or SweepRunner(workers=1)
    result = runner.run(breakdown_points(base, n_commands, configs))
    return {outcome.name: BreakdownRow.from_dict(outcome.payload)
            for outcome in result.outcomes if not outcome.failed}


def fig3_sweep(n_commands: int = 2000,
               configs: Optional[List[str]] = None,
               runner: Optional[SweepRunner] = None,
               fidelity=None) -> Dict[str, BreakdownRow]:
    """Fig. 3: sequential write over Table II with the SATA II interface.

    ``fidelity`` (a :class:`~repro.ssd.fidelity.FidelityConfig` or spec
    string) selects the abstraction level for every point; ``None``
    keeps the default cycle-accurate models.
    """
    base = SsdArchitecture(host=sata2_spec())
    if fidelity is not None:
        base = base.with_fidelity(fidelity)
    return _breakdown_sweep(base, n_commands, configs, runner)


def fig4_sweep(n_commands: int = 2000,
               configs: Optional[List[str]] = None,
               runner: Optional[SweepRunner] = None,
               fidelity=None) -> Dict[str, BreakdownRow]:
    """Fig. 4: the same study with PCIe Gen2 x8 + NVMe (64K commands)."""
    base = SsdArchitecture(host=pcie_nvme_spec(generation=2, lanes=8))
    if fidelity is not None:
        base = base.with_fidelity(fidelity)
    return _breakdown_sweep(base, n_commands, configs, runner)


#: Fig. 5 architecture: "both 4 channels 2 ways and 4 dies".
def fig5_architecture(ecc, normalized_endurance: float) -> SsdArchitecture:
    arch = SsdArchitecture(n_ddr_buffers=4, n_channels=4, n_ways=2,
                           dies_per_way=4, ecc=ecc)
    pe = arch.wear_model.pe_for_normalized(normalized_endurance)
    return arch.scaled(initial_pe_cycles=pe)


def fig5_wearout_sweep(fractions: Optional[List[float]] = None,
                       n_commands: int = 400,
                       runner: Optional[SweepRunner] = None,
                       fidelity=None
                       ) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 5: throughput vs normalized rated endurance.

    Returns four series keyed 'fixed-read', 'adaptive-read',
    'fixed-write', 'adaptive-write' as (fraction, MB/s) points.
    """
    fractions = fractions if fractions is not None \
        else [i / 10 for i in range(11)]
    series: Dict[str, List[Tuple[float, float]]] = {
        "fixed-read": [], "adaptive-read": [],
        "fixed-write": [], "adaptive-write": [],
    }
    read_wl = sequential_read(4096 * n_commands)
    write_wl = sequential_write(4096 * n_commands)
    points: List[SweepPoint] = []
    slots: List[Tuple[str, float]] = []
    for fraction in fractions:
        for scheme_name, ecc in (("fixed", FixedBch()),
                                 ("adaptive", AdaptiveBch())):
            arch = fig5_architecture(ecc, fraction)
            if fidelity is not None:
                arch = arch.with_fidelity(fidelity)
            for kind, workload, warm in (("read", read_wl, False),
                                         ("write", write_wl, True)):
                label = f"fig5/{scheme_name}/{kind}/{fraction}"
                points.append(SweepPoint(
                    name=label, arch=arch, workload=workload,
                    evaluator="measure",
                    params={"warm_start": warm, "label": label}))
                slots.append((f"{scheme_name}-{kind}", fraction))
    runner = runner or SweepRunner(workers=1)
    outcomes = runner.run(points).outcomes
    for (key, fraction), outcome in zip(slots, outcomes):
        if outcome.failed:
            continue
        series[key].append((fraction, outcome.payload["sustained_mbps"]))
    return series


# ----------------------------------------------------------------------
# Profiled single points (span observability on, in-process)
# ----------------------------------------------------------------------
def profile_point(arch: SsdArchitecture, workload: Workload,
                  n_commands: Optional[int] = None,
                  warm_start: bool = False, label: str = "",
                  buckets: int = 60):
    """Run one point with span observability enabled.

    Unlike the sweep paths this always runs in-process — span recorders
    are process-global and cannot cross into a drain process.
    Returns ``(RunResult, SpanRecorder, timelines)``: the result carries
    the per-stage breakdown, the recorder the raw spans (for Chrome-trace
    export), and ``timelines`` the per-channel utilization series.
    """
    from ..obs import spans as _obs
    from ..ssd.metrics import collect_utilization_timelines
    from ..ssd.scenarios import Scenario, run_scenario
    recorder = _obs.enable_observability()
    try:
        run = run_scenario(Scenario(
            arch, workload, label=label, max_commands=n_commands,
            preload_reads=workload.opcode.name == "READ",
            warm_start=warm_start))
        timelines = collect_utilization_timelines(run.device,
                                                  buckets=buckets)
    finally:
        _obs.disable_observability()
    return run.result, recorder, timelines


def fig3_profile(config: str = "C1", n_commands: int = 400,
                 buckets: int = 60):
    """A profiled Fig. 3 cache-policy point: where its time actually goes.

    The sweep reports one throughput number per bar; this runs the same
    (architecture, workload) with spans on so the bar's height can be
    explained — e.g. C1's saturation shows up as the ``flash_drain`` /
    ``queue`` stages dominating time-in-flight.
    """
    base = SsdArchitecture(host=sata2_spec())
    arch = table2_configs(base)[config].with_cache_policy(
        CachePolicy.CACHING)
    return profile_point(arch, fig3_workload(n_commands),
                         n_commands=n_commands, warm_start=True,
                         label=f"fig3/{config}/cache", buckets=buckets)


def fig5_profile(scheme: str = "adaptive", kind: str = "read",
                 fraction: float = 1.0, n_commands: int = 200,
                 buckets: int = 60):
    """A profiled Fig. 5 point (ECC scheme x workload x wear fraction).

    Shows the mechanism behind the fixed-vs-adaptive gap: at high wear
    the ``ecc_decode`` stage share grows for the fixed scheme while the
    adaptive one holds it flat.
    """
    if scheme not in ("fixed", "adaptive"):
        raise ValueError(f"scheme must be fixed|adaptive, got {scheme!r}")
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be read|write, got {kind!r}")
    ecc = AdaptiveBch() if scheme == "adaptive" else FixedBch()
    arch = fig5_architecture(ecc, fraction)
    factory = sequential_read if kind == "read" else sequential_write
    return profile_point(arch, factory(4096 * n_commands),
                         n_commands=n_commands, warm_start=kind == "write",
                         label=f"fig5/{scheme}/{kind}/{fraction}",
                         buckets=buckets)


#: Default endurance fractions for the fault-injection demo campaign:
#: healthy mid-life, near end-of-life, and at rated endurance.
FAULT_CAMPAIGN_FRACTIONS: Tuple[float, ...] = (0.5, 0.9, 1.0)


def faults_architecture(seed: int = 1234,
                        normalized_endurance: float = 0.9
                        ) -> SsdArchitecture:
    """A small drive with an aggressive-but-plausible fault campaign.

    Rates are scaled up from datasheet orders of magnitude so that a few
    hundred commands exhibit every recovery tier (read retry, remap,
    uncorrectable); the seed pins the whole schedule.
    """
    from ..faults import FaultConfig
    arch = SsdArchitecture(n_ddr_buffers=2, n_channels=2, n_ways=2,
                           dies_per_way=2, ecc=AdaptiveBch())
    pe = arch.wear_model.pe_for_normalized(normalized_endurance)
    # rber_scale 4x: below the ECC budget at mid-life, above it near
    # end-of-life, so the campaign shows the retry ladder engaging as the
    # drive wears out.
    faults = FaultConfig(enabled=True, seed=seed, rber_scale=4.0,
                         program_fail_prob=0.01, erase_fail_prob=0.01,
                         stuck_busy_prob=0.002, factory_bad_prob=0.002)
    return arch.scaled(initial_pe_cycles=pe, faults=faults)


def faults_campaign(n_commands: int = 300, seed: int = 1234,
                    fractions: Optional[List[float]] = None,
                    runner: Optional[SweepRunner] = None
                    ) -> Dict[str, Dict[str, object]]:
    """Seeded fault-injection campaign over wear levels and workloads.

    Returns ``{label: {"status": ..., "sustained_mbps": ...,
    <reliability metrics>}}`` in deterministic label order — two runs
    with the same seed must produce byte-identical rows whatever the
    worker count.

    Crashed points are reliability data, not noise: instead of being
    silently dropped they appear with ``status="failed"``, the failure's
    error type and message, and (when cached) the content key of the
    post-mortem envelope — the handle for
    ``repro.core.sweep.SweepCache`` forensics.
    """
    fractions = list(fractions if fractions is not None
                     else FAULT_CAMPAIGN_FRACTIONS)
    points: List[SweepPoint] = []
    for fraction in fractions:
        arch = faults_architecture(seed, fraction)
        # Writes warm-start the cache so the host is gated on the flash
        # drain (otherwise the closed loop ends before any page programs
        # and no write faults can fire).
        for kind, factory, warm in (("write", sequential_write, True),
                                    ("read", sequential_read, False)):
            label = f"faults/{kind}/{fraction}"
            points.append(SweepPoint(
                name=label, arch=arch, workload=factory(4096 * n_commands),
                evaluator="measure",
                params={"label": label, "warm_start": warm}))
    runner = runner or SweepRunner(workers=1)
    result = runner.run(points)
    rows: Dict[str, Dict[str, object]] = {}
    for outcome in result.outcomes:
        if outcome.failed:
            rows[outcome.name] = {
                "status": "failed",
                "error_type": outcome.failure.error_type,
                "message": outcome.failure.message,
                "post_mortem_key": outcome.key,
            }
            continue
        row: Dict[str, object] = {
            "status": "ok",
            "sustained_mbps": outcome.payload["sustained_mbps"]}
        row.update(outcome.payload.get("reliability", {}))
        rows[outcome.name] = row
    return rows


def validation_config() -> SsdArchitecture:
    """The barefoot-controller-like instance validated in Fig. 2.

    The Indilinx Barefoot generation: SATA II with NCQ, 4 channels with
    deep way interleaving, DRAM write cache enabled, fixed BCH.
    """
    return SsdArchitecture(
        n_ddr_buffers=4, n_channels=4, n_ways=4, dies_per_way=2,
        host=sata2_spec(), ecc=FixedBch(t=8),
    )
