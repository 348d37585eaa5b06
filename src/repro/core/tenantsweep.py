"""Multi-tenant serving sweep: arbitration, tail QoS, interference.

EagleTree-style experiment family (PAPERS.md): the interesting output of
a multi-initiator run is *interference and tail behavior*, not mean
throughput.  Each sweep point arbitrates N tenant streams
(:mod:`repro.host.tenants`) into one device admission order, replays it
through the standard :func:`~repro.ssd.metrics.run_workload` path, then
separates the completed commands back per tenant to report:

* p50 / p99 / p99.9 / p99.99 latency, exact nearest-rank over the
  tenant's N commands (the rule every run result uses);
* achieved vs demanded IOPS share (demand from arbitration weights, or
  from configured rates for open-loop tenants);
* an N×N noisy-neighbor matrix: tenant *i*'s mean-latency inflation when
  paired with tenant *j* versus running solo on the identical namespace
  layout, with the GC-attributed share measured via the span/obs layer.

Determinism contract (same as every evaluator): payloads depend only on
fingerprint inputs, ``wall_seconds`` is zeroed, and — locked by the
tenant byte-identity tier — a single tenant degenerates to the plain
single-initiator path because the merge of one stream *is* that stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..host.tenants import (ARBITRATION_POLICIES, Tenant, TenantSpec,
                            arbitration_burst, build_tenants, merge_tenants)
from ..host.workload import CommandListWorkload
from ..obs.profile import render_columns
from ..obs.spans import disable_observability, enable_observability
from ..ssd.architecture import SsdArchitecture
from ..ssd.metrics import RunResult, _latency_percentiles_us, json_safe
from ..ssd.scenarios import Scenario, run_scenario
from .sweep import SweepPoint, SweepRunner
from .tracereplay import verify_trace

#: Tenant-set sizes and policies of the default sweep grid.
DEFAULT_TENANT_COUNTS = (1, 2, 3)


def tenants_base_architecture() -> SsdArchitecture:
    """Default design point for tenant sweeps: the 4-die microscope on an
    NVMe host.

    Same concentrated geometry as the FTL microscope (short streams must
    actually contend), but behind PCIe/NVMe — per-tenant submission
    queues are an NVMe concept, and the deep host queue keeps the closed
    loop saturating so arbitration, not the host link, sets the shares.
    """
    from ..host.interface import pcie_nvme_spec
    return SsdArchitecture().scaled(n_channels=2, n_ways=2, dies_per_way=1,
                                    n_ddr_buffers=2,
                                    host=pcie_nvme_spec(queue_depth=64))


def default_tenant_set(n: int) -> List[TenantSpec]:
    """A varied n-tenant mix for grid points: distinct workload shapes,
    escalating weights (tenant i gets weight i+1), per-tenant seeds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shapes = ("RR", "SW", "kv", "mixed", "pageio", "SR", "RW")
    return [TenantSpec(name=f"t{i}", workload=shapes[i % len(shapes)],
                       n_commands=48, block_bytes=4096,
                       span_bytes=1 << 22, weight=i + 1, queue_depth=8,
                       seed=0xC0FFEE + i)
            for i in range(n)]


# ----------------------------------------------------------------------
# Core run


def _demanded_shares(specs: Sequence[TenantSpec],
                     policy: str) -> List[float]:
    """Each tenant's demanded IOPS fraction.

    Open-loop sets demand their configured rates; closed-loop sets
    demand what :func:`~repro.host.tenants.merge_tenants` admits per
    round — each tenant's burst over the sum of bursts (equal shares
    under ``rr``; weights capped at queue depth under ``wrr``).
    """
    if any(spec.open_loop for spec in specs):
        total = sum(spec.rate_iops for spec in specs)
        return [spec.rate_iops / total if total else 0.0 for spec in specs]
    bursts = [arbitration_burst(spec, policy) for spec in specs]
    total = sum(bursts)
    return [burst / total for burst in bursts]


def _tenant_rows(tenants: Sequence[Tenant],
                 merged: Sequence[Tuple[int, Any]], policy: str
                 ) -> List[Dict[str, Any]]:
    """Separate a completed merged run back into per-tenant metrics."""
    demanded = _demanded_shares([tenant.spec for tenant in tenants], policy)
    latencies: List[List[int]] = [[] for __ in tenants]
    nbytes = [0] * len(tenants)
    last_done = [0] * len(tenants)
    for index, command in merged:
        if command.complete_time_ps < 0:
            continue
        latencies[index].append(command.latency_ps)
        nbytes[index] += command.nbytes
        last_done[index] = max(last_done[index], command.complete_time_ps)
    iops = []
    for index in range(len(tenants)):
        seconds = last_done[index] / 1e12
        iops.append(len(latencies[index]) / seconds if seconds else 0.0)
    total_iops = sum(iops)
    rows: List[Dict[str, Any]] = []
    for index, tenant in enumerate(tenants):
        lat = latencies[index]
        p50, p99, p999, p9999 = _latency_percentiles_us(
            lat, (0.50, 0.99, 0.999, 0.9999))
        rows.append({
            "name": tenant.name,
            "workload": tenant.spec.workload,
            "weight": tenant.spec.weight,
            "commands": len(lat),
            "bytes": nbytes[index],
            "demanded_share": demanded[index],
            "achieved_share": iops[index] / total_iops if total_iops
            else 0.0,
            "achieved_iops": iops[index],
            "latency_us": {
                "mean": (sum(lat) / len(lat) / 1e6) if lat else 0.0,
                "max": (max(lat) / 1e6) if lat else 0.0,
                "p50": p50,
                "p99": p99,
                "p999": p999,
                "p9999": p9999,
            },
        })
    return rows


def _run_merged(arch: SsdArchitecture, tenants: Sequence[Tenant],
                active: Sequence[int], policy: str, label: str
                ) -> Tuple[List[Tuple[int, Any]], RunResult]:
    """Merge the ``active`` tenants' streams and run them on one device.

    Every tenant in ``tenants`` keeps its namespace binding (so partition
    bases and channel sets are identical however many are active);
    only the active streams are arbitrated and driven.  Returns the
    merged ``(position in active, command)`` list and the RunResult.
    """
    subset = [tenants[index] for index in active]
    merged = merge_tenants(subset, policy=policy)
    namespaces = tuple((tenant.partition.base_lba, tenant.partition.end_lba,
                        tenant.partition.channels)
                       for tenant in tenants if tenant.partition.channels)
    # Random dominates a mix for the WAF model.
    pattern = ("random" if any(tenant.pattern == "random"
                               for tenant in subset) else "sequential")
    result = run_scenario(Scenario(
        arch, CommandListWorkload([command for __, command in merged],
                                  pattern=pattern),
        label=label, preload_reads=True,
        honor_issue_times=any(tenant.spec.open_loop
                              or tenant.spec.workload == "trace"
                              for tenant in subset),
        namespaces=namespaces)).result
    return merged, result


def run_tenant_mix(arch: SsdArchitecture, specs: Sequence[TenantSpec],
                   policy: str = "rr", isolate_channels: bool = False,
                   label: str = "") -> Tuple[Dict[str, Any], RunResult]:
    """Arbitrate and run one tenant mix; returns (payload, RunResult).

    The payload's ``aggregate`` section is the plain
    :meth:`~repro.ssd.metrics.RunResult.to_payload` of the merged run —
    for a single tenant it is byte-identical to what ``run_workload``
    reports for that tenant's stream alone, because the merged stream
    *is* that stream and the device setup is the same.
    """
    if policy not in ARBITRATION_POLICIES:
        raise ValueError(f"unknown arbitration policy {policy!r}")
    tenants = build_tenants(specs, n_channels=arch.n_channels,
                            isolate_channels=isolate_channels)
    merged, result = _run_merged(
        arch, tenants, range(len(tenants)), policy,
        label or f"tenants-{len(tenants)}-{policy}")
    payload = {
        "label": result.label,
        "policy": policy,
        "n_tenants": len(tenants),
        "isolate_channels": bool(isolate_channels),
        "tenants": json_safe(_tenant_rows(tenants, merged, policy)),
        "aggregate": result.to_payload(),
    }
    return payload, result


# ----------------------------------------------------------------------
# Noisy-neighbor interference matrix


def _measure_subset(arch: SsdArchitecture, specs: Sequence[TenantSpec],
                    active: Sequence[int], policy: str,
                    isolate_channels: bool
                    ) -> Tuple[Dict[int, Tuple[float, float]], int]:
    """Run only ``active`` tenants on the *full* namespace layout.

    Returns ``{tenant_index: (mean_latency_us, gc_us_per_command)}`` plus
    the kernel event count.
    """
    tenants = build_tenants(specs, n_channels=arch.n_channels,
                            isolate_channels=isolate_channels)
    merged, result = _run_merged(
        arch, tenants, active, policy,
        f"interference-{'+'.join(tenants[i].name for i in active)}")
    stats: Dict[int, Tuple[float, float]] = {}
    for position, tenant_index in enumerate(active):
        commands = [command for index, command in merged
                    if index == position and command.complete_time_ps >= 0]
        if not commands:
            stats[tenant_index] = (0.0, 0.0)
            continue
        mean_us = sum(c.latency_ps for c in commands) / len(commands) / 1e6
        gc_ps = sum(c.span.stage_totals().get("gc", 0)
                    for c in commands if c.span is not None)
        stats[tenant_index] = (mean_us, gc_ps / len(commands) / 1e6)
    return stats, result.events


def interference_matrix(arch: SsdArchitecture,
                        specs: Sequence[TenantSpec], policy: str = "rr",
                        isolate_channels: bool = False
                        ) -> Tuple[Dict[str, Any], int]:
    """N×N noisy-neighbor matrix: pairwise latency inflation vs solo.

    ``inflation[i][j]`` is tenant *i*'s mean-latency inflation (e.g.
    ``0.25`` = 25% slower) when running *with* tenant *j*, against
    tenant *i* running solo on the identical namespace layout; the
    diagonal is zero by definition.  ``gc_attributed_us[i][j]`` is the
    per-command GC time tenant *i* gained in that pairing, measured from
    command spans (observability is armed for these sub-runs only — it
    records time, it does not change it).

    Runs N solo + N·(N−1)/2 pairwise simulations; returns the matrix
    payload and the total kernel events they cost.
    """
    n = len(specs)
    names = [spec.name for spec in specs]
    inflation = [[0.0] * n for __ in range(n)]
    gc_us = [[0.0] * n for __ in range(n)]
    events = 0
    enable_observability()
    try:
        solo: Dict[int, Tuple[float, float]] = {}
        for index in range(n):
            stats, cost = _measure_subset(arch, specs, [index], policy,
                                          isolate_channels)
            solo[index] = stats[index]
            events += cost
        for i in range(n):
            for j in range(i + 1, n):
                stats, cost = _measure_subset(arch, specs, [i, j], policy,
                                              isolate_channels)
                events += cost
                for victim, neighbor in ((i, j), (j, i)):
                    mean_us, pair_gc = stats[victim]
                    base_us, base_gc = solo[victim]
                    inflation[victim][neighbor] = (
                        mean_us / base_us - 1.0 if base_us else 0.0)
                    gc_us[victim][neighbor] = pair_gc - base_gc
    finally:
        disable_observability()
    return json_safe({"tenants": names, "inflation": inflation,
                      "gc_attributed_us": gc_us}), events


# ----------------------------------------------------------------------
# Sweep wiring


def evaluate_tenants_point(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """The ``tenants`` sweep evaluator (runs inside worker processes)."""
    specs = list(point.workload)
    for spec in specs:
        if not isinstance(spec, TenantSpec):
            raise TypeError(f"tenants evaluator needs TenantSpec items, "
                            f"got {type(spec).__name__}")
        if spec.workload == "trace" and spec.trace_sha256:
            verify_trace(spec.trace_path, spec.trace_sha256,
                         f"tenant {spec.name!r}")
    params = dict(point.params)
    policy = str(params.get("policy", "rr"))
    isolate = bool(params.get("isolate_channels", False))
    payload, result = run_tenant_mix(
        point.arch, specs, policy=policy, isolate_channels=isolate,
        label=str(params.get("label", point.name)))
    events = result.events
    if params.get("interference", True) and len(specs) > 1:
        matrix, cost = interference_matrix(point.arch, specs,
                                           policy=policy,
                                           isolate_channels=isolate)
        payload["interference"] = matrix
        events += cost
    return payload, events


def tenant_sweep_points(counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
                        policies: Sequence[str] = ARBITRATION_POLICIES,
                        base: Optional[SsdArchitecture] = None,
                        interference: bool = True) -> List[SweepPoint]:
    """The tenant-count × arbitration-policy grid (``t{n}-{policy}``)."""
    arch = base or tenants_base_architecture()
    points: List[SweepPoint] = []
    for count in counts:
        specs = default_tenant_set(count)
        for policy in policies:
            if policy not in ARBITRATION_POLICIES:
                raise ValueError(f"unknown arbitration policy {policy!r}")
            name = f"t{count}-{policy}"
            points.append(SweepPoint(
                name=name, arch=arch, workload=specs, evaluator="tenants",
                params={"policy": policy, "label": name,
                        "interference": interference}))
    return points


def tenant_sweep(counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
                 policies: Sequence[str] = ARBITRATION_POLICIES,
                 base: Optional[SsdArchitecture] = None,
                 runner: Optional[SweepRunner] = None,
                 interference: bool = True) -> Dict[str, Dict[str, Any]]:
    """Run the grid; ``{point name: payload}``.

    Raises :class:`~repro.core.sweep.CampaignError` (a ``RuntimeError``)
    if any point fails, naming each failed point
    — a missing key always means "not requested", never "silently
    dropped".
    """
    runner = runner or SweepRunner(workers=1)
    result = runner.run(tenant_sweep_points(counts=counts,
                                            policies=policies, base=base,
                                            interference=interference))
    return result.checked_payloads("tenant")


def tenant_sweep_table(payloads: Dict[str, Dict[str, Any]]
                       ) -> List[Dict[str, Any]]:
    """Flatten sweep payloads to per-tenant QoS rows (one per tenant per
    point): shares, tail percentiles and the worst neighbor's inflation."""
    rows: List[Dict[str, Any]] = []
    for name, payload in payloads.items():
        matrix = payload.get("interference", {})
        names = matrix.get("tenants", [])
        inflation = matrix.get("inflation", [])
        for row in payload.get("tenants", []):
            worst = None
            if row["name"] in names:
                index = names.index(row["name"])
                others = [value for j, value in enumerate(inflation[index])
                          if j != index]
                worst = max(others) if others else None
            latency = row.get("latency_us", {})
            rows.append({
                "point": name,
                "policy": payload.get("policy"),
                "tenant": row["name"],
                "workload": row["workload"],
                "weight": row["weight"],
                "commands": row["commands"],
                "demanded_share": row["demanded_share"],
                "achieved_share": row["achieved_share"],
                "mean_latency_us": latency.get("mean"),
                "p50_latency_us": latency.get("p50"),
                "p99_latency_us": latency.get("p99"),
                "p999_latency_us": latency.get("p999"),
                "p9999_latency_us": latency.get("p9999"),
                "worst_neighbor_inflation": worst,
            })
    return rows


def share_cell(row: Dict[str, Any]) -> str:
    """The ``share d/a`` cell: demanded/achieved IOPS share."""
    return f"{row['demanded_share']:>5.2f}/{row['achieved_share']:<5.2f}"


def render_tenant_sweep_table(rows: Sequence[Dict[str, Any]]) -> str:
    """The ``repro tenants sweep`` table over :func:`tenant_sweep_table`
    rows (also the report's multi-tenant section)."""
    return render_columns(
        [("point", "<10"), ("tenant", "<8"), ("workload", "<8"),
         ("share d/a", ">11"), ("p50 us", ">9.1f"), ("p99 us", ">9.1f"),
         ("p99.9", ">9.1f"), ("p99.99", ">9.1f"), ("worst nbr", ">10.3f")],
        ([row["point"], row["tenant"], row["workload"], share_cell(row),
          row["p50_latency_us"], row["p99_latency_us"],
          row["p999_latency_us"], row["p9999_latency_us"],
          "-" if row["worst_neighbor_inflation"] is None
          else row["worst_neighbor_inflation"]]
         for row in rows))
