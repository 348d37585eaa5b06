"""One-shot reproduction report.

Runs every experiment of the paper's evaluation at a chosen scale and
renders a single markdown document — the live counterpart of the
hand-curated EXPERIMENTS.md.  Used by ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..obs import render_bottleneck_report, render_stage_table
from .experiments import (fig3_profile, fig3_sweep, fig4_sweep,
                          fig5_wearout_sweep, table2_configs,
                          table3_configs)
from .explorer import ResourceCostModel
from .features import render_table, verify_ssdexplorer_column
from .report import (render_breakdown_table, render_series_table,
                     render_speed_table, render_validation_table)
from .speed import speed_sweep
from .sweep import SweepRunner
from .validation import run_validation


def _render_ftl_section(runner: SweepRunner) -> List[str]:
    """The ``repro ftl sweep`` table for the bundled sample trace."""
    import os

    from .ftlsweep import (analytic_waf_check, ftl_sweep, ftl_sweep_table,
                           render_ftl_sweep_table)
    from .goldens import SAMPLE_TRACE
    from .tracereplay import TraceWorkload
    if not os.path.exists(SAMPLE_TRACE):
        return ["## FTL schemes under a DRAM budget", "",
                f"_skipped: sample trace {SAMPLE_TRACE!r} not found_", ""]
    rows = ftl_sweep_table(ftl_sweep(
        TraceWorkload.from_file(SAMPLE_TRACE),
        schemes=["pagemap", "groupmap", "dftl"], runner=runner))
    return ["## FTL schemes under a DRAM budget (sample trace)", "", "```",
            render_ftl_sweep_table(rows, analytic_waf_check()), "```", ""]


def _render_tenants_section(runner: SweepRunner) -> List[str]:
    """The ``repro tenants sweep --counts 1,3`` table."""
    from .tenantsweep import (render_tenant_sweep_table, tenant_sweep,
                              tenant_sweep_table)
    rows = tenant_sweep_table(tenant_sweep(counts=[1, 3], runner=runner))
    return (["## Multi-tenant serving — arbitration and tail QoS", "",
             "```", render_tenant_sweep_table(rows), "```", "",
             "Tail percentiles are exact nearest-rank over the tenant's N "
             "commands; `worst nbr` is the tenant's largest pairwise "
             "mean-latency inflation vs its solo baseline (the "
             "noisy-neighbor matrix's worst column).", ""])


def generate_report(n_commands: int = 800,
                    configs: Optional[List[str]] = None,
                    include_fig4: bool = True,
                    include_reliability: bool = True,
                    include_ftl: bool = True,
                    reliability_replicas: int = 8,
                    runner: Optional[SweepRunner] = None) -> str:
    """Run the evaluation and return the report as markdown text.

    ``n_commands`` scales every workload; the default trades some
    steady-state fidelity for a few minutes of runtime.  ``configs``
    restricts the Table II sweeps.  ``runner`` (default: a serial
    :class:`SweepRunner`) evaluates every simulated section — Fig. 2,
    Fig. 3/4/5, the FTL zoo, the tenant grid and the reliability
    campaign — so a runner with a ``cache_dir`` serves repeated
    sections from its cache.  Fig. 6 (host wall time) and the Fig. 3
    bottleneck breakdown (a live span recorder) always run in-process.
    ``include_reliability`` adds a small Monte-Carlo reliability
    campaign (``reliability_replicas`` seeded fault trials per
    fig-faults wear level) with Wilson-CI estimates and the
    perf-vs-reliability-vs-spares frontier.  ``include_ftl`` adds the
    ``repro ftl sweep`` table on the bundled sample trace (skipped when
    the trace is not on disk); the multi-tenant section is the
    ``repro tenants sweep --counts 1,3`` table.
    """
    runner = runner or SweepRunner(workers=1)
    started = time.perf_counter()
    sections: List[str] = [
        "# SSDExplorer reproduction — generated report", "",
        f"Workload scale: {n_commands} commands per run.", "",
    ]

    sections += ["## Table I — feature matrix", "", "```",
                 render_table(), "```", ""]
    checks = verify_ssdexplorer_column()
    failing = [name for name, ok in checks.items() if not ok]
    sections.append(f"Capability checks: {len(checks) - len(failing)}"
                    f"/{len(checks)} pass"
                    + (f" — MISSING: {failing}" if failing else "") + "\n")

    sections += ["## Fig. 2 — validation vs reference device", "", "```",
                 render_validation_table(run_validation(
                     n_commands=max(1600, n_commands), runner=runner)),
                 "```", ""]

    fig3 = fig3_sweep(n_commands=n_commands, configs=configs,
                      runner=runner)
    sections += ["## Fig. 3 — sequential write, SATA II", "", "```",
                 render_breakdown_table(fig3), "```", ""]
    host_line = next(iter(fig3.values())).host_ddr_mbps
    saturating = sorted(name for name, row in fig3.items()
                        if row.ssd_cache_mbps >= 0.97 * host_line)
    cost = ResourceCostModel()
    table2 = table2_configs()
    optimal = min(saturating,
                  key=lambda name: cost.cost(table2[name])) \
        if saturating else None
    sections.append(f"Saturating (cache policy): {saturating}; "
                    f"optimal design point: {optimal}\n")

    profile_config = (configs[0] if configs else "C1")
    __, recorder, __timelines = fig3_profile(
        config=profile_config, n_commands=max(200, n_commands // 4))
    sections += [f"## Fig. 3 bottleneck breakdown ({profile_config}, "
                 "cache policy)", "", "```",
                 render_stage_table(recorder.breakdown()), "",
                 render_bottleneck_report(recorder), "```", ""]

    if include_fig4:
        fig4 = fig4_sweep(n_commands=n_commands, configs=configs,
                          runner=runner)
        sections += ["## Fig. 4 — sequential write, PCIe Gen2 x8 + NVMe",
                     "", "```", render_breakdown_table(fig4), "```", ""]

    series = fig5_wearout_sweep(fractions=[0.0, 0.25, 0.5, 0.75, 1.0],
                                n_commands=max(200, n_commands // 4),
                                runner=runner)
    sections += ["## Fig. 5 — throughput over NAND wear-out", "", "```",
                 render_series_table(series), "```", ""]

    samples = speed_sweep(table3_configs(),
                          n_commands=max(100, n_commands // 4))
    sections += ["## Fig. 6 — simulation speed (KCPS)", "", "```",
                 render_speed_table(samples), "```", ""]

    if include_ftl:
        sections += _render_ftl_section(runner)

    sections += _render_tenants_section(runner)

    if include_reliability:
        from .reliability import ReliabilityGrid, run_reliability_campaign
        outcome = run_reliability_campaign(
            grid=ReliabilityGrid(n_commands=max(60, n_commands // 8)),
            runner=runner, replicas=reliability_replicas)
        sections += ["## Reliability — Monte-Carlo fault campaign "
                     f"({reliability_replicas} replicas/cell, 95% "
                     "Wilson CIs)", "", "```", outcome.format(), "```", ""]

    elapsed = time.perf_counter() - started
    sections.append(f"_Report generated in {elapsed:.1f} s._")
    return "\n".join(sections) + "\n"
