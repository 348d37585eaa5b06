"""FTL scheme-zoo sweep: WAF / latency / mapping footprint vs DRAM budget.

The paper's FTL layer is plug & play firmware; this experiment makes the
*mapping scheme* and its controller-DRAM cost a sweepable design axis.
Each point replays the bundled sample trace (or any
:class:`~repro.core.tracereplay.TraceWorkload`) through a timed
:class:`~repro.ssd.ftl_device.FtlSsdDevice` running one registered
scheme, preconditioned into the steady (GC-active) regime, and reports
the measured WAF, latency and the scheme's mapping footprint side by
side.  DRAM-sensitive schemes (dftl) are expanded across a ladder of
``ftl_dram_bytes`` budgets so the table charts the footprint/WAF/latency
trade-off the scheme exists to make.

:func:`analytic_waf_check` closes the loop against the analytic model:
the page-map reference, driven to steady state on uniform random writes,
must measure a WAF between 1.0 and Hu et al.'s LRU closed form (greedy
cleaning beats LRU) and near the block-level greedy simulation.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..ftl.pagemap import FlashBackend, PageMapFtl
from ..ftl.schemes import get_scheme, scheme_footprint, scheme_names
from ..ftl.waf import GreedyWafSimulator, spare_factor, waf_lru_analytic
from ..host.traces.records import TraceError
from ..host.workload import CommandListWorkload
from ..obs.profile import render_columns
from ..ssd.architecture import SsdArchitecture
from ..ssd.ftl_device import ftl_blocks
from ..ssd.scenarios import Scenario, run_scenario
from .sweep import SweepPoint, SweepRunner
from .tracereplay import TraceWorkload, _load_commands, verify_trace

#: Reduced block count per plane for FTL sweep points: the full 2048
#: blocks/plane would need multi-GiB traces before GC ever runs; eight
#: keeps the whole physical space inside a short trace's reach.
DEFAULT_BLOCKS_PER_PLANE = 8

#: Logical utilization for sweep points — high enough that steady-state
#: preconditioning parks every die near the GC watermark, low enough to
#: satisfy the FTL's spare-block floor on the reduced geometry.
DEFAULT_UTILIZATION = 0.75


def ftl_base_architecture() -> SsdArchitecture:
    """Default design point for FTL sweeps: a 4-die "FTL microscope".

    The full 32-die default spreads a short trace so thin that no die
    ever reaches its GC watermark inside the measured window; four dies
    concentrate the same traffic enough that garbage collection, RMW and
    translation paging all show up against the bundled sample trace.
    """
    return SsdArchitecture().scaled(n_channels=2, n_ways=2, dies_per_way=1,
                                    n_ddr_buffers=2)


def evaluate_ftl_point(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """The ``ftl`` sweep evaluator (runs inside worker processes).

    Unless ``params["precondition"]`` is false the FTL is driven to the
    steady (GC-active) regime first —
    :meth:`~repro.ssd.ftl_device.FtlSsdDevice.precondition_steady`.
    """
    workload = point.workload
    if not isinstance(workload, TraceWorkload):
        raise TypeError(f"ftl evaluator needs a TraceWorkload, "
                        f"got {type(workload).__name__}")
    verify_trace(workload.path, workload.sha256, "the workload")
    params = dict(point.params)
    __, commands, pattern = _load_commands(workload, point.arch)
    result = run_scenario(Scenario(
        point.arch, CommandListWorkload(commands, pattern=pattern),
        label=str(params.get("label", point.name)),
        honor_issue_times=workload.honor_issue_times,
        ftl_utilization=float(params.get("logical_utilization",
                                         DEFAULT_UTILIZATION)),
        ftl_blocks_per_plane=int(params.get("ftl_blocks_per_plane",
                                            DEFAULT_BLOCKS_PER_PLANE)),
        ftl_steady=bool(params.get("precondition", True)))).result
    return result.to_payload(), result.events


def default_dram_budgets(arch: Optional[SsdArchitecture] = None,
                         logical_utilization: float = DEFAULT_UTILIZATION,
                         blocks_per_plane: int = DEFAULT_BLOCKS_PER_PLANE
                         ) -> List[int]:
    """A ladder of ``ftl_dram_bytes`` budgets spanning the cached range.

    Derived from the geometry so the smallest budget caches a single
    translation page, the largest holds the whole translation set
    (directory + every translation page), and the middle sits halfway.
    """
    arch = arch or ftl_base_architecture()
    geometry = arch.geometry
    physical_pages = (arch.total_dies * geometry.planes_per_die
                      * blocks_per_plane * geometry.pages_per_block)
    data_pages = int(physical_pages * logical_utilization)
    footprint = scheme_footprint("dftl", data_pages,
                                 page_bytes=geometry.page_bytes)
    full = footprint.dram_bytes
    entries_per_tpage = max(1, geometry.page_bytes // footprint.entry_bytes)
    tpages = -(-data_pages // entries_per_tpage)
    minimum = (tpages * footprint.entry_bytes
               + entries_per_tpage * footprint.entry_bytes)
    return sorted({minimum, (minimum + full) // 2, full})


def ftl_sweep_points(workload: TraceWorkload,
                     schemes: Optional[List[str]] = None,
                     dram_budgets: Optional[List[int]] = None,
                     base: Optional[SsdArchitecture] = None,
                     logical_utilization: float = DEFAULT_UTILIZATION,
                     blocks_per_plane: int = DEFAULT_BLOCKS_PER_PLANE
                     ) -> List[SweepPoint]:
    """One sweep point per scheme — DRAM-sensitive schemes get one per
    budget in ``dram_budgets`` (named ``scheme@<KiB>``).

    Raises ``ValueError`` before building any point if the utilization
    or block count cannot size an FTL on ``base``.
    """
    arch = base or ftl_base_architecture()
    ftl_blocks(arch, logical_utilization, blocks_per_plane)
    selected = schemes or scheme_names()
    budgets = dram_budgets if dram_budgets is not None else \
        default_dram_budgets(arch, logical_utilization, blocks_per_plane)
    params = {"logical_utilization": logical_utilization,
              "ftl_blocks_per_plane": blocks_per_plane}
    points: List[SweepPoint] = []
    for name in selected:
        scheme = get_scheme(name)   # raises on unknown names up front
        if scheme.dram_sensitive and budgets:
            for budget in budgets:
                label = f"{name}@{budget // 1024}KiB"
                points.append(SweepPoint(
                    name=label,
                    arch=arch.scaled(ftl_scheme=name,
                                     ftl_dram_bytes=int(budget)),
                    workload=workload, evaluator="ftl",
                    params={**params, "label": label}))
        else:
            points.append(SweepPoint(
                name=name, arch=arch.scaled(ftl_scheme=name),
                workload=workload, evaluator="ftl",
                params={**params, "label": name}))
    return points


def ftl_sweep(workload: TraceWorkload,
              schemes: Optional[List[str]] = None,
              dram_budgets: Optional[List[int]] = None,
              base: Optional[SsdArchitecture] = None,
              runner: Optional[SweepRunner] = None,
              logical_utilization: float = DEFAULT_UTILIZATION,
              blocks_per_plane: int = DEFAULT_BLOCKS_PER_PLANE
              ) -> Dict[str, Dict[str, Any]]:
    """Replay one trace across the FTL scheme zoo; {point name: payload}.

    Raises :class:`TraceError` if any point fails, naming each failed
    point — a missing key always means "not requested", never "silently
    dropped".
    """
    runner = runner or SweepRunner(workers=1)
    result = runner.run(ftl_sweep_points(
        workload, schemes=schemes, dram_budgets=dram_budgets, base=base,
        logical_utilization=logical_utilization,
        blocks_per_plane=blocks_per_plane))
    return result.checked_payloads("ftl", TraceError)


def ftl_sweep_table(payloads: Dict[str, Dict[str, Any]]
                    ) -> List[Dict[str, Any]]:
    """Flatten sweep payloads into chartable trade-off rows.

    One row per point: scheme, DRAM/table/flash bytes, cached fraction,
    measured WAF, throughput and latency — the columns of the
    EXPERIMENTS.md trade-off table.
    """
    rows: List[Dict[str, Any]] = []
    for name, payload in payloads.items():
        ftl = payload.get("ftl", {})
        footprint = ftl.get("footprint", {})
        rows.append({
            "point": name,
            "scheme": ftl.get("scheme", "?"),
            "waf": ftl.get("waf"),
            "host_writes": ftl.get("host_writes", 0),
            "gc_relocations": ftl.get("gc_relocations", 0),
            "rmw_relocations": ftl.get("rmw_relocations", 0),
            "translation_writes": ftl.get("translation_writes", 0),
            "gc_deferrals": ftl.get("gc_deferrals", 0),
            "table_bytes": footprint.get("table_bytes"),
            "dram_bytes": footprint.get("dram_bytes"),
            "flash_bytes": footprint.get("flash_bytes"),
            "cached_fraction": footprint.get("cached_fraction"),
            "throughput_mbps": payload.get("throughput_mbps"),
            "mean_latency_us": payload.get("latency_us", {}).get("mean"),
            "p99_latency_us": payload.get("latency_us", {}).get("p99"),
        })
    return rows


def render_ftl_sweep_table(rows: List[Dict[str, Any]],
                           analytic: Optional[Dict[str, Any]] = None
                           ) -> str:
    """The ``repro ftl sweep`` table over :func:`ftl_sweep_table` rows,
    followed by the :func:`analytic_waf_check` verdict when given (also
    the report's FTL section)."""
    lines = [render_columns(
        [("point", "<14"), ("scheme", "<9"), ("WAF", ">8.3f"),
         ("MB/s", ">7.2f"), ("mean us", ">9.1f"), ("p99 us", ">9.1f"),
         ("table B", ">9d"), ("DRAM B", ">9d"), ("cached", ">7.2f")],
        ([row["point"], row["scheme"], row["waf"], row["throughput_mbps"],
          row["mean_latency_us"], row["p99_latency_us"],
          row["table_bytes"], row["dram_bytes"], row["cached_fraction"]]
         for row in rows))]
    if analytic is not None:
        lines += ["",
                  f"analytic check : measured pagemap WAF "
                  f"{analytic['measured_waf']:.3f} vs greedy sim "
                  f"{analytic['greedy_sim_waf']:.3f} "
                  f"({analytic['deviation_vs_greedy']:.1%} off), "
                  f"LRU closed form {analytic['lru_analytic_waf']:.3f}",
                  "analytic check : "
                  + ("PASS (within bound)" if analytic["within_bound"]
                     else "FAIL (outside bound)")]
    return "\n".join(lines)


def analytic_waf_check(utilization: float = DEFAULT_UTILIZATION,
                       n_dies: int = 2, planes: int = 1,
                       blocks: int = 64, pages: int = 32,
                       write_multiplier: float = 4.0,
                       seed: int = 20260808) -> Dict[str, Any]:
    """Validate the page-map FTL against the analytic WAF model.

    Drives the real :class:`~repro.ftl.pagemap.PageMapFtl` to steady
    state on uniform random writes and compares its measured WAF with

    * Hu et al.'s LRU closed form ``(1+s)/(2s)`` — the first-order
      approximation at matched over-provisioning, and
    * the block-level :class:`~repro.ftl.waf.GreedyWafSimulator` — the
      paper's embedded abstraction.

    The real FTL runs a little above both: per-die pools, the active
    block and the GC watermark all shave effective spare capacity that
    the single-pool models keep.  ``within_bound`` therefore asserts the
    measured WAF lands within 20% of the greedy simulation and under
    1.25x the LRU closed form — close enough that the schemes' relative
    ordering in the sweep table is trustworthy, loose enough to absorb
    the structural overhead.
    """
    backend = FlashBackend(n_dies, planes, blocks, pages)
    physical_pages = n_dies * planes * blocks * pages
    logical_pages = int(physical_pages * utilization)
    ftl = PageMapFtl(backend, logical_pages)
    rng = random.Random(seed)
    for lpn in range(logical_pages):     # fill
        ftl.write(lpn)
    total_writes = int(logical_pages * write_multiplier)
    for __ in range(total_writes):       # reach steady state
        ftl.write(rng.randrange(logical_pages))
    base_host, base_gc = ftl.host_writes, ftl.gc_relocations
    for __ in range(total_writes):       # measured window
        ftl.write(rng.randrange(logical_pages))
    host = ftl.host_writes - base_host
    relocated = ftl.gc_relocations - base_gc
    measured = (host + relocated) / host

    spare = spare_factor(physical_pages, logical_pages)
    lru_bound = waf_lru_analytic(spare)
    greedy = GreedyWafSimulator(
        n_dies * planes * blocks, pages, logical_pages,
        gc_threshold_blocks=2).measure_steady_state("random")
    deviation = abs(measured - greedy) / greedy
    return {
        "utilization": utilization,
        "spare_factor": spare,
        "measured_waf": measured,
        "greedy_sim_waf": greedy,
        "lru_analytic_waf": lru_bound,
        "deviation_vs_greedy": deviation,
        "within_bound": (1.0 <= measured <= lru_bound * 1.25
                         and deviation <= 0.20),
    }
