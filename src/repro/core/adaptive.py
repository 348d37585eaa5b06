"""Adaptive design-space exploration: successive halving over fidelity.

The fidelity dial makes a calibrated ``fast`` point cheaper than a
``cycle`` one: 7–8× on the sample-trace replay, as ``make fidelity``
measures it on a 2-vCPU x86_64 host with Python 3.11 (ROADMAP item 10
re-prices this screen).  This module spends that ratio deliberately.  The
full candidate grid is *screened* at fast fidelity, the empirical Pareto
band is *promoted* to cycle fidelity, and a Pareto-guided proposer
spends any leftover cycle budget on unevaluated grid neighbors of the
frontier — so a Table-II-scale space resolves its cycle-accurate
frontier while simulating only a fraction of the points at cycle
fidelity (the fig3 acceptance bar is ≤ 50%, recorded in
EXPERIMENTS.md).

Everything here is deterministic and permutation-invariant (name
tie-breaks throughout, via :mod:`repro.core.pareto`), so adaptive
campaigns resume and parallelize exactly like exhaustive ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..host.workload import Workload
from ..ssd.architecture import SsdArchitecture
from ..ssd.scenarios import BreakdownRow
from .explorer import ResourceCostModel
from .pareto import ParetoEntry, entry_frontier, frontier_value_at
from .sweep import SweepPoint, SweepRunner

#: Relative value shortfall below which a defect is considered zero
#: (guards the division when the frontier value at a cost is ~0).
_EPS = 1e-9

#: Name prefix for fast-fidelity screening points inside a campaign, so
#: the screen and the promoted cycle points coexist in one directory.
FAST_PREFIX = "fast/"


def promote(entries: Sequence[ParetoEntry],
            budget_fraction: float = 0.5) -> List[ParetoEntry]:
    """Successive-halving promotion: the fast-tier Pareto band.

    Ranks every screened entry by *frontier defect* — how far (relative)
    its value falls below the best frontier value available at its cost
    — and promotes the ``budget_fraction`` best, never fewer than the
    frontier itself.  Guarantees, locked by
    ``tests/core/test_adaptive.py``:

    * the full fast-tier Pareto frontier is always promoted (defect 0,
      frontier-first tie-break, quota floored at the frontier size);
    * ``len(promoted) <= max(len(frontier), ceil(budget_fraction * n))``;
    * the result is invariant under permutation of ``entries`` (ranking
      ties break by name).
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(f"budget_fraction must be in (0, 1], got "
                         f"{budget_fraction}")
    pool = sorted(entries, key=lambda e: e.name)
    if not pool:
        return []
    frontier = entry_frontier(pool)
    frontier_names = {e.name for e in frontier}
    ranked: List[Tuple[float, bool, str, ParetoEntry]] = []
    for entry in pool:
        if entry.name in frontier_names:
            ranked.append((0.0, False, entry.name, entry))
            continue
        reference = frontier_value_at(frontier, entry.cost)
        if reference is None:  # cheaper than the whole frontier: keep it
            defect = 0.0
        else:
            defect = max(0.0, (reference - entry.value)
                         / max(abs(reference), _EPS))
        ranked.append((defect, True, entry.name, entry))
    ranked.sort(key=lambda item: item[:3])
    quota = max(len(frontier),
                math.ceil(budget_fraction * len(pool)))
    return [entry for _, _, _, entry in ranked[:quota]]


def grid_coordinates(candidates: Mapping[str, SsdArchitecture]
                     ) -> Dict[str, Tuple[float, ...]]:
    """The (channels, ways, dies/way) grid coordinate of each candidate."""
    return {name: (float(arch.n_channels), float(arch.n_ways),
                   float(arch.dies_per_way))
            for name, arch in candidates.items()}


def propose_neighbors(coordinates: Mapping[str, Sequence[float]],
                      frontier_names: Iterable[str],
                      evaluated: Iterable[str] = (),
                      limit: Optional[int] = None) -> List[str]:
    """Pareto-guided proposals: unevaluated grid neighbors of the frontier.

    A neighbor differs from a frontier point in exactly one axis, moved
    to the adjacent unique value of that axis across the whole grid.
    Proposals come out in deterministic order — frontier names sorted,
    axes in order, lower neighbor before upper — with duplicates and
    already-evaluated names removed, so the proposer is itself
    permutation-invariant.
    """
    axis_values: List[List[float]] = []
    if coordinates:
        n_axes = len(next(iter(coordinates.values())))
        for axis in range(n_axes):
            axis_values.append(sorted({tuple(coord)[axis]
                                       for coord in coordinates.values()}))
    by_coord: Dict[Tuple[float, ...], List[str]] = {}
    for name, coord in coordinates.items():
        by_coord.setdefault(tuple(coord), []).append(name)
    for names in by_coord.values():
        names.sort()
    skip = set(evaluated)
    proposals: List[str] = []
    seen: set = set()
    for name in sorted(frontier_names):
        if name not in coordinates:
            continue
        coord = tuple(coordinates[name])
        for axis in range(len(coord)):
            values = axis_values[axis]
            index = values.index(coord[axis])
            for step in (-1, 1):
                if not 0 <= index + step < len(values):
                    continue
                neighbor = list(coord)
                neighbor[axis] = values[index + step]
                for candidate in by_coord.get(tuple(neighbor), []):
                    if candidate in skip or candidate in seen:
                        continue
                    seen.add(candidate)
                    proposals.append(candidate)
                    if limit is not None and len(proposals) >= limit:
                        return proposals
    return proposals


@dataclass
class AdaptiveOutcome:
    """What an adaptive exploration did and what it concluded."""

    metric: str
    budget_fraction: float
    screened: List[str]                  #: names screened at fast tier
    promoted: List[str]                  #: names simulated at cycle tier
    proposed: List[str]                  #: proposer picks inside the budget
    fast_entries: List[ParetoEntry]      #: fast-tier (name, cost, value)
    cycle_entries: List[ParetoEntry]     #: cycle-tier (name, cost, value)
    rows: Dict[str, BreakdownRow] = field(default_factory=dict)

    @property
    def cycle_frontier(self) -> List[ParetoEntry]:
        """The answer: the cycle-fidelity Pareto frontier."""
        return entry_frontier(self.cycle_entries)

    @property
    def cycle_point_fraction(self) -> float:
        """Fraction of the grid simulated at cycle fidelity."""
        if not self.screened:
            return 0.0
        return len(self.promoted) / len(self.screened)

    def format(self) -> str:
        frontier = ", ".join(f"{e.name} (cost {e.cost:.0f}, "
                             f"{e.value:.1f} MB/s)"
                             for e in self.cycle_frontier)
        return (f"adaptive: screened {len(self.screened)} at fast, "
                f"promoted {len(self.promoted)} to cycle "
                f"({100 * self.cycle_point_fraction:.0f}% of grid)\n"
                f"cycle frontier: {frontier}")


def adaptive_breakdown_exploration(
        candidates: Mapping[str, SsdArchitecture], workload: Workload,
        budget_fraction: float = 0.5, metric: str = "ssd_cache_mbps",
        runner: Optional[SweepRunner] = None,
        cost_model: Optional[ResourceCostModel] = None) -> AdaptiveOutcome:
    """Resolve a candidate grid's cycle frontier adaptively.

    Screens every candidate at fast fidelity, promotes the
    Pareto band (:func:`promote`) to cycle fidelity, and spends any
    cycle-budget slots the promoter left unused on proposer picks
    (:func:`propose_neighbors`).  ``runner`` may be a plain
    :class:`~repro.core.sweep.SweepRunner` or a
    :class:`~repro.core.campaign.CampaignRunner` — with the latter, the
    screen and the promotion land in one resumable campaign directory
    (fast points under ``fast/``).
    """
    if not candidates:
        raise ValueError("no candidates to explore")
    cost_model = cost_model or ResourceCostModel()
    runner = runner or SweepRunner(workers=1)
    names = sorted(candidates)
    costs = {name: cost_model.cost(candidates[name]) for name in names}

    # Rung 1: screen the whole grid at fast fidelity.
    fast_points = [SweepPoint(name=f"{FAST_PREFIX}{name}",
                              arch=candidates[name].with_fidelity("fast"),
                              workload=workload)
                   for name in names]
    fast_result = runner.run(fast_points)
    fast_entries: List[ParetoEntry] = []
    for name, outcome in zip(names, fast_result.outcomes):
        if outcome.failed:
            continue
        row = BreakdownRow.from_dict(outcome.payload)
        fast_entries.append(ParetoEntry(name=name, cost=costs[name],
                                        value=getattr(row, metric)))

    # Promote the Pareto band; the proposer fills any budget slack with
    # unevaluated grid neighbors of the fast frontier.
    promoted = [entry.name for entry in promote(fast_entries,
                                                budget_fraction)]
    quota = max(len(entry_frontier(fast_entries)),
                math.ceil(budget_fraction * len(fast_entries)))
    proposed: List[str] = []
    slack = quota - len(promoted)
    if slack > 0:
        proposed = propose_neighbors(
            grid_coordinates(dict(candidates)),
            [entry.name for entry in entry_frontier(fast_entries)],
            evaluated=promoted, limit=slack)
        promoted = promoted + proposed

    # Rung 2: the promoted band at full cycle fidelity.
    cycle_points = [SweepPoint(name=name, arch=candidates[name],
                               workload=workload)
                    for name in promoted]
    cycle_result = runner.run(cycle_points)
    cycle_entries: List[ParetoEntry] = []
    rows: Dict[str, BreakdownRow] = {}
    for name, outcome in zip(promoted, cycle_result.outcomes):
        if outcome.failed:
            continue
        row = BreakdownRow.from_dict(outcome.payload)
        rows[name] = row
        cycle_entries.append(ParetoEntry(name=name, cost=costs[name],
                                         value=getattr(row, metric)))

    return AdaptiveOutcome(
        metric=metric, budget_fraction=budget_fraction, screened=names,
        promoted=promoted, proposed=proposed,
        fast_entries=fast_entries, cycle_entries=cycle_entries, rows=rows)


def adaptive_fig3(n_commands: int = 2000,
                  configs: Optional[List[str]] = None,
                  budget_fraction: float = 0.5,
                  runner: Optional[SweepRunner] = None,
                  metric: str = "ssd_cache_mbps") -> AdaptiveOutcome:
    """Adaptive exploration of the fig3 (Table II, SATA II) grid."""
    from ..host.interface import sata2_spec
    from .experiments import TABLE2_LABELS, fig3_workload, table2_configs
    base = SsdArchitecture(host=sata2_spec())
    selected = configs or list(TABLE2_LABELS)
    candidates = {name: arch for name, arch
                  in table2_configs(base).items() if name in selected}
    return adaptive_breakdown_exploration(
        candidates, fig3_workload(n_commands),
        budget_fraction=budget_fraction, metric=metric, runner=runner)
