"""Monte-Carlo reliability campaigns at statistical scale (ROADMAP 5).

One seeded fault trial per configuration (``repro faults``) demonstrates
the recovery tiers; it says nothing about UBER with confidence.  This
module expands each architecture cell of the fig-faults configuration
into N *replicas* — identical except for the fault-plan seed — runs them
through the campaign engine (so replicas lease, publish, crash-resume
and cache exactly like any other point), and pools the per-replica
counts into estimators with 95% Wilson confidence intervals.

Determinism is the headline guarantee, built from three rules:

* **Replica seeding**: the fault seed of replica ``i`` of cell ``c`` is
  ``BLAKE2b("reliability:<campaign_seed>:<cell>:<i>")`` — a pure
  function of ``(campaign_seed, cell, replica)``, independent of worker
  count, scheduling and batch interleaving.
* **Pooled counts**: estimators sum integer counts over replicas in
  sorted-name order, so the same payload set always produces the same
  bytes.
* **Barrier-synchronized batches**: the sequential stopping rule only
  inspects estimates *between* batches (mirroring
  :mod:`repro.core.adaptive`'s budgeted promotion), so the schedule is a
  deterministic function of published payloads — a SIGKILLed campaign
  resumes into the identical schedule and replays finished replicas from
  cache.

The result: ``repro reliability run`` output is byte-identical across
``workers=1``, ``workers=4``, multi-process drains and kill -9 resume,
locked by ``tests/core/test_reliability.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.outcomes import OUTCOME_ORDER
from ..host import sequential_read, sequential_write
from .campaign import Campaign
from .experiments import FAULT_CAMPAIGN_FRACTIONS, faults_architecture
from .pareto import multi_frontier
from .report import render_columns
from .sweep import SweepPoint, SweepResult, SweepRunner

#: Name prefix of every reliability replica point — the namespace that
#: lets replicas share a campaign directory with ordinary points.
REL_PREFIX = "rel/"

#: Two-sided 95% normal quantile used by every Wilson interval here.
Z_95 = 1.959963984540054

#: Stopping-rule metrics: estimate attribute -> CI attribute.
STOPPING_METRICS = ("failed_rate", "uber")


def wilson_interval(successes: int, trials: int,
                    z: float = Z_95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because it stays inside [0, 1] and
    behaves at the extremes reliability work lives in (0 failures out of
    N, N out of N).  ``trials == 0`` returns the vacuous ``(0.0, 1.0)``.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got "
                         f"{successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denominator
    margin = (z / denominator) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # At the extremes the bound is exactly the point estimate (the
    # algebra collapses to 0 and 1); pin it so rounding can't push the
    # estimate outside its own interval.
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return (low, high)


def replica_seed(campaign_seed: int, cell_name: str, replica: int) -> int:
    """Fault-plan seed of one replica: hash of (campaign seed, cell,
    replica index) — the rule that keeps the schedule independent of
    worker count and replica interleaving."""
    digest = hashlib.blake2b(
        f"reliability:{campaign_seed}:{cell_name}:{replica}".encode("utf-8"),
        digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class ReliabilityCell:
    """One architecture/workload cell a replica population estimates."""

    kind: str          # "write" or "read"
    fraction: float    # normalized endurance (wear level)
    spares: int        # spare blocks per plane

    @property
    def name(self) -> str:
        return f"{REL_PREFIX}{self.kind}/{self.fraction:g}/s{self.spares}"

    @classmethod
    def parse(cls, cell_name: str) -> "ReliabilityCell":
        parts = cell_name.split("/")
        if (len(parts) != 4 or f"{parts[0]}/" != REL_PREFIX
                or not parts[3].startswith("s")):
            raise ValueError(f"not a reliability cell name: {cell_name!r}")
        return cls(kind=parts[1], fraction=float(parts[2]),
                   spares=int(parts[3][1:]))


@dataclass(frozen=True)
class ReliabilityGrid:
    """Axes of one reliability campaign (defaults: the fig-faults
    configuration swept over its wear levels)."""

    fractions: Tuple[float, ...] = FAULT_CAMPAIGN_FRACTIONS
    spares: Tuple[int, ...] = (8,)
    kinds: Tuple[str, ...] = ("write", "read")
    n_commands: int = 120
    campaign_seed: int = 1234

    def cells(self) -> List[ReliabilityCell]:
        return [ReliabilityCell(kind=kind, fraction=fraction, spares=spare)
                for fraction in self.fractions
                for spare in self.spares
                for kind in self.kinds]


def replica_point(grid: ReliabilityGrid, cell: ReliabilityCell,
                  replica: int) -> SweepPoint:
    """Build the sweep point of one replica.

    The point is an ordinary ``measure`` point — the campaign engine
    needs nothing reliability-specific — whose architecture differs from
    the cell's only in the fault-plan seed.
    """
    seed = replica_seed(grid.campaign_seed, cell.name, replica)
    arch = faults_architecture(seed=seed,
                               normalized_endurance=cell.fraction)
    arch = arch.scaled(faults=dataclasses.replace(
        arch.faults, spare_blocks_per_plane=cell.spares))
    factory = sequential_write if cell.kind == "write" else sequential_read
    name = f"{cell.name}/r{replica:05d}"
    # Writes warm-start the cache for the same reason faults_campaign
    # does: otherwise the closed loop ends before any page programs.
    return SweepPoint(name=name, arch=arch,
                      workload=factory(4096 * grid.n_commands),
                      evaluator="measure",
                      params={"label": name,
                              "warm_start": cell.kind == "write"})


def replica_points(grid: ReliabilityGrid, counts: Mapping[str, int]
                   ) -> List[SweepPoint]:
    """All replica points up to ``counts[cell.name]`` per cell, in
    deterministic (cell, replica) order."""
    points: List[SweepPoint] = []
    for cell in grid.cells():
        for replica in range(counts.get(cell.name, 0)):
            points.append(replica_point(grid, cell, replica))
    return points


# ----------------------------------------------------------------------
# Estimators


@dataclass
class ReliabilityEstimate:
    """Pooled estimate for one cell's replica population.

    ``uber`` is the page-granularity JEDEC form used by
    :func:`repro.ssd.metrics.collect_reliability`: each uncorrectable
    page read counts its full payload as bad bits, so the page-bit terms
    cancel and the proportion is ``uncorrectable_reads / page_reads`` —
    a binomial count the Wilson interval applies to directly, because
    ``page_reads`` counts every judged page read, the uncorrectable ones
    included.
    """

    cell: ReliabilityCell
    replicas: int
    commands: int
    failed_commands: int
    page_reads: int
    uncorrectable_reads: int
    read_retries: int
    retired_blocks: int
    remapped_programs: int
    background_write_faults: int
    outcomes: Dict[str, int]
    mean_sustained_mbps: float
    uber: float = field(init=False)
    uber_ci: Tuple[float, float] = field(init=False)
    failed_rate: float = field(init=False)
    failed_rate_ci: Tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        self.uber = (self.uncorrectable_reads / self.page_reads
                     if self.page_reads else 0.0)
        self.uber_ci = wilson_interval(self.uncorrectable_reads,
                                       self.page_reads)
        self.failed_rate = (self.failed_commands / self.commands
                            if self.commands else 0.0)
        self.failed_rate_ci = wilson_interval(self.failed_commands,
                                              self.commands)

    def half_width(self, metric: str) -> float:
        """CI half-width of one stopping metric (see STOPPING_METRICS)."""
        if metric == "failed_rate":
            low, high = self.failed_rate_ci
        elif metric == "uber":
            low, high = self.uber_ci
        else:
            raise ValueError(f"unknown stopping metric {metric!r}; "
                             f"expected one of {STOPPING_METRICS}")
        return (high - low) / 2.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.cell.kind,
            "fraction": self.cell.fraction,
            "spares": self.cell.spares,
            "replicas": self.replicas,
            "commands": self.commands,
            "failed_commands": self.failed_commands,
            "failed_rate": self.failed_rate,
            "failed_rate_ci95": list(self.failed_rate_ci),
            "page_reads": self.page_reads,
            "uncorrectable_reads": self.uncorrectable_reads,
            "uber": self.uber,
            "uber_ci95": list(self.uber_ci),
            "read_retries": self.read_retries,
            "retired_blocks": self.retired_blocks,
            "remapped_programs": self.remapped_programs,
            "background_write_faults": self.background_write_faults,
            "outcomes": {name: self.outcomes.get(name, 0)
                         for name in OUTCOME_ORDER},
            "mean_sustained_mbps": self.mean_sustained_mbps,
        }


def _replica_cell(point_name: str) -> str:
    """``rel/write/0.9/s8/r00012`` -> ``rel/write/0.9/s8``."""
    cell, _, replica = point_name.rpartition("/r")
    if not cell or not replica.isdigit():
        raise ValueError(f"not a replica point name: {point_name!r}")
    return cell


def _field(payload: Mapping[str, Any], field: str, point: str) -> Any:
    """The payload value at the dotted ``field``, or a ``ValueError``
    naming the replica point and the missing field (a missing field
    would otherwise pool as zero)."""
    value: Any = payload
    keys = field.split(".")
    for depth, key in enumerate(keys, 1):
        try:
            value = value[key]
        except KeyError:
            missing = ".".join(keys[:depth])
            raise ValueError(f"replica {point!r}: payload has no "
                             f"{missing!r} field") from None
    return value


def aggregate_estimates(payloads: Mapping[str, Mapping[str, object]]
                        ) -> Dict[str, ReliabilityEstimate]:
    """Pool replica payloads into per-cell estimates.

    ``payloads`` maps replica point names to ``measure`` payloads (as
    returned by ``SweepResult.payloads()`` or read back from a campaign
    directory).  Pooling iterates names in sorted order, so the result
    is a pure function of the payload *set* — the byte-identity rule.
    Every field is read by key: a payload missing ``commands``,
    ``sustained_mbps``, its ``reliability`` section or any field of it
    raises a ``ValueError`` naming the replica point and the field.
    """
    by_cell: Dict[str, List[str]] = {}
    for name in sorted(payloads):
        by_cell.setdefault(_replica_cell(name), []).append(name)
    estimates: Dict[str, ReliabilityEstimate] = {}
    for cell_name in sorted(by_cell):
        names = by_cell[cell_name]
        commands = failed = page_reads = uncorrectable = 0
        retries = retired = remapped = background = 0
        outcomes = {key: 0 for key in OUTCOME_ORDER}
        mbps_total = 0.0
        for name in names:
            payload = payloads[name]

            def count(field: str) -> int:
                return int(_field(payload, field, name))

            commands += count("commands")
            failed += count("reliability.failed_commands")
            page_reads += count("reliability.page_reads")
            uncorrectable += count("reliability.uncorrectable_reads")
            retries += count("reliability.read_retries")
            retired += count("reliability.retired_blocks")
            remapped += count("reliability.remapped_programs")
            background += count("reliability.background_write_faults")
            for key, n in _field(payload, "reliability.outcomes",
                                 name).items():
                outcomes[key] = outcomes.get(key, 0) + int(n)
            mbps_total += float(_field(payload, "sustained_mbps", name))
        estimates[cell_name] = ReliabilityEstimate(
            cell=ReliabilityCell.parse(cell_name),
            replicas=len(names),
            commands=commands,
            failed_commands=failed,
            page_reads=page_reads,
            uncorrectable_reads=uncorrectable,
            read_retries=retries,
            retired_blocks=retired,
            remapped_programs=remapped,
            background_write_faults=background,
            outcomes=outcomes,
            mean_sustained_mbps=mbps_total / len(names),
        )
    return estimates


def reliability_frontier(estimates: Mapping[str, ReliabilityEstimate],
                         metric: str = "failed_rate") -> List[str]:
    """Perf-vs-reliability-vs-spares Pareto frontier over cell names.

    Three maximize-objectives through :func:`repro.core.pareto
    .multi_frontier`: sustained throughput up, the stopping metric
    (failure proportion) down, spare capacity down.  Cells off the
    frontier are dominated: some other cell is at least as fast, at
    least as reliable and spends no more spare capacity.
    """
    names = sorted(estimates)

    def rate(name: str) -> float:
        estimate = estimates[name]
        return estimate.failed_rate if metric == "failed_rate" \
            else estimate.uber

    return multi_frontier(
        names,
        objectives=(
            lambda name: estimates[name].mean_sustained_mbps,
            lambda name: -rate(name),
            lambda name: -float(estimates[name].cell.spares),
        ),
        name=lambda name: name)


# ----------------------------------------------------------------------
# Campaign driver (sequential stopping rule)


@dataclass
class ReliabilityOutcome:
    """Everything one reliability campaign run decided and estimated."""

    #: The grid the campaign ran over; ``None`` when rebuilt from a
    #: campaign directory (the manifest does not persist grid knobs).
    grid: Optional[ReliabilityGrid]
    estimates: Dict[str, ReliabilityEstimate]
    scheduled: Dict[str, int]      # replicas scheduled per cell
    converged: Dict[str, bool]     # CI target reached (vs budget stop)
    frontier: List[str]
    batches: int
    metric: str
    target_half_width: Optional[float]
    failed_points: List[str]
    last_result: Optional[SweepResult] = None

    def to_dict(self) -> Dict[str, object]:
        """Deterministic document — the bytes the smoke tier compares.

        Contains no wall-clock, worker-count or scheduling artifacts:
        two runs over the same grid must serialize identically whatever
        the process topology.
        """
        return {
            "grid": None if self.grid is None else {
                "fractions": list(self.grid.fractions),
                "spares": list(self.grid.spares),
                "kinds": list(self.grid.kinds),
                "n_commands": self.grid.n_commands,
                "campaign_seed": self.grid.campaign_seed,
            },
            "metric": self.metric,
            "target_half_width": self.target_half_width,
            "batches": self.batches,
            "scheduled": {name: self.scheduled[name]
                          for name in sorted(self.scheduled)},
            "converged": {name: self.converged[name]
                          for name in sorted(self.converged)},
            "estimates": {name: self.estimates[name].to_dict()
                          for name in sorted(self.estimates)},
            "frontier": list(self.frontier),
            "failed_points": list(self.failed_points),
        }

    def format(self) -> str:
        rows = []
        for name in sorted(self.estimates):
            estimate = self.estimates[name]
            low, high = estimate.failed_rate_ci
            rows.append([name, estimate.replicas,
                         estimate.mean_sustained_mbps, estimate.failed_rate,
                         f"[{low:>8.4f},{high:>8.4f}]", estimate.uber,
                         "yes" if self.converged.get(name) else "no"])
        lines = [render_columns(
            [("cell", "<22"), ("reps", ">5d"), ("MB/s", ">8.1f"),
             ("fail-rate", ">10.4f"), ("95% CI", ">19"), ("UBER", ">10.2e"),
             ("conv", ">5")], rows)]
        lines.append("")
        lines.append("perf-vs-reliability-vs-spares frontier:")
        for name in self.frontier:
            estimate = self.estimates[name]
            lines.append(f"  {name}: {estimate.mean_sustained_mbps:.1f} "
                         f"MB/s, fail-rate {estimate.failed_rate:.4f}, "
                         f"{estimate.cell.spares} spares/plane")
        if self.failed_points:
            lines.append("")
            lines.append(f"failed replica points: "
                         f"{len(self.failed_points)} "
                         f"(excluded from estimates)")
            for name in self.failed_points:
                lines.append(f"  {name}")
        return "\n".join(lines)


def run_reliability_campaign(grid: Optional[ReliabilityGrid] = None,
                             runner: Optional[SweepRunner] = None,
                             replicas: int = 64,
                             batch: Optional[int] = None,
                             target_half_width: Optional[float] = None,
                             metric: str = "failed_rate"
                             ) -> ReliabilityOutcome:
    """Run a Monte-Carlo reliability campaign with a sequential stopping
    rule.

    ``replicas`` is the per-cell budget.  With ``target_half_width``
    set, replicas are scheduled in batches of ``batch`` (default 16) and
    a cell stops early once the 95% CI half-width of ``metric`` reaches
    the target — mirroring the budgeted promotion of
    :mod:`repro.core.adaptive`: spend simulation where the uncertainty
    still is.  Without a target every cell runs the full budget in one
    batch.

    The stopping decision only reads pooled estimates at batch barriers,
    so the schedule — and therefore the final estimate bytes — is
    independent of worker count and identical on crash-resume (finished
    replicas replay from the campaign cache).

    ``runner`` is any :class:`SweepRunner`-compatible runner; pass a
    :class:`~repro.core.campaign.CampaignRunner` for durable,
    multi-worker, crash-resumable execution.
    """
    if metric not in STOPPING_METRICS:
        raise ValueError(f"unknown stopping metric {metric!r}; expected "
                         f"one of {STOPPING_METRICS}")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    grid = grid or ReliabilityGrid()
    runner = runner or SweepRunner(workers=1)
    batch_size = replicas if target_half_width is None \
        else max(1, min(batch or 16, replicas))

    cells = grid.cells()
    scheduled = {cell.name: 0 for cell in cells}
    converged = {cell.name: False for cell in cells}
    active = [cell.name for cell in cells]
    payloads: Dict[str, Mapping[str, object]] = {}
    failed_points: List[str] = []
    batches = 0
    result: Optional[SweepResult] = None

    while active:
        batches += 1
        for name in active:
            scheduled[name] = min(replicas, scheduled[name] + batch_size)
        # Cumulative point list: already-published replicas replay from
        # the cache (reported as `cached`), so resubmitting them costs
        # one envelope read and keeps the runner call idempotent.
        points = replica_points(grid, scheduled)
        result = runner.run(points)
        payloads = result.payloads()
        failed_points = sorted(outcome.name
                               for outcome in result.failures())
        estimates = aggregate_estimates(payloads)
        still_active: List[str] = []
        for name in active:
            estimate = estimates.get(name)
            if (target_half_width is not None and estimate is not None
                    and estimate.half_width(metric) <= target_half_width):
                converged[name] = True
            elif scheduled[name] < replicas:
                still_active.append(name)
        active = still_active

    estimates = aggregate_estimates(payloads)
    return ReliabilityOutcome(
        grid=grid,
        estimates=estimates,
        scheduled=scheduled,
        converged=converged,
        frontier=reliability_frontier(estimates, metric=metric),
        batches=batches,
        metric=metric,
        target_half_width=target_half_width,
        failed_points=failed_points,
        last_result=result,
    )


def report_from_campaign(directory: str, metric: str = "failed_rate"
                         ) -> ReliabilityOutcome:
    """Rebuild estimates from a campaign directory without simulating.

    Reads every published ``rel/`` envelope out of the campaign cache
    (skipping pending and failed points) and pools them exactly like the
    run path — the two agree byte-for-byte on a drained campaign.
    """
    campaign = Campaign.open(directory)
    manifest = campaign.load_manifest()
    payloads: Dict[str, Mapping[str, object]] = {}
    failed_points: List[str] = []
    for entry in manifest["points"]:
        name = entry["name"]
        if not name.startswith(REL_PREFIX):
            continue
        envelope = campaign.cache.load(entry["key"])
        if envelope is None:
            continue
        if envelope.get("failure") is not None:
            failed_points.append(name)
            continue
        payloads[name] = envelope["payload"]
    estimates = aggregate_estimates(payloads)
    scheduled: Dict[str, int] = {}
    for name in payloads:
        cell = _replica_cell(name)
        scheduled[cell] = scheduled.get(cell, 0) + 1
    return ReliabilityOutcome(
        grid=None,
        estimates=estimates,
        scheduled=scheduled,
        converged={name: False for name in estimates},
        frontier=reliability_frontier(estimates, metric=metric),
        batches=0,
        metric=metric,
        target_half_width=None,
        failed_points=sorted(failed_points),
    )
