"""Multi-initiator host layer: tenants, namespaces, queue arbitration.

"Millions of users" means N concurrent independent streams contending
inside one device, not one trace player.  This module models the host
side of that: a :class:`Tenant` binds a named workload (IOZone-style
synthetic generator, trace file, or an app-shaped key-value / page-I/O
generator) to its own NVMe submission queue parameters and LBA namespace
partition, and :func:`merge_tenants` (round-robin or
weighted-round-robin) interleaves the tenant streams into the single
order in which commands enter the device.

Admission has a closed form.  In the closed-loop (saturating) regime
every submission queue is full whenever the controller arbitrates, so
each round serves a fixed burst per tenant (:func:`arbitration_burst`):
one SQE under ``rr``; ``weight`` SQEs under ``wrr``, capped at the
``queue_depth`` the queue can offer at once.  A stream shorter than its
burst forfeits the remainder.  Open-loop tenants (paced arrivals) are
merged by issue time, with the arbitration interleave breaking
simultaneous-arrival ties.  Because the merge adds no simulated work, a
single tenant degenerates *byte-identically* to the plain
single-initiator ``run_workload`` path — the property the tenant
determinism tier locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from .commands import IoCommand, IoOpcode, SECTOR_BYTES
from .workload import (CommandListWorkload, IOZONE_SUITE, mixed_workload,
                       xorshift64)

#: Arbitration policies :func:`merge_tenants` implements (NVMe
#: round-robin, and weighted-round-robin with burst == weight capped at
#: the queue depth).
ARBITRATION_POLICIES = ("rr", "wrr")

#: Workload shapes a tenant can bind (plus the four IOZONE_SUITE keys).
TENANT_WORKLOADS = tuple(sorted(IOZONE_SUITE)) + ("mixed", "kv", "pageio",
                                                  "trace")

# ----------------------------------------------------------------------
# App-shaped generators


def kv_store_workload(n_ops: int, value_bytes: int = 4096,
                      read_fraction: float = 0.8,
                      hot_fraction: float = 0.125,
                      hot_ops_fraction: float = 0.875,
                      span_bytes: int = 1 << 26,
                      seed: int = 0x5EED) -> CommandListWorkload:
    """Key-value store shape: point gets/puts with a hot key set.

    ``hot_ops_fraction`` of operations target the ``hot_fraction``
    head of the key space (the classic skewed-popularity profile), the
    rest scatter over the cold tail.  Deterministic xorshift streams
    drive key choice and the read/write split; the WAF pattern is
    ``random`` — even hot-set updates land scattered.
    """
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], "
                         f"got {read_fraction}")
    if not 0.0 < hot_fraction <= 1.0 or not 0.0 <= hot_ops_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1], "
                         "hot_ops_fraction in [0, 1]")
    sectors_per_value = max(1, value_bytes // SECTOR_BYTES)
    n_keys = max(1, span_bytes // value_bytes)
    n_hot = max(1, int(n_keys * hot_fraction))
    commands: List[IoCommand] = []
    state = seed or 1
    for tag in range(n_ops):
        state = xorshift64(state)
        opcode = (IoOpcode.READ
                  if (state & 0xFFFF) / 65536.0 < read_fraction
                  else IoOpcode.WRITE)
        hot = ((state >> 16) & 0xFFFF) / 65536.0 < hot_ops_fraction
        draw = state >> 32
        key = draw % n_hot if hot else n_hot + draw % max(1, n_keys - n_hot)
        commands.append(IoCommand(opcode, key * sectors_per_value,
                                  sectors_per_value, tag=tag))
    return CommandListWorkload(commands, pattern="random")


def page_io_workload(n_commits: int, pages_per_commit: int = 3,
                     page_bytes: int = 4096,
                     journal_fraction: float = 0.0625,
                     span_bytes: int = 1 << 26,
                     seed: int = 0x10DB) -> CommandListWorkload:
    """Page-I/O (database-style) shape: journal appends + page flushes.

    Each commit appends one page sequentially into a journal region at
    the head of the namespace, then writes ``pages_per_commit`` dirty
    pages scattered over the data region and reads one page back (the
    B-tree descent).  The WAF pattern is ``random`` — the journal is a
    small fraction of the traffic.
    """
    if n_commits < 1 or pages_per_commit < 1:
        raise ValueError("n_commits and pages_per_commit must be >= 1")
    if not 0.0 < journal_fraction < 1.0:
        raise ValueError(f"journal_fraction must be in (0, 1), "
                         f"got {journal_fraction}")
    sectors_per_page = max(1, page_bytes // SECTOR_BYTES)
    total_pages = max(2, span_bytes // page_bytes)
    journal_pages = max(1, int(total_pages * journal_fraction))
    data_pages = total_pages - journal_pages
    commands: List[IoCommand] = []
    state = seed or 1
    tag = 0
    for commit in range(n_commits):
        journal_page = commit % journal_pages
        commands.append(IoCommand(IoOpcode.WRITE,
                                  journal_page * sectors_per_page,
                                  sectors_per_page, tag=tag))
        tag += 1
        for __ in range(pages_per_commit):
            state = xorshift64(state)
            page = journal_pages + state % data_pages
            commands.append(IoCommand(IoOpcode.WRITE,
                                      page * sectors_per_page,
                                      sectors_per_page, tag=tag))
            tag += 1
        state = xorshift64(state)
        page = journal_pages + state % data_pages
        commands.append(IoCommand(IoOpcode.READ, page * sectors_per_page,
                                  sectors_per_page, tag=tag))
        tag += 1
    return CommandListWorkload(commands, pattern="random")


# ----------------------------------------------------------------------
# Tenant specification


@dataclass(frozen=True)
class TenantSpec:
    """One initiator's declared workload, queue and QoS parameters.

    ``workload`` names a shape from :data:`TENANT_WORKLOADS`;
    ``n_commands`` bounds the stream (for ``"pageio"`` the commit loop
    stops once the bound is met).  ``weight`` is the weighted-round-robin
    share; ``queue_depth`` the usable submission-queue slots (how many
    SQEs the tenant can offer the arbiter at once).  ``rate_iops > 0``
    switches the tenant to open-loop paced arrivals starting at
    ``phase_ps``; ``0`` is closed loop (saturating).  Trace tenants set
    ``trace_path`` + ``trace_sha256`` (see :meth:`from_trace`); the
    content hash — not the path — joins the sweep fingerprint, so moving
    a trace on disk never invalidates cached results.
    """

    name: str
    workload: str = "RR"
    n_commands: int = 64
    block_bytes: int = 4096
    span_bytes: int = 1 << 26
    weight: int = 1
    queue_depth: int = 32
    rate_iops: float = 0.0
    phase_ps: int = 0
    read_fraction: float = 0.7
    seed: int = 0xC0FFEE
    trace_path: str = ""
    trace_sha256: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.workload not in TENANT_WORKLOADS:
            raise ValueError(f"unknown tenant workload {self.workload!r}; "
                             f"choose from {list(TENANT_WORKLOADS)}")
        if self.n_commands < 1:
            raise ValueError("n_commands must be >= 1")
        if self.block_bytes < SECTOR_BYTES \
                or self.block_bytes % SECTOR_BYTES:
            raise ValueError(
                f"block_bytes must be a positive multiple of {SECTOR_BYTES}")
        if self.span_bytes < self.block_bytes:
            raise ValueError("span_bytes must cover at least one block")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if not 1 <= self.queue_depth <= 65535:
            raise ValueError("queue_depth must be in 1..65535")
        if self.rate_iops < 0 or self.phase_ps < 0:
            raise ValueError("rate_iops and phase_ps must be >= 0")
        if self.workload == "trace" and not self.trace_path:
            raise ValueError("trace tenants need a trace_path "
                             "(use TenantSpec.from_trace)")

    @classmethod
    def from_trace(cls, name: str, path: str, **overrides: Any
                   ) -> "TenantSpec":
        """Bind a trace file, recording its content hash up front."""
        from ..core.tracereplay import sha256_file
        return cls(name=name, workload="trace", trace_path=path,
                   trace_sha256=sha256_file(path), **overrides)

    def __canonical__(self) -> Dict[str, Any]:
        """Fingerprint form: the trace's content hash replaces its path."""
        body = {
            "__dataclass__": type(self).__qualname__,
            "name": self.name, "workload": self.workload,
            "n_commands": self.n_commands, "block_bytes": self.block_bytes,
            "span_bytes": self.span_bytes, "weight": self.weight,
            "queue_depth": self.queue_depth, "rate_iops": self.rate_iops,
            "phase_ps": self.phase_ps, "read_fraction": self.read_fraction,
            "seed": self.seed, "trace_sha256": self.trace_sha256,
        }
        if not self.trace_sha256:
            body["trace_path"] = self.trace_path
        return body

    @property
    def open_loop(self) -> bool:
        return self.rate_iops > 0

    @property
    def span_sectors(self) -> int:
        return self.span_bytes // SECTOR_BYTES


def tenant_commands(spec: TenantSpec, base_lba: int = 0
                    ) -> Tuple[List[IoCommand], str]:
    """Materialize one tenant's stream, rebased into its namespace.

    Returns ``(commands, pattern)`` where ``pattern`` feeds the WAF
    model.  LBAs are generated tenant-local and shifted by ``base_lba``
    (the namespace partition start); trace LBAs are first wrapped into
    the tenant's span, keeping the access pattern (same-LBA collisions
    survive the modulo).  Open-loop tenants get fixed-interval issue
    times offset by ``phase_ps``; trace tenants keep their recorded
    inter-arrival times (rebased to ``phase_ps``) when ``rate_iops`` is
    zero.
    """
    kind = spec.workload
    if kind in IOZONE_SUITE:
        workload = IOZONE_SUITE[kind](spec.n_commands * spec.block_bytes,
                                      spec.block_bytes,
                                      span_bytes=spec.span_bytes,
                                      seed=spec.seed)
    elif kind == "mixed":
        workload = mixed_workload(spec.n_commands * spec.block_bytes,
                                  read_fraction=spec.read_fraction,
                                  block_bytes=spec.block_bytes,
                                  span_bytes=spec.span_bytes, seed=spec.seed)
    elif kind == "kv":
        workload = kv_store_workload(spec.n_commands,
                                     value_bytes=spec.block_bytes,
                                     read_fraction=spec.read_fraction,
                                     span_bytes=spec.span_bytes,
                                     seed=spec.seed)
    elif kind == "pageio":
        # Each commit emits pages_per_commit + 2 commands; round up, then
        # trim to the requested bound.
        per_commit = 5
        workload = page_io_workload(-(-spec.n_commands // per_commit),
                                    page_bytes=spec.block_bytes,
                                    span_bytes=spec.span_bytes,
                                    seed=spec.seed)
    else:  # trace
        workload = _trace_workload(spec)
    commands = workload.to_list()[:spec.n_commands]
    if spec.open_loop:
        interval_ps = int(1e12 / spec.rate_iops)
        for index, command in enumerate(commands):
            command.issue_time_ps = spec.phase_ps + index * interval_ps
    elif kind == "trace":
        first = commands[0].issue_time_ps if commands else 0
        for command in commands:
            command.issue_time_ps = (spec.phase_ps
                                     + command.issue_time_ps - first)
    if base_lba:
        for command in commands:
            command.lba += base_lba
    return commands, workload.pattern_name


def _trace_workload(spec: TenantSpec) -> CommandListWorkload:
    """Load a trace tenant's stream, wrapped into its namespace span."""
    from .traces import iter_trace, records_to_commands, wrap_to_capacity
    records = wrap_to_capacity(iter_trace(spec.trace_path),
                               spec.span_sectors)
    commands: List[IoCommand] = []
    for command in records_to_commands(records):
        commands.append(command)
        if len(commands) >= spec.n_commands:
            break
    if not commands:
        raise ValueError(f"trace {spec.trace_path!r} yielded no commands")
    return CommandListWorkload(commands, pattern="random")


# ----------------------------------------------------------------------
# Namespaces


@dataclass(frozen=True)
class NamespacePartition:
    """One tenant's LBA slice (and optional channel set) of the device."""

    base_lba: int
    sectors: int
    channels: Tuple[int, ...] = ()

    @property
    def end_lba(self) -> int:
        return self.base_lba + self.sectors


def partition_namespaces(specs: Sequence[TenantSpec],
                         n_channels: int = 0,
                         isolate_channels: bool = False
                         ) -> List[NamespacePartition]:
    """Carve the LBA space into per-tenant namespaces, in spec order.

    Partitions are contiguous (tenant i starts where i-1 ends) and sized
    by each spec's ``span_bytes``.  With ``isolate_channels`` each
    namespace additionally gets a disjoint slice of the device's
    channels (requires ``n_channels >= len(specs)``) — the configuration
    under which the noisy-neighbor matrix must measure zero.
    """
    if isolate_channels:
        if n_channels < len(specs):
            raise ValueError(
                f"cannot isolate {len(specs)} tenants on {n_channels} "
                f"channel(s)")
        per = n_channels // len(specs)
        slices = [tuple(range(i * per, (i + 1) * per))
                  for i in range(len(specs))]
        # The division remainder goes to the last tenant.
        if n_channels % len(specs):
            slices[-1] = slices[-1] + tuple(
                range(len(specs) * per, n_channels))
    else:
        slices = [() for __ in specs]
    partitions: List[NamespacePartition] = []
    base = 0
    for spec, channels in zip(specs, slices):
        partitions.append(NamespacePartition(base, spec.span_sectors,
                                             channels))
        base += spec.span_sectors
    return partitions


# ----------------------------------------------------------------------
# Runtime binding


class Tenant:
    """One initiator at runtime: spec + namespace + command stream."""

    def __init__(self, spec: TenantSpec, partition: NamespacePartition):
        self.spec = spec
        self.partition = partition
        self.commands, self.pattern = tenant_commands(
            spec, base_lba=partition.base_lba)

    @property
    def name(self) -> str:
        return self.spec.name


def build_tenants(specs: Sequence[TenantSpec], n_channels: int = 0,
                  isolate_channels: bool = False) -> List[Tenant]:
    """Bind specs to namespaces; validates the set as a whole.

    Tenant names must be unique and the set must be uniformly closed- or
    open-loop — arbitration of a saturating stream against a paced one
    has no single admission order to model.
    """
    if not specs:
        raise ValueError("at least one tenant is required")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    open_loops = {spec.open_loop or (spec.workload == "trace")
                  for spec in specs}
    if len(open_loops) > 1:
        raise ValueError("tenants must be uniformly closed-loop or "
                         "open-loop (paced/trace) — not a mix")
    partitions = partition_namespaces(specs, n_channels=n_channels,
                                      isolate_channels=isolate_channels)
    return [Tenant(spec, partition)
            for spec, partition in zip(specs, partitions)]


# ----------------------------------------------------------------------
# Arbitration


def arbitration_burst(spec: TenantSpec, policy: str) -> int:
    """Commands a tenant is admitted per arbitration round.

    ``rr`` serves one SQE per non-empty queue per round (NVMe's
    default).  ``wrr`` grants a burst of ``weight`` SQEs, but a queue
    offers at most ``queue_depth`` of them at once, so the burst is
    capped there and the rest forfeited.
    """
    if policy == "rr":
        return 1
    if policy == "wrr":
        return min(spec.weight, spec.queue_depth)
    raise ValueError(f"unknown arbitration policy {policy!r}; "
                     f"choose from {list(ARBITRATION_POLICIES)}")


def merge_tenants(tenants: Sequence[Tenant], policy: str = "rr"
                  ) -> List[Tuple[int, IoCommand]]:
    """Arbitrate bound tenants into one admission order.

    Each round takes up to :func:`arbitration_burst` commands from every
    stream, in tenant order; a stream shorter than its burst forfeits
    the remainder.  Returns ``[(tenant index, command), ...]`` covering
    every command exactly once, in per-tenant FIFO order.  Closed-loop
    sets use that interleave as is.  Open-loop sets are ordered by issue
    time — arbitration only matters when submissions coincide, so the
    interleave serves as the tie-break (the sort is stable).
    """
    bursts = [arbitration_burst(tenant.spec, policy) for tenant in tenants]
    order: List[Tuple[int, IoCommand]] = []
    rounds = 0
    live = list(range(len(tenants)))
    while live:
        for index in live:
            burst = bursts[index]
            order.extend((index, command) for command in
                         tenants[index].commands[rounds * burst:
                                                 (rounds + 1) * burst])
        rounds += 1
        live = [index for index in live
                if rounds * bursts[index] < len(tenants[index].commands)]
    if any(tenant.spec.open_loop or tenant.spec.workload == "trace"
           for tenant in tenants):
        order.sort(key=lambda pair: pair[1].issue_time_ps)
    return order
