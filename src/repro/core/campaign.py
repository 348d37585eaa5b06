"""Durable campaign engine: leased work-queue, resumable manifests.

A *campaign* is a sweep that survives anything: its point set, leases,
results and result database all live in one on-disk directory that any
number of worker processes — in one parent, or independent ``repro
campaign worker`` processes on hosts sharing the directory — can drain
cooperatively.  Layout::

    <campaign dir>/
        manifest.json      point names + fingerprints + salt (identity)
        points.pkl         the SweepPoint objects workers re-load
        queue/             lease files, one per in-flight point
        results/           content-addressed envelopes (SweepCache format)
        campaign.sqlite    the queryable result store (repro.core.store)

Correctness model (locked by the crash/resume test tier):

* **Claiming** a point hard-links a fully written lease into
  ``queue/<key>.lease`` — ``link`` fails if the lease exists, so exactly
  one worker wins, and no lease is ever seen half-written.  Leases carry
  owner, pid, host and an expiry; a heartbeat thread extends the expiry
  while the point simulates.
* **Reaping** an orphaned lease (worker killed mid-point) renames the
  lease file to a tombstone — ``rename`` succeeds for exactly one
  reaper, so an expired point re-enters the queue exactly once per
  expiry.  Leases whose owner pid is dead on *this* host are reaped
  immediately; cross-host orphans wait out the TTL.
* **Publishing** writes the envelope with an atomic replace and records
  it in SQLite with ``INSERT OR REPLACE``.  Payloads are deterministic
  functions of the fingerprint (the sweep determinism contract), so
  execution is at-least-once but the published result set is
  exactly-once and byte-identical to a serial
  :class:`~repro.core.sweep.SweepRunner` run of the same grid.
* **Resuming** never recomputes a published point: a new run (or a new
  worker) skips every key that already has a successful envelope.
  Recorded *failures* are post-mortem data, not results — a resumed
  :class:`CampaignRunner` clears and re-runs them, exactly like
  ``SweepRunner --resume``.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .explorer import ResourceCostModel
from .store import ResultStore, envelope_status
from .sweep import (CODE_VERSION, PointFailure, PointOutcome, SweepCache,
                    SweepPoint, SweepResult, SweepSummary, _evaluate_guarded,
                    fingerprint)

#: Manifest schema version (bump on incompatible layout changes).
CAMPAIGN_FORMAT = 1

#: Default lease time-to-live.  Workers heartbeat at TTL/4, so a live
#: worker never expires; a killed one is reaped within one TTL (or
#: immediately by a same-host reaper that sees its pid is gone).
DEFAULT_LEASE_TTL_S = 60.0


class CampaignError(RuntimeError):
    """A campaign directory is inconsistent with what the caller wants."""


def _atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


# ----------------------------------------------------------------------
# Leases


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one point."""

    key: str
    owner: str
    pid: int
    host: str
    expires_unix: float
    generation: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "owner": self.owner, "pid": self.pid,
                "host": self.host, "expires_unix": self.expires_unix,
                "generation": self.generation}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Lease":
        return cls(key=str(data["key"]), owner=str(data.get("owner", "")),
                   pid=int(data.get("pid", 0)),
                   host=str(data.get("host", "")),
                   expires_unix=float(data.get("expires_unix", 0.0)),
                   generation=int(data.get("generation", 0)))

    def expired(self, now: Optional[float] = None) -> bool:
        return (now if now is not None else time.time()) \
            >= self.expires_unix


class LeaseQueue:
    """Filesystem lease table: one ``<key>.lease`` file per claim.

    All mutations are single-syscall atomic (exclusive link, rename),
    so the queue needs no locks and works across processes and across
    hosts sharing the directory.
    """

    def __init__(self, directory: str, ttl_s: float = DEFAULT_LEASE_TTL_S):
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.directory = str(directory)
        self.ttl_s = ttl_s
        self._reap_counter = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.lease")

    def claim(self, key: str, owner: Optional[str] = None
              ) -> Optional[Lease]:
        """Claim a point; ``None`` if someone else holds it.

        The lease is written whole to a private temporary file and then
        hard-linked into place.  ``link`` fails if the lease already
        exists, so exactly one claimer wins, and the lease appears with
        its content: a worker killed mid-claim leaves no empty lease file
        that no reaper could read (and the point claimable by nobody).
        """
        os.makedirs(self.directory, exist_ok=True)
        lease = Lease(key=key, owner=owner or _worker_name(),
                      pid=os.getpid(), host=socket.gethostname(),
                      expires_unix=time.time() + self.ttl_s)
        staged = os.path.join(
            self.directory,
            f".claim-{os.getpid()}-{threading.get_ident()}-{key[:16]}")
        try:
            with open(staged, "w", encoding="utf-8") as handle:
                json.dump(lease.to_dict(), handle)
            try:
                os.link(staged, self._path(key))
            except FileExistsError:
                return None
        finally:
            try:
                os.unlink(staged)
            except OSError:
                pass
        return lease

    def peek(self, key: str) -> Optional[Lease]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                return Lease.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError):
            return None

    def heartbeat(self, lease: Lease) -> Optional[Lease]:
        """Extend a lease we still own; ``None`` if it was lost.

        Ownership is re-checked from disk first so a reaped-and-reclaimed
        point is not clobbered by a worker that lost its lease but kept
        running (its eventual publish is idempotent anyway).
        """
        current = self.peek(lease.key)
        if current is None or current.owner != lease.owner \
                or current.generation != lease.generation:
            return None
        renewed = Lease(key=lease.key, owner=lease.owner, pid=lease.pid,
                        host=lease.host,
                        expires_unix=time.time() + self.ttl_s,
                        generation=lease.generation)
        _atomic_write(self._path(lease.key),
                      json.dumps(renewed.to_dict()).encode("utf-8"))
        return renewed

    def release(self, lease: Lease) -> None:
        try:
            os.unlink(self._path(lease.key))
        except OSError:
            pass

    def active(self) -> Dict[str, Lease]:
        """Live (unexpired) leases by key."""
        leases: Dict[str, Lease] = {}
        now = time.time()
        try:
            names = os.listdir(self.directory)
        except OSError:
            return leases
        for name in sorted(names):
            if not name.endswith(".lease"):
                continue
            lease = self.peek(name[:-len(".lease")])
            if lease is not None and not lease.expired(now):
                leases[lease.key] = lease
        return leases

    def _reap(self, key: str) -> bool:
        """Atomically remove one lease; True for the single winner."""
        self._reap_counter += 1
        tombstone = os.path.join(
            self.directory,
            f".reaped-{os.getpid()}-{self._reap_counter}-{key[:16]}")
        try:
            os.rename(self._path(key), tombstone)
        except OSError:
            return False  # someone else reaped (or released) it first
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return True

    def reap_expired(self, now: Optional[float] = None) -> List[str]:
        """Re-queue every expired lease, each exactly once.

        The rename-to-tombstone protocol guarantees that when several
        workers race to reap the same orphan, exactly one wins; the
        point then becomes claimable again through the normal exclusive
        create.
        """
        reaped: List[str] = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return reaped
        for name in names:
            if not name.endswith(".lease"):
                continue
            key = name[:-len(".lease")]
            lease = self.peek(key)
            if lease is not None and lease.expired(now) \
                    and self._reap(key):
                reaped.append(key)
        return reaped

    def reap_dead(self) -> List[str]:
        """Reap leases whose owner process is gone on *this* host.

        A ``kill -9``'d worker leaves its lease behind; same-host
        recovery need not wait out the TTL because the pid liveness
        check is authoritative here.  Cross-host leases are left for
        :meth:`reap_expired`.
        """
        reaped: List[str] = []
        host = socket.gethostname()
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return reaped
        for name in names:
            if not name.endswith(".lease"):
                continue
            key = name[:-len(".lease")]
            lease = self.peek(key)
            if lease is None or lease.host != host \
                    or lease.pid == os.getpid():
                continue
            try:
                os.kill(lease.pid, 0)
            except ProcessLookupError:
                if self._reap(key):
                    reaped.append(key)
            except OSError:
                continue  # pid exists but not ours to signal: leave it
        return reaped


class _LeaseKeeper:
    """Daemon thread that heartbeats one lease while a point simulates."""

    def __init__(self, queue: LeaseQueue, lease: Lease):
        self.queue = queue
        self.lease = lease
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        lease = self.lease
        interval = max(0.05, self.queue.ttl_s / 4.0)
        while not self._stop.wait(interval):
            renewed = self.queue.heartbeat(lease)
            if renewed is None:
                return  # lease lost; publish stays idempotent
            lease = renewed

    def __enter__(self) -> "_LeaseKeeper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Campaign directory


@dataclass
class CampaignStatus:
    """A point-in-time accounting of a campaign directory."""

    name: str
    total: int
    published: int
    failed: int
    leased: int
    pending: int
    leases: Dict[str, Lease] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "total": self.total,
            "published": self.published, "failed": self.failed,
            "leased": self.leased, "pending": self.pending,
            "leases": {key: lease.to_dict()
                       for key, lease in sorted(self.leases.items())},
        }

    def format(self) -> str:
        lines = [f"campaign : {self.name}",
                 f"points   : {self.total} total — {self.published} "
                 f"published, {self.failed} failed, {self.leased} leased, "
                 f"{self.pending} pending"]
        for lease in self.leases.values():
            remaining = lease.expires_unix - time.time()
            lines.append(f"lease    : {lease.owner} holds "
                         f"{lease.key[:12]}… (expires in "
                         f"{max(0.0, remaining):.0f}s)")
        return "\n".join(lines)


class Campaign:
    """One campaign directory: manifest + points + queue + results + DB."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.manifest_path = os.path.join(self.directory, "manifest.json")
        self.points_path = os.path.join(self.directory, "points.pkl")
        self.db_path = os.path.join(self.directory, "campaign.sqlite")
        self.cache = SweepCache(os.path.join(self.directory, "results"))
        self.queue_dir = os.path.join(self.directory, "queue")
        #: ``name → key`` of the points the last :meth:`ensure` verified.
        self.point_keys: Dict[str, str] = {}

    # -- identity ------------------------------------------------------
    @property
    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    @classmethod
    def open(cls, directory: str) -> "Campaign":
        """Open an existing campaign; raise if none lives there."""
        campaign = cls(directory)
        if not campaign.exists:
            raise CampaignError(
                f"{directory}: no campaign manifest — create one with "
                f"CampaignRunner or 'repro campaign run'")
        return campaign

    def load_manifest(self) -> Dict[str, Any]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            raise CampaignError(
                f"{self.manifest_path}: unreadable campaign manifest "
                f"({error})") from error
        if manifest.get("format") != CAMPAIGN_FORMAT:
            raise CampaignError(
                f"{self.manifest_path}: manifest format "
                f"{manifest.get('format')!r} != {CAMPAIGN_FORMAT} — "
                f"created by an incompatible version")
        return manifest

    def load_points(self) -> List[SweepPoint]:
        with open(self.points_path, "rb") as handle:
            return pickle.load(handle)

    def store(self) -> ResultStore:
        return ResultStore(self.db_path)

    # -- creation / resume ---------------------------------------------
    @classmethod
    def ensure(cls, directory: str, points: Sequence[SweepPoint],
               salt: str = CODE_VERSION, name: str = "campaign"
               ) -> "Campaign":
        """Create the campaign, or verify+extend an existing one.

        Resuming with the same point set is the no-op fast path.  New
        names are appended (successive-halving promotions land in the
        same campaign); a name already registered under a *different*
        fingerprint raises — same name + same inputs is the resume
        guarantee, so a changed fingerprint means the caller changed the
        experiment and should use a fresh directory.  Every point is
        fingerprinted exactly once; the verified ``name → key`` map is
        handed back as :attr:`point_keys` of the returned campaign.
        """
        campaign = cls(directory)
        os.makedirs(campaign.queue_dir, exist_ok=True)
        os.makedirs(campaign.cache.directory, exist_ok=True)
        fresh = _points_document(points, salt)
        if not campaign.exists:
            manifest = {"format": CAMPAIGN_FORMAT, "name": name,
                        "salt": salt, "points": fresh}
            _atomic_write(campaign.points_path, pickle.dumps(list(points)))
            _atomic_write(campaign.manifest_path,
                          json.dumps(manifest, indent=2,
                                     sort_keys=True).encode("utf-8"))
        else:
            manifest = campaign.load_manifest()
            if manifest.get("salt") != salt:
                raise CampaignError(
                    f"{directory}: campaign salt "
                    f"{manifest.get('salt')!r} != {salt!r} — the code "
                    f"version changed; start a fresh campaign directory")
            known = {entry["name"]: entry["key"]
                     for entry in manifest["points"]}
            by_name: Dict[str, SweepPoint] = {}
            for point in points:
                by_name.setdefault(point.name, point)
            added = []
            for entry in fresh:
                if entry["name"] in known:
                    if known[entry["name"]] != entry["key"]:
                        raise CampaignError(
                            f"{directory}: point {entry['name']!r} is "
                            f"already registered with a different "
                            f"fingerprint — the experiment changed; use "
                            f"a fresh campaign directory")
                else:
                    added.append((by_name[entry["name"]], entry))
            if added:
                existing = campaign.load_points()
                _atomic_write(campaign.points_path,
                              pickle.dumps(existing
                                           + [point for point, _ in added]))
                manifest["points"] = manifest["points"] \
                    + [entry for _, entry in added]
                _atomic_write(campaign.manifest_path,
                              json.dumps(manifest, indent=2,
                                         sort_keys=True).encode("utf-8"))
        manifest = campaign.load_manifest()
        with campaign.store() as store:
            store.record_campaign(manifest["name"], salt,
                                  len(manifest["points"]),
                                  name=manifest["name"])
        campaign.point_keys = {entry["name"]: entry["key"]
                               for entry in fresh}
        return campaign

    # -- state ---------------------------------------------------------
    def resume_scan(self) -> Dict[str, Dict[str, Any]]:
        """One pass over the manifest's results, as a resumed run needs it.

        Recorded failures are deleted so the run re-executes them; the
        successful envelopes are returned by key.
        """
        published: Dict[str, Dict[str, Any]] = {}
        for key in dict.fromkeys(entry["key"] for entry
                                 in self.load_manifest()["points"]):
            envelope = self.cache.load(key)
            if envelope is None:
                continue
            if envelope.get("failure") is None:
                published[key] = envelope
                continue
            try:
                os.unlink(os.path.join(self.cache.directory, f"{key}.json"))
            except OSError:
                pass
        return published

    def publish(self, point: SweepPoint, key: str, envelope: Dict[str, Any],
                campaign_id: str, store: ResultStore,
                cost_model: ResourceCostModel) -> Dict[str, Any]:
        """Atomically publish one envelope + index it in the store.

        Returns the envelope as the cache reads it back, which is also
        what the store records.
        """
        envelope = self.cache.store(key, envelope)
        store.record_point(campaign_id, point.name, envelope, key=key,
                           cost=_point_cost(point, cost_model))
        return envelope

    def status(self, ttl_s: float = DEFAULT_LEASE_TTL_S) -> CampaignStatus:
        manifest = self.load_manifest()
        queue = LeaseQueue(self.queue_dir, ttl_s=ttl_s)
        leases = queue.active()
        published = failed = leased = 0
        for entry in manifest["points"]:
            envelope = self.cache.load(entry["key"])
            if envelope is not None:
                if envelope.get("failure") is None:
                    published += 1
                else:
                    failed += 1
            elif entry["key"] in leases:
                leased += 1
        total = len(manifest["points"])
        return CampaignStatus(
            name=manifest["name"], total=total, published=published,
            failed=failed, leased=leased,
            pending=total - published - failed - leased, leases=leases)


def _points_document(points: Sequence[SweepPoint],
                     salt: str) -> List[Dict[str, str]]:
    """Manifest entries; campaigns require fingerprintable, unique names."""
    seen: Dict[str, str] = {}
    document = []
    for point in points:
        try:
            key = fingerprint(point, salt)
        except TypeError as error:
            raise CampaignError(
                f"point {point.name!r} is not fingerprintable ({error}); "
                f"campaigns need content-addressed keys") from error
        if point.name in seen:
            if seen[point.name] != key:
                raise CampaignError(
                    f"duplicate point name {point.name!r} with differing "
                    f"fingerprints in one campaign")
            continue
        seen[point.name] = key
        document.append({"name": point.name, "key": key})
    return document


def _point_cost(point: SweepPoint,
                model: ResourceCostModel) -> Optional[float]:
    """Resource cost when the point's arch supports the cost model."""
    arch = point.arch
    if all(hasattr(arch, attr) for attr in
           ("n_ddr_buffers", "n_channels", "n_ways", "total_dies")):
        return model.cost(arch)
    return None


# ----------------------------------------------------------------------
# Worker loop


def run_worker(directory: str, worker_id: Optional[str] = None,
               lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
               timeout_s: Optional[float] = None,
               poll_s: float = 0.05,
               points: Optional[Sequence[SweepPoint]] = None,
               on_point: Optional[Callable[[SweepPoint, str,
                                            Dict[str, Any]], None]] = None,
               keys: Optional[Mapping[str, str]] = None,
               cost_model: Optional[ResourceCostModel] = None) -> int:
    """Drain a campaign: claim → evaluate → publish, until done.

    Runs until every manifest point has an envelope (success *or*
    failure — failed points are post-mortem data for this run; a new
    :class:`CampaignRunner` run clears and retries them).  Safe to run
    any number of workers concurrently against the same directory; this
    is also the entry point of ``repro campaign worker``.  Returns the
    number of points this worker executed.

    ``keys`` is a verified ``name → key`` map (``Campaign.ensure``'s
    :attr:`~Campaign.point_keys`); without it every point is
    fingerprinted here.  ``cost_model`` prices the store rows (default
    :class:`ResourceCostModel`).  ``on_point(point, key, envelope)``
    receives each envelope this worker publishes, as the cache holds it.
    """
    campaign = Campaign.open(directory)
    manifest = campaign.load_manifest()
    salt = manifest["salt"]
    all_points = list(points) if points is not None \
        else campaign.load_points()
    if keys is None:
        keys = {point.name: fingerprint(point, salt) for point in all_points}
    cost_model = cost_model or ResourceCostModel()
    queue = LeaseQueue(campaign.queue_dir, ttl_s=lease_ttl_s)
    owner = worker_id or _worker_name()
    executed = 0
    published: Set[str] = set()  # by this worker: no need to re-read
    with campaign.store() as store:
        while True:
            claimed_any = False
            missing = 0
            for point in all_points:
                key = keys[point.name]
                if key in published or campaign.cache.load(key) is not None:
                    continue  # published (or failed) — done for this run
                missing += 1
                lease = queue.claim(key, owner)
                if lease is None:
                    continue
                claimed_any = True
                try:
                    if campaign.cache.load(key) is not None:
                        continue  # published while we raced for the lease
                    with _LeaseKeeper(queue, lease):
                        envelope = _evaluate_guarded(point, key, salt,
                                                     timeout_s)
                    envelope = campaign.publish(point, key, envelope,
                                                manifest["name"], store,
                                                cost_model)
                    published.add(key)
                    executed += 1
                    if on_point is not None:
                        on_point(point, key, envelope)
                finally:
                    queue.release(lease)
            if missing == 0:
                return executed
            if not claimed_any:
                # Everything left is leased elsewhere: recover orphans,
                # then wait for live owners to publish.
                if not (queue.reap_dead() or queue.reap_expired()):
                    time.sleep(poll_s)


def _spawned_worker(directory: str, lease_ttl_s: float,
                    timeout_s: Optional[float],
                    cost_model: ResourceCostModel) -> None:  # pragma: no cover
    """Child-process entry point (must be module-level for pickling)."""
    run_worker(directory, lease_ttl_s=lease_ttl_s, timeout_s=timeout_s,
               cost_model=cost_model)


# ----------------------------------------------------------------------
# Runner (drop-in for SweepRunner)


class CampaignRunner:
    """Drive a point list through a durable campaign directory.

    A drop-in replacement for :class:`~repro.core.sweep.SweepRunner` —
    same ``run(points) -> SweepResult`` interface — so ``explore()``,
    ``fig3_sweep``/``fig4_sweep``/``fig5_wearout_sweep`` and
    ``trace_sweep`` become campaign clients just by being handed this
    runner.  Differences from SweepRunner:

    * points are published through the leased work-queue, so any number
      of *additional* workers (other processes, other hosts) may drain
      the same directory concurrently;
    * every run is resumable: published points are never recomputed and
      are reported as ``cached`` (never ``simulated``) in the summary;
    * results are indexed in the campaign's SQLite store for
      ``repro campaign status|query|report``.
    """

    def __init__(self, directory: str, workers: Optional[int] = None,
                 salt: str = CODE_VERSION, name: str = "campaign",
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 cost_model: Optional[ResourceCostModel] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for all cores)")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.directory = str(directory)
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.salt = salt
        self.name = name
        self.progress = progress
        self.timeout_s = timeout_s
        self.lease_ttl_s = lease_ttl_s
        self.cost_model = cost_model or ResourceCostModel()
        self.last_summary: Optional[SweepSummary] = None
        self.last_result: Optional[SweepResult] = None

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepResult:
        points = list(points)
        started = time.perf_counter()
        campaign = Campaign.ensure(self.directory, points, salt=self.salt,
                                   name=self.name)
        keys = [campaign.point_keys[point.name] for point in points]

        # Resume: anything already published is served, never recomputed;
        # recorded failures are cleared and re-run.
        envelopes = campaign.resume_scan()
        prepublished = set(envelopes)
        pending = [index for index, key in enumerate(keys)
                   if key not in prepublished]

        if pending:
            # Unlike SweepRunner, the width is NOT capped at cpu_count:
            # campaign workers are explicit user intent (and the crash /
            # resume tier needs real forked workers even on 1-CPU boxes).
            workers = min(self.workers, max(1, len(pending)))
            queue = LeaseQueue(campaign.queue_dir, ttl_s=self.lease_ttl_s)
            queue.reap_dead()
            if workers > 1:
                self._run_processes(workers)
                # Belt and braces: if children died (or raced leases that
                # then expired), finish the remainder in-process.
                queue.reap_dead()

            def hold(point: SweepPoint, key: str,
                     envelope: Dict[str, Any]) -> None:
                envelopes[key] = envelope

            run_worker(self.directory, lease_ttl_s=self.lease_ttl_s,
                       timeout_s=self.timeout_s, points=points,
                       on_point=hold, keys=campaign.point_keys,
                       cost_model=self.cost_model)

        outcomes: List[PointOutcome] = []
        done = 0
        store_rows: List[Tuple[SweepPoint, str, Dict[str, Any]]] = []
        for point, key in zip(points, keys):
            # Only envelopes other workers published are read from disk.
            envelope = envelopes.get(key) or campaign.cache.load(key)
            if envelope is None:  # unreachable unless the dir was wiped
                envelope = {"payload": {}, "events": 0, "elapsed_s": 0.0,
                            "failure": {"error_type": "CampaignError",
                                        "message": "point never published"}}
            cached = key in prepublished
            failure = None
            if envelope.get("failure") is not None:
                failure = PointFailure.from_dict(envelope["failure"])
            outcomes.append(PointOutcome(
                name=point.name, payload=envelope.get("payload", {}),
                cached=cached, events=int(envelope.get("events", 0)),
                elapsed_s=0.0 if cached
                else float(envelope.get("elapsed_s", 0.0)),
                key=key, failure=failure))
            store_rows.append((point, key, envelope))
            done += 1
            if self.progress is not None:
                self.progress(outcomes[-1], done, len(points))

        # Final idempotent sync so the store reflects this run even if a
        # worker crashed between publishing and recording: rewrite only
        # the rows that are missing or disagree on (key, cost, status).
        campaign_id = campaign.load_manifest()["name"]
        with campaign.store() as store:
            indexed = {row["name"]: (row["key"], row["cost"], row["status"])
                       for row in store.points(campaign_id)}
            for point, key, envelope in store_rows:
                row = (key, _point_cost(point, self.cost_model),
                       envelope_status(envelope))
                if indexed.get(point.name) != row:
                    store.record_point(campaign_id, point.name, envelope,
                                       key=key, cost=row[1])
                    indexed[point.name] = row

        cached_count = sum(1 for outcome in outcomes if outcome.cached)
        failed_count = sum(1 for outcome in outcomes if outcome.failed)
        fresh = [outcome for outcome in outcomes
                 if not outcome.cached and not outcome.failed]
        summary = SweepSummary(
            total=len(points), cached=cached_count, simulated=len(fresh),
            wall_seconds=time.perf_counter() - started,
            simulated_events=sum(outcome.events for outcome in fresh),
            workers=min(self.workers, max(1, len(pending)))
            if pending else 1,
            failed=failed_count)
        self.last_summary = summary
        result = SweepResult(outcomes=outcomes, summary=summary)
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    def _run_processes(self, workers: int) -> None:
        """Spawn ``workers`` child processes draining the campaign."""
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        children = []
        try:
            for _ in range(workers):
                child = context.Process(
                    target=_spawned_worker,
                    args=(self.directory, self.lease_ttl_s,
                          self.timeout_s, self.cost_model))
                child.start()
                children.append(child)
        except (OSError, ValueError):  # cannot spawn: serial fallback
            pass
        for child in children:
            child.join()
