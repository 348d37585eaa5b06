"""Durable campaigns: the sweep engine plus a manifest and a result store.

A *campaign* is a sweep that survives anything: its point set, leases,
results and result database all live in one on-disk directory that any
number of worker processes — the children of one
:class:`CampaignRunner`, or independent ``repro campaign worker``
processes on hosts sharing the directory — can drain cooperatively.
Layout::

    <campaign dir>/
        manifest.json      point names + fingerprints + salt (identity)
        points.pkl         the SweepPoint objects external workers load
        queue/             lease files, one per in-flight point
        results/           content-addressed envelopes (SweepCache format)
        campaign.sqlite    the queryable index of results/ (repro.core.store)

Execution is :class:`~repro.core.sweep.SweepRunner`'s: the same
claim → evaluate → publish loop (:func:`~repro.core.sweep.drain`), the
same leases (:mod:`repro.core.lease`), the same width rule, outcomes and
summary.  What only a campaign adds:

* **Identity** — ``manifest.json`` pins every point name to its
  fingerprint and the salt; resuming with a changed point or code
  version raises :class:`CampaignError` instead of mixing experiments.
* **Indexing** — workers publish envelopes only; ``campaign.sqlite`` is
  their projection, written by :meth:`Campaign.index` alone in one
  transaction per runner pass or ``repro campaign query|report``.
  Payloads are deterministic functions of the fingerprint, so execution
  is at-least-once but the published result set is exactly-once and
  byte-identical to a serial ``SweepRunner`` run of the same grid.
* **Resuming** never recomputes a published point, from any process;
  recorded *failures* are post-mortem data that a new run clears and
  re-runs, exactly like a ``SweepRunner`` over a warm cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .explorer import ResourceCostModel
from .lease import DEFAULT_LEASE_TTL_S, Lease, LeaseQueue, atomic_write
from .store import ResultStore, envelope_status
from .sweep import (CODE_VERSION, CampaignError, OnPoint, PointOutcome,
                    SweepCache, SweepPoint, SweepRunner, drain, fingerprint)

#: Manifest schema version (bump on incompatible layout changes).
CAMPAIGN_FORMAT = 1


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
            atomic_write(campaign.points_path, pickle.dumps(list(points)))
            atomic_write(campaign.manifest_path,
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
                atomic_write(campaign.points_path,
                             pickle.dumps(existing
                                          + [point for point, _ in added]))
                manifest["points"] = manifest["points"] \
                    + [entry for _, entry in added]
                atomic_write(campaign.manifest_path,
                             json.dumps(manifest, indent=2,
                                        sort_keys=True).encode("utf-8"))
        campaign.point_keys = {entry["name"]: entry["key"]
                               for entry in fresh}
        return campaign

    # -- state ---------------------------------------------------------
    def publish(self, point: SweepPoint, key: str,
                envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Atomically publish one envelope; return it as the cache
        reads it back."""
        return self.cache.store(key, envelope)

    def index(self, points: Optional[Sequence[SweepPoint]] = None,
              envelopes: Optional[Mapping[str, Dict[str, Any]]] = None,
              cost_model: Optional[ResourceCostModel] = None) -> str:
        """Index the published envelopes, as the store's only writer
        (one connection, one commit); return the manifest's campaign id.

        Records the campaign row and every published point of ``points``
        (default: ``points.pkl``) whose row is missing or disagrees on
        ``(key, cost, status)``; ``envelopes`` holds ``key → envelope``
        already read.  Without ``cost_model`` existing rows keep their
        price and new ones get the default :class:`ResourceCostModel`'s.
        """
        manifest = self.load_manifest()
        campaign_id = manifest["name"]
        keys = {entry["name"]: entry["key"] for entry in manifest["points"]}
        envelopes = envelopes or {}
        with self.store() as store:
            store.record_campaign(campaign_id, manifest["salt"], len(keys),
                                  name=campaign_id)
            indexed = {row["name"]: (row["key"], row["cost"], row["status"])
                       for row in store.points(campaign_id)}
            for point in self.load_points() if points is None else points:
                key = keys[point.name]
                envelope = envelopes.get(key) or self.cache.load(key)
                if envelope is None:
                    continue
                old = indexed.get(point.name)
                cost = old[1] if old and cost_model is None else \
                    _point_cost(point, cost_model or ResourceCostModel())
                row = (key, cost, envelope_status(envelope))
                if old != row:
                    store.record_point(campaign_id, point.name, envelope,
                                       key=key, cost=cost)
                    indexed[point.name] = row
        return campaign_id

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
# Workers and the runner


def run_worker(directory: str, worker_id: Optional[str] = None,
               lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
               timeout_s: Optional[float] = None,
               poll_s: float = 0.05,
               points: Optional[Sequence[SweepPoint]] = None,
               on_point: Optional[OnPoint] = None,
               keys: Optional[Mapping[str, str]] = None) -> int:
    """Drain a campaign: claim → evaluate → publish, until done.

    Runs :func:`~repro.core.sweep.drain` until every point has an
    envelope (success *or* failure — failed points are post-mortem data
    for this run; a new :class:`CampaignRunner` run clears and retries
    them).  Safe to run any number of workers concurrently against the
    same directory; this is also the entry point of ``repro campaign
    worker``.  Returns the number of points this worker executed.

    ``points`` defaults to every point in ``points.pkl``.  ``keys`` is a
    verified ``name → key`` map (``Campaign.ensure``'s
    :attr:`~Campaign.point_keys`); without it every point is
    fingerprinted here.  ``on_point(point, key, envelope)`` receives
    each envelope this worker publishes, as the cache holds it.
    """
    campaign = Campaign.open(directory)
    salt = campaign.load_manifest()["salt"]
    all_points = list(points) if points is not None \
        else campaign.load_points()
    if keys is None:
        keys = {point.name: fingerprint(point, salt) for point in all_points}
    return drain([(point, keys[point.name]) for point in all_points],
                 campaign.cache,
                 LeaseQueue(campaign.queue_dir, ttl_s=lease_ttl_s),
                 campaign.publish, salt, timeout_s, owner=worker_id,
                 poll_s=poll_s, on_point=on_point)


class CampaignRunner(SweepRunner):
    """:class:`~repro.core.sweep.SweepRunner` over a campaign directory.

    The same engine and the same ``run(points) -> SweepResult`` — so
    ``explore()``, ``fig3_sweep``/``fig4_sweep``/``fig5_wearout_sweep``
    and ``trace_sweep`` become campaign clients just by being handed this
    runner — plus what only a campaign has: the manifest a resumed run
    must agree with, ``points.pkl`` for additional workers (other
    processes, other hosts) draining the same directory, and the SQLite
    index behind ``repro campaign query|report``.
    """

    def __init__(self, directory: str, workers: Optional[int] = None,
                 salt: str = CODE_VERSION, name: str = "campaign",
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 cost_model: Optional[ResourceCostModel] = None):
        super().__init__(workers=workers, salt=salt, progress=progress,
                         timeout_s=timeout_s)
        self.directory = str(directory)
        self.name = name
        self.lease_ttl_s = lease_ttl_s
        self.cost_model = cost_model or ResourceCostModel()

    @contextlib.contextmanager
    def _open(self, points: Sequence[SweepPoint]
              ) -> Iterator[Tuple[List[str], SweepCache, LeaseQueue]]:
        campaign = Campaign.ensure(self.directory, points, salt=self.salt,
                                   name=self.name)
        yield ([campaign.point_keys[point.name] for point in points],
               campaign.cache,
               LeaseQueue(campaign.queue_dir, ttl_s=self.lease_ttl_s))

    def _drain(self, pending: Sequence[Tuple[SweepPoint, str]],
               cache: SweepCache, queue: LeaseQueue,
               on_point: Optional[OnPoint] = None) -> int:
        # run_worker drains the campaign's own cache and queue.
        return run_worker(self.directory, lease_ttl_s=self.lease_ttl_s,
                          timeout_s=self.timeout_s,
                          points=[point for point, _ in pending],
                          keys={point.name: key for point, key in pending},
                          on_point=on_point)

    def _sync(self, points: Sequence[SweepPoint],
              envelopes: Mapping[str, Dict[str, Any]]) -> None:
        """Index the pass, priced with the runner's cost model."""
        Campaign(self.directory).index(points, envelopes, self.cost_model)
