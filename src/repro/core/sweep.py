"""Design-space sweep engine over a content-addressed result cache.

The paper's workflow is *fine-grained design space exploration*: many
independent (architecture, workload) points evaluated against the same
metrics.  Every point is keyed by a stable content hash of the
architecture + workload + evaluator parameters + a code-version salt, and
:class:`SweepRunner` drains the points through one loop, :func:`drain`:
claim the point's lease (:mod:`repro.core.lease`), evaluate it, publish
its envelope to a :class:`SweepCache`, and reap the leases of workers
that died.  A width above one forks that many drain processes over the
same directory; :class:`~repro.core.campaign.CampaignRunner` is the same
engine plus a manifest and a queryable store.  Because each finished
point is published as it completes, a killed sweep resumes where it left
off and a re-run only simulates new or changed points.

Determinism contract: a point's *payload* (the cacheable result) depends
only on its fingerprint inputs — parallel and serial runs produce
identical payloads, which the determinism test tier locks down.  Wall
time and scheduling order are metadata, never part of a payload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import random
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple, Type)

from ..ssd.device import DataPathMode
from ..ssd.scenarios import breakdown_with_events, measure
from .lease import DEFAULT_LEASE_TTL_S, LeaseKeeper, LeaseQueue, atomic_write

#: Salt folded into every fingerprint.  Bump whenever a change alters the
#: simulated numbers (timing models, scheduler fixes, metric definitions)
#: so stale cache entries from older code are treated as misses.
#: sweep-2: architectures gained the fault-injection config field.
#: sweep-3: RunResult payloads gained stage_breakdown and are sanitized
#: with json_safe (non-finite floats become null).
#: sweep-4: architectures gained the fidelity config field (cycle/fast
#: abstraction levels participate in every fingerprint).
#: sweep-5: RunResult reliability payloads gained page_reads,
#: background_write_faults and the per-command outcome histogram.
#: sweep-6: architectures gained the FTL scheme registry fields
#: (ftl_scheme / ftl_dram_bytes / ftl_group_pages) and real-FTL
#: RunResult payloads gained the ftl metrics section.
#: sweep-7: the tenants evaluator landed (multi-initiator arbitration,
#: per-tenant tail percentiles, interference matrices) and devices
#: gained namespace→channel placement state.
#: sweep-8: tenant-row percentiles are exact nearest-rank over the
#: tenant's N commands (the RunResult rule) instead of histogram bin
#: edges, so cached tenant payloads of sweep-7 are stale.
#: sweep-9: the fidelity config lost its always-zero NAND overhead
#: field, so every architecture reduces to a different canonical form.
#: sweep-10: reliability page_reads counts uncorrectable reads too, so
#: uber and retries_per_read of runs with uncorrectable reads moved.
#: sweep-11: the fidelity config lost its three fitted-parameter fields
#: (a fast build fits them itself), so every architecture reduces to a
#: different canonical form; an uncalibrated ``fast`` point now runs
#: the fit instead of the analytic defaults.
CODE_VERSION = "sweep-11"


# ----------------------------------------------------------------------
# Content fingerprinting


def canonical(obj: Any) -> Any:
    """Reduce a model object to a JSON-safe canonical form.

    Dataclasses carry their qualified type name so that two schemes with
    identical fields (e.g. fixed vs adaptive BCH defaults) never collide;
    enums reduce to type + value.  Unsupported types raise ``TypeError``
    — the runners report such a point as a :class:`CampaignError`.

    An object may define ``__canonical__()`` to control its own
    fingerprint form — e.g. :class:`~repro.core.tracereplay.TraceWorkload`
    substitutes the trace file's content hash for its path, so moving a
    trace on disk never invalidates cached sweep results.

    How an object reduces depends only on its class, so the rule is
    chosen once per class (:func:`_reducer_for`) and looked up after.
    """
    cls = type(obj)
    reduce = _REDUCERS.get(cls)
    if reduce is None:
        reduce = _REDUCERS[cls] = _reducer_for(cls)
    return reduce(obj)


#: ``class → reducer``, filled by :func:`canonical` on first sight.
_REDUCERS: Dict[type, Callable[[Any], Any]] = {}


def _reducer_for(cls: type) -> Callable[[Any], Any]:
    """The reduction rule for instances of ``cls``; first match wins, in
    the order ``__canonical__``, dataclass, enum, scalar, mapping,
    list/tuple; ``TypeError`` when none matches.  A class object's
    class is ``type`` (or a metaclass), which matches none of them, so a
    class never fingerprints."""
    if hasattr(cls, "__canonical__"):
        return lambda obj: canonical(obj.__canonical__())
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        qualname = cls.__qualname__

        def reduce_dataclass(obj: Any) -> Dict[str, Any]:
            body = {name: canonical(getattr(obj, name)) for name in names}
            return {"__dataclass__": qualname, **body}
        return reduce_dataclass
    if issubclass(cls, enum.Enum):
        qualname = cls.__qualname__
        return lambda obj: {"__enum__": qualname, "value": obj.value}
    if issubclass(cls, (bool, int, float, str, type(None))):
        return _identity
    if issubclass(cls, Mapping):
        return _reduce_mapping
    if issubclass(cls, (list, tuple)):
        return lambda obj: [canonical(item) for item in obj]
    raise TypeError(f"cannot fingerprint object of type {cls.__name__}")


def _identity(obj: Any) -> Any:
    return obj


def _reduce_mapping(obj: Mapping[Any, Any]) -> Dict[str, Any]:
    return {str(key): canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}


@dataclass(frozen=True)
class SweepPoint:
    """One independent evaluation: an architecture under a workload.

    ``evaluator`` names a registered evaluation function; ``params`` are
    its keyword knobs (both are part of the fingerprint, so a parameter
    change is a cache miss).
    """

    name: str
    arch: Any
    workload: Any
    evaluator: str = "breakdown"
    params: Mapping[str, Any] = field(default_factory=dict)


def fingerprint(point: SweepPoint, salt: str = CODE_VERSION) -> str:
    """Stable content hash of everything that determines the payload."""
    document = {
        "salt": salt,
        "evaluator": point.evaluator,
        "params": canonical(dict(point.params)),
        "arch": canonical(point.arch),
        "workload": canonical(point.workload),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CampaignError(RuntimeError):
    """A point set, result directory or sweep outcome is inconsistent
    with what the caller wants (e.g. a point that cannot be
    fingerprinted, or failed points where every payload was required)."""


# ----------------------------------------------------------------------
# Evaluators — module-level so worker processes can import them.


def _eval_breakdown(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    row, events = breakdown_with_events(
        point.arch, point.workload,
        max_commands=point.params.get("max_commands"))
    return dataclasses.asdict(row), events


def _eval_measure(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    params = dict(point.params)
    mode = DataPathMode(params.get("mode", DataPathMode.FULL.value))
    result = measure(point.arch, point.workload, mode=mode,
                     max_commands=params.get("max_commands"),
                     label=params.get("label", point.name),
                     preload_reads=params.get("preload_reads", True),
                     warm_start=params.get("warm_start", False))
    return result.to_payload(), result.events


def _eval_replay(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Real-trace replay (workload is a TraceWorkload).

    Deferred import: the replay machinery lives in
    :mod:`repro.core.tracereplay`, which imports this module's types.
    """
    from .tracereplay import evaluate_replay_point
    return evaluate_replay_point(point)


def _eval_ftl(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Real-FTL trace replay (scheme zoo / DRAM-budget sweep points).

    Deferred import for the same reason as :func:`_eval_replay`:
    :mod:`repro.core.ftlsweep` imports this module's types.
    """
    from .ftlsweep import evaluate_ftl_point
    return evaluate_ftl_point(point)


def _eval_tenants(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """Multi-tenant arbitration run (tenant-count × policy grid points).

    Deferred import for the same reason as :func:`_eval_replay`:
    :mod:`repro.core.tenantsweep` imports this module's types.
    """
    from .tenantsweep import evaluate_tenants_point
    return evaluate_tenants_point(point)


EVALUATORS: Dict[str, Callable[[SweepPoint], Tuple[Dict[str, Any], int]]] = {
    "breakdown": _eval_breakdown,
    "measure": _eval_measure,
    "replay": _eval_replay,
    "ftl": _eval_ftl,
    "tenants": _eval_tenants,
}


def _evaluate(point: SweepPoint, key: str, salt: str) -> Dict[str, Any]:
    """Run one point and wrap the result in a cache envelope."""
    evaluator = EVALUATORS.get(point.evaluator)
    if evaluator is None:
        raise ValueError(f"unknown evaluator {point.evaluator!r}; "
                         f"registered: {sorted(EVALUATORS)}")
    random.seed(int(key[:16], 16))  # per point, identical in any process
    started = time.perf_counter()
    payload, events = evaluator(point)
    return {
        "salt": salt,
        "name": point.name,
        "evaluator": point.evaluator,
        "payload": payload,
        "events": int(events),
        "elapsed_s": time.perf_counter() - started,
    }


class PointTimeout(Exception):
    """A sweep point exceeded the runner's per-point time budget."""


def _evaluate_guarded(point: SweepPoint, key: str, salt: str,
                      timeout_s: Optional[float]) -> Dict[str, Any]:
    """:func:`_evaluate`, but a crash or timeout becomes a *failure
    envelope* instead of an exception.

    Failure envelopes are published like any other result, so one
    diverging point cannot take down the sweep; the recorded traceback
    travels with the envelope for the summary report and the cache.
    """
    started = time.perf_counter()
    use_alarm = (timeout_s is not None and timeout_s > 0
                 and hasattr(signal, "SIGALRM"))
    previous = None
    if use_alarm:
        def on_alarm(signum, frame):
            raise PointTimeout(
                f"point {point.name!r} exceeded {timeout_s:g}s")
        try:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
        except ValueError:   # not in the main thread: run unguarded
            use_alarm = False
    try:
        return _evaluate(point, key, salt)
    except Exception as error:
        return {
            "salt": salt,
            "name": point.name,
            "evaluator": point.evaluator,
            "payload": {},
            "events": 0,
            "elapsed_s": time.perf_counter() - started,
            "failure": {
                "error_type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(),
            },
        }
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Result cache


class SweepCache:
    """Content-addressed JSON store: one file per evaluated point.

    A corrupted, truncated or structurally wrong file is a miss, never an
    error — the point is simply re-simulated and the entry rewritten.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict) \
                or not isinstance(envelope.get("payload"), dict):
            return None
        return envelope

    def store(self, key: str, envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Write ``envelope`` atomically; return it as :meth:`load` will
        read it back (JSON types: lists for tuples, string dict keys)."""
        text = json.dumps(envelope, sort_keys=True)
        atomic_write(self._path(key), text.encode("utf-8"))
        return json.loads(text)

    def resume(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """The successful envelopes of ``keys``, by key.

        Recorded failures are post-mortem data, not results: they are
        deleted here so the resumed run re-executes those points.
        """
        published: Dict[str, Dict[str, Any]] = {}
        for key in dict.fromkeys(keys):
            envelope = self.load(key)
            if envelope is None:
                continue
            if envelope.get("failure") is None:
                published[key] = envelope
                continue
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
        return published

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".json"))
        except OSError:
            return 0


# ----------------------------------------------------------------------
# Runner


@dataclass
class PointFailure:
    """Typed record of a point that crashed, timed out or was lost.

    Stored in the cache envelope (so post-mortems survive the run) but
    always treated as a cache *miss* on load — a rerun over the cache
    re-runs failed points instead of replaying their failures.
    """

    error_type: str
    message: str
    traceback: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"error_type": self.error_type, "message": self.message,
                "traceback": self.traceback}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PointFailure":
        return cls(error_type=str(data.get("error_type", "Exception")),
                   message=str(data.get("message", "")),
                   traceback=str(data.get("traceback", "")))


@dataclass
class PointOutcome:
    """One point's result plus provenance."""

    name: str
    payload: Dict[str, Any]
    cached: bool
    events: int
    elapsed_s: float
    key: str
    failure: Optional[PointFailure] = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class SweepSummary:
    """Aggregate accounting for one :meth:`SweepRunner.run` call.

    The three point counts are disjoint — ``total == cached + simulated
    + failed`` — so a resumed campaign over a warm cache reports its
    served points as ``cached``, never ``simulated``, and a fresh
    failure is ``failed``, not ``simulated``.
    """

    total: int
    cached: int
    simulated: int
    wall_seconds: float
    simulated_events: int
    workers: int
    failed: int = 0

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_events / self.wall_seconds

    def format(self) -> str:
        line = (f"sweep: {self.total} points "
                f"({self.cached} cached, {self.simulated} simulated"
                + (f", {self.failed} FAILED" if self.failed else "")
                + f") in {self.wall_seconds:.2f}s")
        if self.simulated:
            line += (f" — {self.events_per_sec / 1e3:.0f}k events/s "
                     f"across {self.workers} worker(s)")
        return line


@dataclass
class SweepResult:
    """Outcomes in input order + the sweep summary."""

    outcomes: List[PointOutcome]
    summary: SweepSummary

    def payloads(self) -> Dict[str, Dict[str, Any]]:
        return {outcome.name: outcome.payload for outcome in self.outcomes
                if not outcome.failed}

    def failures(self) -> List[PointOutcome]:
        """Failed points, in input order."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def checked_payloads(self, what: str,
                         error: Type[Exception] = CampaignError
                         ) -> Dict[str, Dict[str, Any]]:
        """:meth:`payloads`, or raise ``error`` naming every failed point —
        a missing key then always means "not requested", never "dropped"."""
        failures = self.failures()
        if failures:
            detail = "; ".join(f"{o.name}: {o.failure.error_type}: "
                               f"{o.failure.message}" for o in failures)
            raise error(f"{what} sweep failed for {len(failures)} "
                        f"point(s): {detail}")
        return self.payloads()

    def format_failures(self) -> str:
        """Human-readable ``failed_points`` section for the sweep report."""
        failures = self.failures()
        if not failures:
            return ""
        lines = [f"failed_points: {len(failures)}"]
        for outcome in failures:
            lines.append(f"  {outcome.name}: "
                         f"{outcome.failure.error_type}: "
                         f"{outcome.failure.message}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The engine


#: What an outcome reports for a point whose envelope vanished mid-run
#: (the result directory was wiped under the runner).
_LOST = {"payload": {}, "events": 0, "elapsed_s": 0.0,
         "failure": {"error_type": "CampaignError",
                     "message": "point never published"}}

OnPoint = Callable[[SweepPoint, str, Dict[str, Any]], None]


def drain(pending: Sequence[Tuple[SweepPoint, str]], cache: SweepCache,
          queue: LeaseQueue,
          publish: Callable[[SweepPoint, str, Dict[str, Any]],
                            Dict[str, Any]],
          salt: str,
          timeout_s: Optional[float] = None, owner: Optional[str] = None,
          poll_s: float = 0.05, on_point: Optional[OnPoint] = None) -> int:
    """Claim → evaluate → publish until every ``(point, key)`` has an
    envelope in ``cache`` (success *or* failure); return how many points
    this call executed.

    The one execution loop: :class:`SweepRunner`, its forked children,
    :class:`~repro.core.campaign.CampaignRunner` and ``repro campaign
    worker`` all run it, so any number of them may drain one directory.
    A point leased elsewhere is skipped; once only such points remain,
    the leases of dead (same host) or expired owners are reaped, each
    exactly once, and their points re-run.  ``publish(point, key,
    envelope)`` stores an envelope and returns it as the cache reads it
    back; ``on_point`` receives that envelope.  One
    :class:`~repro.core.lease.LeaseKeeper` thread heartbeats whichever
    lease the call holds, from claim to release.
    """
    executed = 0
    published: Set[str] = set()  # by this call: no need to re-read
    with LeaseKeeper(queue) as keeper:
        while True:
            claimed_any = False
            missing = 0
            for point, key in pending:
                if key in published or cache.load(key) is not None:
                    continue
                missing += 1
                lease = queue.claim(key, owner)
                if lease is None:
                    continue
                claimed_any = True
                keeper.hold(lease)
                try:
                    if cache.load(key) is not None:
                        continue  # published while we raced for the lease
                    envelope = publish(point, key, _evaluate_guarded(
                        point, key, salt, timeout_s))
                    published.add(key)
                    executed += 1
                    if on_point is not None:
                        on_point(point, key, envelope)
                finally:
                    keeper.hold(None)
                    queue.release(lease)
            if missing == 0:
                return executed
            if not claimed_any:
                # Everything left is leased elsewhere: recover orphans,
                # then wait for live owners to publish.
                if not (queue.reap_dead() or queue.reap_expired()):
                    time.sleep(poll_s)


def _launch(width: int, target: Callable[..., Any],
            args: Tuple[Any, ...]) -> None:
    """Run ``target(*args)`` in ``width`` child processes until all exit.

    Children are joined in exit order, so a killed child's pid is gone at
    once and a surviving drain's ``reap_dead`` re-queues its point.  If a
    process cannot be started, fewer drains (or the caller's own, after
    this returns) do the work.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    children: List[Any] = []
    try:
        for _ in range(width):
            child = context.Process(target=target, args=args)
            try:
                child.start()
            except (OSError, ValueError):
                break
            children.append(child)
        while children:
            ready = multiprocessing.connection.wait(
                [child.sentinel for child in children])
            for child in [c for c in children if c.sentinel in ready]:
                child.join()
                children.remove(child)
    finally:
        for child in children:
            child.terminate()
            child.join()


def _outcome(name: str, key: str, envelope: Mapping[str, Any],
             cached: bool) -> PointOutcome:
    failure = envelope.get("failure")
    return PointOutcome(
        name=name, payload=envelope.get("payload", {}), cached=cached,
        events=int(envelope.get("events", 0)),
        elapsed_s=0.0 if cached else float(envelope.get("elapsed_s", 0.0)),
        key=key,
        failure=None if failure is None else PointFailure.from_dict(failure))


class SweepRunner:
    """Drains sweep points through the lease engine into a result cache.

    Every point is keyed by :func:`fingerprint` (a point that cannot be
    fingerprinted raises :class:`CampaignError`).  With ``cache_dir`` the
    envelopes live in ``<cache_dir>/<key>.json`` and the leases in
    ``<cache_dir>/queue/``, and a later run serves every published point
    instead of re-simulating it; without, a private temporary directory
    is used and removed before :meth:`run` returns.  ``workers=None``
    asks for every core; the width actually used is ``min(workers,
    os.cpu_count(), pending points)``, and a width above one forks that
    many drain processes before the runner drains what they left.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 salt: str = CODE_VERSION,
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for all cores)")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.salt = salt
        self.progress = progress
        self.timeout_s = timeout_s
        self.lease_ttl_s = DEFAULT_LEASE_TTL_S
        self.last_summary: Optional[SweepSummary] = None
        self.last_result: Optional[SweepResult] = None

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepResult:
        points = list(points)
        started = time.perf_counter()
        outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        done = 0
        with self._open(points) as (keys, cache, queue):
            # Resume: published points are served, never recomputed;
            # recorded failures are cleared and re-run.
            envelopes = cache.resume(keys)
            prepublished = set(envelopes)
            pending = [(point, key) for point, key in zip(points, keys)
                       if key not in prepublished]
            unsettled: Dict[str, List[int]] = {}
            for index, key in enumerate(keys):
                unsettled.setdefault(key, []).append(index)

            def settle(key: str, envelope: Dict[str, Any]) -> None:
                nonlocal done
                envelopes[key] = envelope
                for index in unsettled.pop(key):
                    outcomes[index] = _outcome(points[index].name, key,
                                               envelope, key in prepublished)
                    done += 1
                    if self.progress is not None:
                        self.progress(outcomes[index], done, len(points))

            for key, envelope in list(envelopes.items()):
                settle(key, envelope)
            width = max(1, min(self.workers, os.cpu_count() or 1,
                               len(pending)))
            if width > 1:
                _launch(width, self._drain, (pending, cache, queue))
            if pending:
                self._drain(pending, cache, queue,
                            on_point=lambda point, key, envelope:
                            settle(key, envelope))
            for key in keys:  # published by the children or other workers
                if key in unsettled:
                    settle(key, cache.load(key) or _LOST)
            self._sync(points, envelopes)

        # Disjoint accounting: cached + simulated + failed == total.
        fresh = [o for o in outcomes if not o.cached and not o.failed]
        summary = SweepSummary(
            total=len(points),
            cached=sum(1 for o in outcomes if o.cached),
            simulated=len(fresh),
            wall_seconds=time.perf_counter() - started,
            simulated_events=sum(o.events for o in fresh),
            workers=width,
            failed=sum(1 for o in outcomes if o.failed))
        self.last_summary = summary
        result = SweepResult(outcomes=list(outcomes), summary=summary)
        self.last_result = result
        return result

    # -- what a campaign adds to the engine ----------------------------
    @contextlib.contextmanager
    def _open(self, points: Sequence[SweepPoint]
              ) -> Iterator[Tuple[List[str], SweepCache, LeaseQueue]]:
        """Key the points; yield ``(keys, cache, queue)`` for one pass."""
        keys = []
        for point in points:
            try:
                keys.append(fingerprint(point, self.salt))
            except TypeError as error:
                raise CampaignError(
                    f"point {point.name!r} is not fingerprintable "
                    f"({error}); sweeps need content-addressed keys"
                ) from error
        directory = self.cache_dir or tempfile.mkdtemp(prefix="repro-sweep-")
        try:
            yield keys, SweepCache(directory), LeaseQueue(
                os.path.join(directory, "queue"), ttl_s=self.lease_ttl_s)
        finally:
            if self.cache_dir is None:
                shutil.rmtree(directory, ignore_errors=True)

    def _drain(self, pending: Sequence[Tuple[SweepPoint, str]],
               cache: SweepCache, queue: LeaseQueue,
               on_point: Optional[OnPoint] = None) -> int:
        return drain(pending, cache, queue,
                     lambda point, key, envelope: cache.store(key, envelope),
                     self.salt, self.timeout_s, on_point=on_point)

    def _sync(self, points: Sequence[SweepPoint],
              envelopes: Mapping[str, Dict[str, Any]]) -> None:
        """Record the finished pass beside the envelopes (nothing here)."""


def print_progress(outcome: PointOutcome, done: int, total: int) -> None:
    """Default per-point progress line (the CLI's callback)."""
    if outcome.failed:
        status = (f"FAILED ({outcome.failure.error_type}: "
                  f"{outcome.failure.message})")
    elif outcome.cached:
        status = "cached"
    else:
        status = f"simulated in {outcome.elapsed_s:6.2f}s"
    print(f"[{done:>3}/{total}] {outcome.name:<24} {status}", flush=True)
