"""Parallel design-space sweep engine with a content-addressed result cache.

The paper's workflow is *fine-grained design space exploration*: many
independent (architecture, workload) points evaluated against the same
metrics.  Those evaluations share nothing at runtime, so
:class:`SweepRunner` fans them out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (default width
``os.cpu_count()``, serial in-process fallback for ``workers=1`` or when
no pool can be created) and memoizes each point in an on-disk cache keyed
by a stable content hash of the architecture + workload + evaluator
parameters + a code-version salt.  Re-running a sweep therefore only
simulates new or changed points, and because every finished point is
flushed to the cache as it arrives, a killed sweep resumes where it left
off.

Determinism contract: a point's *payload* (the cacheable result) depends
only on its fingerprint inputs — parallel and serial runs produce
identical payloads, which the determinism test tier locks down.  Wall
time and scheduling order are metadata, never part of a payload.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import multiprocessing
import os
import random
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type)

from ..ssd.device import DataPathMode
from ..ssd.scenarios import breakdown_with_events, measure

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
#: per-tenant log-binned tail percentiles, interference matrices) and
#: devices gained namespace→channel placement state.
CODE_VERSION = "sweep-7"


# ----------------------------------------------------------------------
# Content fingerprinting


def canonical(obj: Any) -> Any:
    """Reduce a model object to a JSON-safe canonical form.

    Dataclasses carry their qualified type name so that two schemes with
    identical fields (e.g. fixed vs adaptive BCH defaults) never collide;
    enums reduce to type + value.  Unsupported types raise ``TypeError``
    — the caller decides whether that makes the point uncacheable.

    An object may define ``__canonical__()`` to control its own
    fingerprint form — e.g. :class:`~repro.core.tracereplay.TraceWorkload`
    substitutes the trace file's content hash for its path, so moving a
    trace on disk never invalidates cached sweep results.
    """
    if hasattr(obj, "__canonical__"):
        return canonical(obj.__canonical__())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, **body}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__qualname__, "value": obj.value}
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(key): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


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


def _seed_for(point: SweepPoint, key: Optional[str]) -> int:
    """Deterministic per-point RNG seed, identical serial or parallel."""
    if key is not None:
        return int(key[:16], 16)
    digest = hashlib.sha256(point.name.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


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
    Being a module-level function here keeps it picklable for worker
    pools regardless of start method.
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


def _evaluate(point: SweepPoint, key: Optional[str],
              salt: str) -> Dict[str, Any]:
    """Run one point and wrap the result in a cache envelope."""
    evaluator = EVALUATORS.get(point.evaluator)
    if evaluator is None:
        raise ValueError(f"unknown evaluator {point.evaluator!r}; "
                         f"registered: {sorted(EVALUATORS)}")
    random.seed(_seed_for(point, key))
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


def _evaluate_guarded(point: SweepPoint, key: Optional[str], salt: str,
                      timeout_s: Optional[float]) -> Dict[str, Any]:
    """:func:`_evaluate`, but a crash or timeout becomes a *failure
    envelope* instead of an exception.

    Worker processes return these like any other result, so one diverging
    point cannot take down the sweep; the recorded traceback travels with
    the envelope for the summary report and the cache.
    """
    started = time.perf_counter()
    use_alarm = (timeout_s is not None and timeout_s > 0
                 and hasattr(signal, "SIGALRM"))
    previous = None
    if use_alarm:
        def on_alarm(signum, frame):
            raise PointTimeout(
                f"point {point.name!r} exceeded {timeout_s:.1f}s")
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
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                text = json.dumps(envelope, sort_keys=True)
                handle.write(text)
            os.replace(tmp, path)  # atomic: a killed sweep leaves no partials
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return json.loads(text)

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
    always treated as a cache *miss* on load — ``--resume`` re-runs
    failed points instead of replaying their failures.
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
    key: Optional[str]
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
                         error: Type[Exception] = RuntimeError
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


class SweepRunner:
    """Fans independent sweep points out over worker processes.

    ``workers=None`` uses every core; ``workers=1`` runs serially in
    process (no pool, no pickling).  With ``cache_dir`` set, finished
    points are flushed to the cache as they complete and future runs skip
    any point whose fingerprint already has an entry (disable reads with
    ``use_cache=False`` to force re-simulation while still writing).
    """

    def __init__(self, workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 use_cache: bool = True,
                 salt: str = CODE_VERSION,
                 progress: Optional[Callable[[PointOutcome, int, int],
                                             None]] = None,
                 timeout_s: Optional[float] = None,
                 pool_retries: int = 2,
                 retry_backoff_s: float = 0.5):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for all cores)")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if pool_retries < 0:
            raise ValueError("pool_retries must be >= 0")
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.cache = SweepCache(cache_dir) if cache_dir else None
        self.use_cache = use_cache
        self.salt = salt
        self.progress = progress
        self.timeout_s = timeout_s
        self.pool_retries = pool_retries
        self.retry_backoff_s = retry_backoff_s
        self.last_summary: Optional[SweepSummary] = None
        self.last_result: Optional[SweepResult] = None

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepResult:
        points = list(points)
        started = time.perf_counter()
        outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        done = 0

        keys: List[Optional[str]] = []
        for point in points:
            try:
                keys.append(fingerprint(point, self.salt))
            except TypeError:
                keys.append(None)  # unhashable workload: run uncached

        pending: List[int] = []
        for index, (point, key) in enumerate(zip(points, keys)):
            envelope = None
            if self.cache is not None and self.use_cache and key is not None:
                envelope = self.cache.load(key)
            if envelope is not None and envelope.get("failure") is not None:
                # Recorded failures are post-mortem data, never results:
                # a resumed sweep re-runs the point from scratch.
                envelope = None
            if envelope is not None:
                outcomes[index] = PointOutcome(
                    name=point.name, payload=envelope["payload"],
                    cached=True, events=int(envelope.get("events", 0)),
                    elapsed_s=0.0, key=key)
                done += 1
                self._emit(outcomes[index], done, len(points))
            else:
                pending.append(index)

        def finish(index: int, envelope: Dict[str, Any]) -> None:
            nonlocal done
            if self.cache is not None and keys[index] is not None:
                self.cache.store(keys[index], envelope)
            failure = None
            if envelope.get("failure") is not None:
                failure = PointFailure.from_dict(envelope["failure"])
            outcomes[index] = PointOutcome(
                name=points[index].name, payload=envelope["payload"],
                cached=False, events=int(envelope["events"]),
                elapsed_s=float(envelope["elapsed_s"]), key=keys[index],
                failure=failure)
            done += 1
            self._emit(outcomes[index], done, len(points))

        # Cap the effective width at the actual core count: asking for
        # more workers than cores only buys ProcessPoolExecutor overhead
        # (BENCH_sweep.json measured "parallel" 7% slower than serial on
        # a 1-CPU box), and a cap of 1 degrades to the serial in-process
        # path — byte-identical payloads either way, per the determinism
        # contract.
        workers = min(self.workers, os.cpu_count() or 1,
                      max(1, len(pending)))
        if pending:
            if workers == 1 or len(pending) == 1:
                for index in pending:
                    finish(index, _evaluate_guarded(
                        points[index], keys[index], self.salt,
                        self.timeout_s))
            else:
                self._run_pool(points, keys, pending, workers, finish)

        wall = time.perf_counter() - started
        # Disjoint accounting: a fresh point that failed is "failed", not
        # "simulated", and cached + simulated + failed == total.
        simulated = [o for o in outcomes
                     if o is not None and not o.cached and not o.failed]
        summary = SweepSummary(
            total=len(points),
            cached=len(points) - len(pending),
            simulated=len(simulated),
            wall_seconds=wall,
            simulated_events=sum(o.events for o in simulated),
            workers=workers,
            failed=sum(1 for o in outcomes
                       if o is not None and o.failed),
        )
        self.last_summary = summary
        result = SweepResult(outcomes=list(outcomes), summary=summary)
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    def _run_pool(self, points: Sequence[SweepPoint],
                  keys: Sequence[Optional[str]], pending: Sequence[int],
                  workers: int, finish: Callable[[int, Dict[str, Any]],
                                                 None]) -> None:
        """Fan pending points out, surviving worker-pool crashes.

        Ordinary point failures come back as failure envelopes (handled
        worker-side), so the only exception expected here is
        :class:`BrokenProcessPool` — a worker died hard (segfault, OOM
        kill).  The batch is retried on a fresh pool with exponential
        backoff; whatever still crashes the pool after the retry budget
        runs serially in-process, one point at a time, so a single killer
        point is isolated instead of sinking the sweep.
        """
        remaining = list(pending)
        backoff = self.retry_backoff_s
        for attempt in range(self.pool_retries + 1):
            if not remaining:
                return
            try:
                self._drain_pool(points, keys, remaining, workers, finish)
                return
            except BrokenProcessPool:
                if attempt < self.pool_retries:
                    time.sleep(backoff)
                    backoff *= 2
            except (OSError, ValueError, ImportError):
                # Platforms without usable multiprocessing: serial fallback.
                break
        for index in list(remaining):
            finish(index, _evaluate_guarded(points[index], keys[index],
                                            self.salt, self.timeout_s))
            remaining.remove(index)

    def _drain_pool(self, points: Sequence[SweepPoint],
                    keys: Sequence[Optional[str]], remaining: List[int],
                    workers: int, finish: Callable[[int, Dict[str, Any]],
                                                   None]) -> None:
        """One pool generation; drops finished indices from ``remaining``."""
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        with ProcessPoolExecutor(max_workers=min(workers, len(remaining)),
                                 mp_context=context) as pool:
            futures = {pool.submit(_evaluate_guarded, points[index],
                                   keys[index], self.salt,
                                   self.timeout_s): index
                       for index in remaining}
            for future in as_completed(futures):
                index = futures[future]
                finish(index, future.result())
                remaining.remove(index)

    def _emit(self, outcome: PointOutcome, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, done, total)


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
