"""Real-trace replay experiments: any trace file against any design point.

:class:`TraceWorkload` describes a replay declaratively (file, format,
transforms, preconditioning) and fingerprints by the trace file's
*content hash* — a trace can move or be renamed on disk without
invalidating cached sweep results, while an edited trace is always a
cache miss.  The ``replay`` sweep evaluator re-hashes the file in the
worker and refuses to run against content that no longer matches, so a
cache entry can never silently describe a different trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..host.traces import (TraceProfile, characterize, iter_trace,
                           limit_records, records_to_commands, scale_time,
                           wrap_to_device)
from ..host.traces.precondition import PRECONDITION_MODES
from ..host.traces.records import TraceError
from ..host.workload import CommandListWorkload
from ..ssd.architecture import SsdArchitecture
from ..ssd.metrics import RunResult
from ..ssd.scenarios import Scenario, run_scenario
from .experiments import TABLE2_LABELS, table2_configs
from .sweep import SweepPoint, SweepRunner


def sha256_file(path: str, chunk_bytes: int = 1 << 20) -> str:
    """Streaming SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_bytes), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_trace(path: str, sha256: str, owner: str) -> None:
    """Raise :class:`TraceError` if the file no longer hashes to ``sha256``
    (``owner`` names whose recorded hash it is in the message)."""
    actual = sha256_file(path)
    if actual != sha256:
        raise TraceError(
            f"{path}: content hash {actual[:12]}... does not match "
            f"{owner}'s {sha256[:12]}... — the trace changed since the "
            f"sweep was defined")


@dataclass(frozen=True)
class TraceWorkload:
    """A declarative replay: trace file + transforms + measurement mode.

    ``pattern`` overrides the WAF-model access-pattern key; the empty
    string means "decide from the trace's measured sequentiality".
    """

    path: str
    sha256: str
    fmt: str = "auto"
    honor_issue_times: bool = True
    time_scale: float = 1.0
    wrap: bool = True
    precondition: str = "none"
    max_commands: Optional[int] = None
    pattern: str = ""

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.precondition not in PRECONDITION_MODES:
            raise ValueError(f"precondition must be one of "
                             f"{PRECONDITION_MODES}, "
                             f"got {self.precondition!r}")
        if self.pattern not in ("", "sequential", "random"):
            raise ValueError(f"pattern must be ''/sequential/random, "
                             f"got {self.pattern!r}")

    def __canonical__(self) -> Dict[str, Any]:
        """Fingerprint form: the content hash stands in for the path."""
        return {
            "__trace_workload__": {
                "sha256": self.sha256,
                "fmt": self.fmt,
                "honor_issue_times": self.honor_issue_times,
                "time_scale": self.time_scale,
                "wrap": self.wrap,
                "precondition": self.precondition,
                "max_commands": self.max_commands,
                "pattern": self.pattern,
            },
        }

    @classmethod
    def from_file(cls, path: str, **options: Any) -> "TraceWorkload":
        """Build a workload, hashing the file's current content."""
        return cls(path=path, sha256=sha256_file(path), **options)

    def with_path(self, path: str) -> "TraceWorkload":
        """The same replay against a moved/copied trace file."""
        return replace(self, path=path)


@dataclass
class ReplayOutcome:
    """What one trace replay produced."""

    result: RunResult
    profile: TraceProfile
    preconditioning_commands: int = 0


def _load_commands(workload: TraceWorkload, arch: SsdArchitecture
                   ) -> Tuple[TraceProfile, List, str]:
    """Parse + transform the trace; returns (profile, commands, pattern).

    The characterization describes the stream *as replayed* (after
    limiting, time scaling and geometry wrapping), so the report and the
    measured RunResult always refer to the same request sequence.
    """
    records = iter_trace(workload.path, fmt=workload.fmt)
    records = limit_records(records, workload.max_commands)
    if workload.time_scale != 1.0:
        records = scale_time(records, workload.time_scale)
    if workload.wrap:
        records = wrap_to_device(records, arch)
    materialized = list(records)
    if not materialized:
        raise TraceError(f"{workload.path}: trace contains no records")
    profile = characterize(materialized)
    pattern = workload.pattern or profile.dominant_pattern
    commands = list(records_to_commands(materialized))
    return profile, commands, pattern


def replay_trace(workload: TraceWorkload,
                 arch: Optional[SsdArchitecture] = None,
                 label: str = "") -> ReplayOutcome:
    """Replay one trace through one architecture, in process.

    Reads are served from preloaded pages; with ``precondition`` set the
    addressed region is filled (and, for ``steady``, partially
    rewritten) to completion before the measured window opens —
    :func:`~repro.ssd.metrics.run_workload` computes every figure
    relative to that window.
    """
    arch = arch or SsdArchitecture()
    profile, commands, pattern = _load_commands(workload, arch)
    run = run_scenario(Scenario(
        arch, CommandListWorkload(commands, pattern=pattern),
        label=label or f"trace/{profile.dominant_pattern}",
        preload_reads=bool(profile.reads),
        precondition=workload.precondition,
        honor_issue_times=workload.honor_issue_times))
    return ReplayOutcome(result=run.result, profile=profile,
                         preconditioning_commands=run.preconditioning_commands)


def evaluate_replay_point(point: SweepPoint) -> Tuple[Dict[str, Any], int]:
    """The ``replay`` sweep evaluator (runs inside worker processes)."""
    workload = point.workload
    if not isinstance(workload, TraceWorkload):
        raise TypeError(f"replay evaluator needs a TraceWorkload, "
                        f"got {type(workload).__name__}")
    verify_trace(workload.path, workload.sha256, "the workload")
    outcome = replay_trace(workload, arch=point.arch,
                           label=str(point.params.get("label", point.name)))
    payload = outcome.result.to_payload()
    payload["trace_profile"] = outcome.profile.to_dict()
    payload["preconditioning_commands"] = outcome.preconditioning_commands
    return payload, outcome.result.events


def trace_sweep_points(workload: TraceWorkload,
                       configs: Optional[List[str]] = None,
                       base: Optional[SsdArchitecture] = None
                       ) -> List[SweepPoint]:
    """One replay point per Table II configuration for a single trace."""
    selected = configs or list(TABLE2_LABELS)
    return [SweepPoint(name=name, arch=arch, workload=workload,
                       evaluator="replay", params={"label": name})
            for name, arch in table2_configs(base).items()
            if name in selected]


def trace_sweep(workload: TraceWorkload,
                configs: Optional[List[str]] = None,
                base: Optional[SsdArchitecture] = None,
                runner: Optional[SweepRunner] = None
                ) -> Dict[str, Dict[str, Any]]:
    """Fan a trace replay across Table II design points.

    The sweep cache key folds in the trace's content hash, so re-running
    with an unchanged trace is all cache hits and editing the trace
    re-simulates every point.

    Raises :class:`TraceError` if any point fails, naming each failed
    point and its error — a missing key in the returned table always
    means "not requested", never "silently dropped".  Callers that want
    to inspect partial results alongside failures should drive
    :meth:`SweepRunner.run` on :func:`trace_sweep_points` directly.
    """
    runner = runner or SweepRunner(workers=1)
    result = runner.run(trace_sweep_points(workload, configs, base))
    return result.checked_payloads("trace", TraceError)
