"""Trace replays through the sweep engine: determinism + content-hash
cache keys.

The ISSUE-level contracts pinned here:

* replaying the bundled sample trace through the sweep at ``workers=1``
  and ``workers=4`` produces **byte-identical** payloads — parallelism
  must never leak into results,
* the sweep fingerprint keys on the trace's *content hash*, so a moved
  trace file is a cache hit and an edited one is a miss,
* a worker refuses to replay a file whose content no longer matches the
  recorded hash — in the ``replay``, ``ftl`` and ``tenants`` evaluators
  alike.
"""

import json
import os
import shutil

import pytest

from repro.core.ftlsweep import ftl_sweep_points
from repro.core.sweep import EVALUATORS, SweepPoint, SweepRunner, fingerprint
from repro.core.tenantsweep import tenants_base_architecture
from repro.core.tracereplay import (TraceWorkload, evaluate_replay_point,
                                    sha256_file, trace_sweep,
                                    trace_sweep_points)
from repro.host.tenants import TenantSpec
from repro.host.traces import TraceError

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SAMPLE = os.path.join(REPO_ROOT, "examples", "sample_msr.csv")


def sample_workload(path=SAMPLE, **options):
    options.setdefault("max_commands", 40)
    options.setdefault("honor_issue_times", False)
    return TraceWorkload.from_file(path, **options)


def canonical_json(payloads):
    return json.dumps(payloads, sort_keys=True)


# ----------------------------------------------------------------------
# Determinism across worker counts


@pytest.mark.slow
def test_sweep_results_identical_workers_1_vs_4():
    workload = sample_workload()
    serial = trace_sweep(workload, configs=["C1", "C2"],
                         runner=SweepRunner(workers=1))
    parallel = trace_sweep(workload, configs=["C1", "C2"],
                           runner=SweepRunner(workers=4))
    assert serial, "sweep produced no successful points"
    assert canonical_json(serial) == canonical_json(parallel)


def test_replay_evaluator_is_deterministic_in_process():
    workload = sample_workload()
    point = trace_sweep_points(workload, configs=["C1"])[0]
    first, first_events = evaluate_replay_point(point)
    second, second_events = evaluate_replay_point(point)
    assert canonical_json(first) == canonical_json(second)
    assert first_events == second_events
    assert first["wall_seconds"] == 0.0  # machine load scrubbed out
    assert first["trace_profile"]["records"] == 40


# ----------------------------------------------------------------------
# Content-hash fingerprinting


def test_fingerprint_survives_moving_the_trace(tmp_path):
    moved = tmp_path / "renamed.csv"
    shutil.copy(SAMPLE, moved)
    original = trace_sweep_points(sample_workload(), configs=["C1"])[0]
    relocated = trace_sweep_points(
        sample_workload().with_path(str(moved)), configs=["C1"])[0]
    assert fingerprint(original) == fingerprint(relocated)


def test_fingerprint_changes_when_trace_content_changes(tmp_path):
    edited = tmp_path / "edited.csv"
    with open(SAMPLE) as src, open(edited, "w") as dst:
        dst.write(src.read())
        dst.write("128166372903061629,src1,0,Read,4096,4096,100\n")
    point = trace_sweep_points(sample_workload(), configs=["C1"])[0]
    edited_point = trace_sweep_points(
        sample_workload(path=str(edited)), configs=["C1"])[0]
    assert fingerprint(point) != fingerprint(edited_point)


def test_fingerprint_changes_with_replay_options():
    base = trace_sweep_points(sample_workload(), configs=["C1"])[0]
    scaled = trace_sweep_points(
        sample_workload(time_scale=0.5), configs=["C1"])[0]
    preconditioned = trace_sweep_points(
        sample_workload(precondition="fill"), configs=["C1"])[0]
    keys = {fingerprint(base), fingerprint(scaled),
            fingerprint(preconditioned)}
    assert len(keys) == 3


def test_cached_sweep_hits_for_moved_trace(tmp_path):
    cache_dir = str(tmp_path / "cache")
    runner = SweepRunner(workers=1, cache_dir=cache_dir)
    first = trace_sweep(sample_workload(), configs=["C1"], runner=runner)
    assert runner.last_summary.simulated == 1

    moved = tmp_path / "moved.csv"
    shutil.copy(SAMPLE, moved)
    runner = SweepRunner(workers=1, cache_dir=cache_dir)
    second = trace_sweep(sample_workload().with_path(str(moved)),
                         configs=["C1"], runner=runner)
    assert runner.last_summary.cached == 1
    assert runner.last_summary.simulated == 0
    assert canonical_json(first) == canonical_json(second)


# ----------------------------------------------------------------------
# Worker-side hash verification


def _replay_point(path):
    return trace_sweep_points(sample_workload(path=path), configs=["C1"])[0]


def _ftl_point(path):
    return ftl_sweep_points(sample_workload(path=path),
                            schemes=["pagemap"])[0]


def _tenants_point(path):
    spec = TenantSpec.from_trace("replayer", path, n_commands=8)
    return SweepPoint(name="t-trace", arch=tenants_base_architecture(),
                      workload=[spec], evaluator="tenants",
                      params={"interference": False})


@pytest.mark.parametrize("build_point, owner", [
    (_replay_point, "the workload's"),
    (_ftl_point, "the workload's"),
    (_tenants_point, "tenant 'replayer''s"),
], ids=["replay", "ftl", "tenants"])
def test_worker_refuses_stale_content(tmp_path, build_point, owner):
    copy = tmp_path / "trace.csv"
    shutil.copy(SAMPLE, copy)
    point = build_point(str(copy))
    with open(copy, "a") as handle:  # edit after the point was built
        handle.write("128166372903061629,src1,0,Read,4096,4096,100\n")
    with pytest.raises(TraceError) as raised:
        EVALUATORS[point.evaluator](point)
    message = str(raised.value)
    assert message.startswith(f"{copy}: content hash ")
    assert f"does not match {owner} " in message
    assert message.endswith("the trace changed since the sweep was defined")


def test_trace_sweep_raises_on_failed_points(tmp_path):
    """trace_sweep must never silently drop a failed point from its
    table — a missing key means "not requested", never "failed"."""
    copy = tmp_path / "trace.csv"
    shutil.copy(SAMPLE, copy)
    workload = sample_workload(path=str(copy))
    with open(copy, "a") as handle:  # invalidate the recorded hash
        handle.write("128166372903061629,src1,0,Read,4096,4096,100\n")
    with pytest.raises(TraceError, match=r"failed for 1 point\(s\): C1"):
        trace_sweep(workload, configs=["C1"], runner=SweepRunner(workers=1))


def test_stale_content_surfaces_as_point_failure(tmp_path):
    copy = tmp_path / "trace.csv"
    shutil.copy(SAMPLE, copy)
    workload = sample_workload(path=str(copy))
    with open(copy, "a") as handle:
        handle.write("128166372903061629,src1,0,Read,4096,4096,100\n")
    result = SweepRunner(workers=1).run(
        trace_sweep_points(workload, configs=["C1"]))
    assert result.summary.failed == 1
    assert result.outcomes[0].failure.error_type == "TraceError"


def test_sha256_file_matches_recomputation():
    workload = TraceWorkload.from_file(SAMPLE)
    assert workload.sha256 == sha256_file(SAMPLE)
    assert len(workload.sha256) == 64
