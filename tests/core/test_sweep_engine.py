"""One execution engine: SweepRunner and CampaignRunner share its rules.

Both runners drain points through the same claim → evaluate → publish
loop, so a worker crash means one thing (its lease is reaped and the
point re-runs exactly once more), the width rule is one rule, an
unfingerprintable point is one error, and every file the engine writes
goes through one atomic write that leaves nothing behind when it fails.
"""

import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.core import (CODE_VERSION, Campaign, CampaignError,
                        CampaignRunner, LeaseQueue, SweepCache, SweepPoint,
                        SweepRunner, fingerprint)
from repro.core import sweep as sweep_module
from tests.core.test_campaign_crash import (execution_counts, fork_only,
                                            probe_points)


def _eval_engine(point):
    return {"value": float(point.params["value"])}, 1


sweep_module.EVALUATORS.setdefault("engine_quick", _eval_engine)


def quick_points(n=3):
    return [SweepPoint(name=f"e{i}", arch="stub", workload="wl",
                       evaluator="engine_quick", params={"value": i})
            for i in range(n)]


@pytest.fixture
def scratch_tmp(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory the test can inspect."""
    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


def _kill_blocker(log, spare_pid):
    """SIGKILL whichever process runs the blocker, then let it finish."""
    marker = os.path.join(log, "blocker.count")
    deadline = time.time() + 30.0
    text = ""
    while not text.endswith("\n"):
        if time.time() > deadline:
            os._exit(2)
        time.sleep(0.02)
        try:
            with open(marker, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            pass
    pid = int(text.splitlines()[0])
    if pid != spare_pid:
        os.kill(pid, signal.SIGKILL)
    with open(os.path.join(log, "go"), "w", encoding="utf-8"):
        pass
    os._exit(0 if pid != spare_pid else 3)


@fork_only
class TestSweepWorkerCrash:
    def test_sigkilled_child_is_reaped_and_rerun_once(
            self, tmp_path, monkeypatch, scratch_tmp):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # width 2 anywhere
        log = str(tmp_path / "log")
        os.makedirs(log)
        points = probe_points(log)
        context = multiprocessing.get_context("fork")
        killer = context.Process(target=_kill_blocker,
                                 args=(log, os.getpid()))
        killer.start()
        try:
            result = SweepRunner(workers=2).run(points)
        finally:
            killer.join(timeout=30.0)
        assert killer.exitcode == 0  # a child, not the runner, was killed
        assert result.summary.workers == 2

        # The killed point was reaped and completed exactly once more;
        # every other point ran exactly once.
        assert execution_counts(log, [p.name for p in points]) \
            == {"fast1": 1, "fast2": 1, "blocker": 2, "fast3": 1}
        assert (result.summary.cached, result.summary.simulated,
                result.summary.failed) == (0, 4, 0)

        serial = SweepRunner(workers=1).run(points)
        assert [o.payload for o in result.outcomes] \
            == [o.payload for o in serial.outcomes]
        assert os.listdir(str(scratch_tmp)) == []


class TestOneEngine:
    def test_uncached_run_leaves_nothing_on_disk(self, scratch_tmp):
        result = SweepRunner(workers=1).run(quick_points())
        assert result.payloads() == {"e0": {"value": 0.0},
                                     "e1": {"value": 1.0},
                                     "e2": {"value": 2.0}}
        assert os.listdir(str(scratch_tmp)) == []

    def test_flat_cache_layout_is_served(self, tmp_path):
        """A ``<cache_dir>/<key>.json`` written before the engine change
        is still a hit, and serving it writes nothing."""
        point = quick_points(1)[0]
        key = fingerprint(point)
        SweepCache(str(tmp_path)).store(key, {
            "salt": CODE_VERSION, "name": point.name,
            "evaluator": point.evaluator, "payload": {"value": 42.0},
            "events": 7, "elapsed_s": 1.5})
        result = SweepRunner(workers=1, cache_dir=str(tmp_path)).run([point])
        outcome = result.outcomes[0]
        assert outcome.cached and outcome.payload == {"value": 42.0}
        assert os.listdir(str(tmp_path)) == [f"{key}.json"]

    @pytest.mark.parametrize("runner", ["sweep", "campaign"])
    def test_unfingerprintable_point_is_a_campaign_error(
            self, tmp_path, scratch_tmp, runner):
        bad = SweepPoint(name="bad", arch="stub", workload="wl",
                         evaluator="engine_quick",
                         params={"value": 1, "hook": object()})
        engine = SweepRunner(workers=1) if runner == "sweep" \
            else CampaignRunner(str(tmp_path / "camp"), workers=1)
        with pytest.raises(CampaignError, match="fingerprintable"):
            engine.run([bad])
        assert os.listdir(str(scratch_tmp)) == []

    def test_campaign_width_is_capped_like_a_sweep(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=64)
        runner.run(quick_points())
        assert runner.last_summary.workers \
            == min(64, os.cpu_count() or 1, 3)


def _refuse_replace(src, dst):
    raise OSError("replace refused")


class TestAtomicWrite:
    """A failed write leaves neither the target nor a ``.tmp`` file."""

    def test_manifest_and_points_writes(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "camp")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError, match="replace refused"):
            Campaign.ensure(directory, quick_points())
        monkeypatch.undo()
        assert not os.path.exists(os.path.join(directory, "manifest.json"))
        assert [name for name in os.listdir(directory)
                if ".tmp." in name] == []

    def test_lease_heartbeat(self, tmp_path, monkeypatch):
        queue = LeaseQueue(str(tmp_path / "q"))
        lease = queue.claim("k1", owner="a")
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError, match="replace refused"):
            queue.heartbeat(lease)
        monkeypatch.undo()
        assert os.listdir(queue.directory) == ["k1.lease"]
        assert queue.peek("k1") == lease
