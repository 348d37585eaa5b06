"""Campaign queue + manifest semantics: leases, resume, summary counts.

The lease table is the campaign engine's concurrency primitive; these
tests pin its contract — exclusive claim, heartbeat renewal, expiry
reaping *exactly once* under racing reapers — plus the manifest
create / verify / extend rules and the satellite fix that a resumed
campaign reports served points as ``cached``, never ``simulated``.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.core import (Campaign, CampaignError, CampaignRunner, Lease,
                        LeaseQueue, SweepPoint, SweepRunner, fingerprint)
from repro.core import sweep as sweep_module
from repro.host import sequential_write
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)


def tiny_arch(**overrides):
    base = dict(n_channels=2, n_ddr_buffers=2, n_ways=2, dies_per_way=2,
                geometry=SMALL_GEO, dram_refresh=False)
    base.update(overrides)
    return SsdArchitecture(**base)


def _eval_quick(point):
    """Deterministic synthetic evaluator: payload derived from params."""
    value = float(point.params.get("value", 0))
    return {"value": value * 2, "latency_us": {"p99": 100.0 - value}}, 1


def _eval_broken(point):
    raise RuntimeError("broken point")


sweep_module.EVALUATORS.setdefault("test_quick", _eval_quick)
sweep_module.EVALUATORS.setdefault("test_broken", _eval_broken)


def quick_point(name, value=1.0, evaluator="test_quick"):
    return SweepPoint(name=name, arch=tiny_arch(),
                      workload=sequential_write(4096 * 10),
                      evaluator=evaluator, params={"value": value})


def quick_points(n):
    return [quick_point(f"q{i}", value=float(i)) for i in range(n)]


class TestLeaseQueue:
    def test_claim_is_exclusive(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"))
        lease = queue.claim("k1", owner="a")
        assert lease is not None and lease.owner == "a"
        assert queue.claim("k1", owner="b") is None
        # Other keys are independent.
        assert queue.claim("k2", owner="b") is not None

    def test_release_reopens_the_key(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"))
        lease = queue.claim("k1")
        queue.release(lease)
        assert queue.claim("k1") is not None

    def test_heartbeat_extends_expiry(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=5.0)
        lease = queue.claim("k1", owner="a")
        renewed = queue.heartbeat(lease)
        assert renewed is not None
        assert renewed.expires_unix >= lease.expires_unix
        assert queue.peek("k1").owner == "a"

    def test_heartbeat_after_loss_returns_none(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=5.0)
        lease = queue.claim("k1", owner="a")
        queue.release(lease)
        other = queue.claim("k1", owner="b")
        assert other is not None
        # The original owner's heartbeat must not clobber b's claim.
        assert queue.heartbeat(lease) is None
        assert queue.peek("k1").owner == "b"

    def test_active_hides_expired_leases(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=0.05)
        queue.claim("k1")
        assert "k1" in queue.active()
        time.sleep(0.1)
        assert queue.active() == {}

    def test_expired_lease_requeued_exactly_once(self, tmp_path):
        """N racing reapers → exactly one wins each orphaned key."""
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=0.05)
        for i in range(5):
            assert queue.claim(f"k{i}") is not None
        time.sleep(0.1)  # all five leases expire

        reaped, lock = [], threading.Lock()

        def reaper():
            # Each thread needs its own queue (the tombstone counter is
            # per-instance), like real independent worker processes.
            mine = LeaseQueue(str(tmp_path / "q"), ttl_s=0.05)
            got = mine.reap_expired()
            with lock:
                reaped.extend(got)

        threads = [threading.Thread(target=reaper) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly once each: no key lost, no key double-reaped.
        assert sorted(reaped) == [f"k{i}" for i in range(5)]
        # And the keys are claimable again.
        assert queue.claim("k0") is not None

    def test_unexpired_leases_not_reaped(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=60.0)
        queue.claim("k1")
        assert queue.reap_expired() == []
        assert queue.claim("k1") is None

    def test_reap_dead_recovers_killed_owner(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=3600.0)
        context = multiprocessing.get_context("fork")
        child = context.Process(target=lambda: queue.claim("k1"))
        child.start()
        child.join()
        assert queue.peek("k1") is not None  # orphan from the dead child
        assert queue.reap_expired() == []    # TTL far in the future...
        assert queue.reap_dead() == ["k1"]   # ...but the pid is gone
        assert queue.claim("k1") is not None

    def test_claim_cut_short_leaves_no_lease(self, tmp_path, monkeypatch):
        """A claimer dying mid-write must not strand the point behind a
        half-written lease that neither reaper can parse."""
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=3600.0)

        def dump_then_die(document, handle):
            handle.write(json.dumps(document)[:7])
            raise SystemExit("killed mid-claim")

        monkeypatch.setattr(json, "dump", dump_then_die)
        with pytest.raises(SystemExit):
            queue.claim("k1", owner="a")
        monkeypatch.undo()
        assert not os.path.exists(os.path.join(queue.directory, "k1.lease"))
        assert queue.claim("k1", owner="b").owner == "b"

    def test_reap_dead_spares_live_owners(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"), ttl_s=3600.0)
        queue.claim("k1")  # owned by this (very alive) process
        assert queue.reap_dead() == []


class TestCampaignManifest:
    def test_ensure_creates_and_reopens(self, tmp_path):
        directory = str(tmp_path / "camp")
        points = quick_points(3)
        first = Campaign.ensure(directory, points, name="t")
        assert first.exists
        manifest = first.load_manifest()
        assert [entry["name"] for entry in manifest["points"]] \
            == ["q0", "q1", "q2"]
        # Re-ensuring with the same grid is the resume no-op.
        again = Campaign.ensure(directory, points, name="t")
        assert again.load_manifest() == manifest
        assert [p.name for p in again.load_points()] == ["q0", "q1", "q2"]

    def test_ensure_extends_with_new_points(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.ensure(directory, quick_points(2), name="t")
        extended = Campaign.ensure(
            directory, quick_points(2) + [quick_point("extra")], name="t")
        names = [entry["name"] for entry in
                 extended.load_manifest()["points"]]
        assert names == ["q0", "q1", "extra"]
        assert [p.name for p in extended.load_points()] == names

    def test_same_name_different_fingerprint_rejected(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.ensure(directory, [quick_point("q0", value=0.0)])
        with pytest.raises(CampaignError, match="different fingerprint"):
            Campaign.ensure(directory, [quick_point("q0", value=99.0)])

    def test_salt_mismatch_rejected(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.ensure(directory, quick_points(1), salt="sweep-4")
        with pytest.raises(CampaignError, match="salt"):
            Campaign.ensure(directory, quick_points(1), salt="sweep-5")

    def test_unfingerprintable_point_rejected(self, tmp_path):
        bad = SweepPoint(name="bad", arch=tiny_arch(),
                         workload=sequential_write(4096 * 10),
                         evaluator="test_quick",
                         params={"unhashable": object()})
        with pytest.raises(CampaignError, match="fingerprintable"):
            Campaign.ensure(str(tmp_path / "camp"), [bad])

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            Campaign.open(str(tmp_path / "nope"))


class TestResumeCounts:
    """Satellite fix: cached / simulated / failed are disjoint and a
    warm-cache resume never reports cached points as 'simulated'."""

    def test_campaign_resume_reports_cached(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1)
        first = runner.run(quick_points(4))
        assert (first.summary.cached, first.summary.simulated,
                first.summary.failed) == (0, 4, 0)
        second = runner.run(quick_points(4))
        assert (second.summary.cached, second.summary.simulated,
                second.summary.failed) == (4, 0, 0)
        # Payload identity across the resume (served from the cache).
        assert [o.payload for o in first.outcomes] \
            == [o.payload for o in second.outcomes]
        assert all(o.cached for o in second.outcomes)

    def test_sweeprunner_counts_are_disjoint(self, tmp_path):
        points = quick_points(2) + [quick_point("bad",
                                                evaluator="test_broken")]
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path / "cache"))
        result = runner.run(points)
        summary = result.summary
        assert (summary.cached, summary.simulated, summary.failed) \
            == (0, 2, 1)
        assert summary.cached + summary.simulated + summary.failed \
            == summary.total
        # "2 simulated" and "1 FAILED", never "3 simulated".
        assert "3 simulated" not in summary.format()

    def test_campaign_counts_are_disjoint_with_failures(self, tmp_path):
        points = quick_points(2) + [quick_point("bad",
                                                evaluator="test_broken")]
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1)
        summary = runner.run(points).summary
        assert (summary.cached, summary.simulated, summary.failed) \
            == (0, 2, 1)
        # Resume: successes served from the campaign, the failure re-run.
        summary = runner.run(points).summary
        assert (summary.cached, summary.simulated, summary.failed) \
            == (2, 0, 1)
        assert summary.cached + summary.simulated + summary.failed \
            == summary.total


class TestCampaignStatus:
    def test_status_counts_published_and_failed(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1)
        runner.run(quick_points(3) + [quick_point(
            "bad", evaluator="test_broken")])
        status = Campaign.open(str(tmp_path / "camp")).status()
        assert (status.total, status.published, status.failed,
                status.pending) == (4, 3, 1, 0)
        assert "3 published" in status.format()

    def test_store_indexed_on_publish(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1,
                                name="t")
        runner.run(quick_points(2))
        campaign = Campaign.open(str(tmp_path / "camp"))
        with campaign.store() as store:
            assert store.status_counts("t") == {"ok": 2, "failed": 0}
            metrics = store.metrics("t")
            assert metrics["q1"]["value"] == 2.0
            assert metrics["q1"]["latency_us.p99"] == 99.0
