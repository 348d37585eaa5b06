"""One lease keeper per drain.

A drain starts one :class:`~repro.core.lease.LeaseKeeper` thread and
hands it each lease it claims.  While a point simulates for longer than
the lease TTL, the keeper must keep its expiry ahead of the clock, so no
other worker reaps the live point, and one thread must serve every
point of the drain.
"""

import threading
import time

from repro.core import sweep
from repro.core.campaign import Campaign, CampaignRunner
from repro.core.lease import LeaseKeeper, LeaseQueue
from repro.core.sweep import SweepPoint
from repro.host import sequential_write
from repro.ssd import SsdArchitecture

TTL_S = 0.4


def keepers():
    return [thread for thread in threading.enumerate()
            if thread.name == "lease-keeper" and thread.is_alive()]


def test_one_keeper_heartbeats_every_point_of_a_drain(tmp_path, monkeypatch):
    directory = str(tmp_path / "campaign")
    seen = []

    def sleepy(point):
        queue_dir = Campaign(directory).queue_dir
        observer = LeaseQueue(queue_dir, ttl_s=TTL_S)
        (held,) = observer.active().values()
        time.sleep(1.5 * TTL_S)
        renewed = observer.peek(held.key)
        seen.append({"first": held.expires_unix,
                     "later": renewed.expires_unix if renewed else None,
                     "now": time.time(),
                     "reaped": observer.reap_expired(),
                     "keepers": len(keepers())})
        return {"point": point.name}, 1

    monkeypatch.setitem(sweep.EVALUATORS, "sleepy", sleepy)
    points = [SweepPoint(name=f"p{index}", arch=SsdArchitecture(),
                         workload=sequential_write(4096), evaluator="sleepy",
                         params={"index": index}) for index in range(3)]
    before = len(keepers())
    result = CampaignRunner(directory, workers=1, lease_ttl_s=TTL_S,
                            name="keeper").run(points)

    assert result.summary.failed == 0 and result.summary.simulated == 3
    assert len(seen) == 3
    for observed in seen:
        assert observed["later"] is not None
        assert observed["later"] > observed["first"]
        assert observed["later"] > observed["now"]  # still live
        assert observed["reaped"] == []
        assert observed["keepers"] == before + 1
    assert len(keepers()) == before  # joined when the drain returned
    assert LeaseQueue(Campaign(directory).queue_dir).active() == {}


def test_released_lease_is_never_rewritten(tmp_path):
    queue = LeaseQueue(str(tmp_path / "queue"), ttl_s=0.2)
    with LeaseKeeper(queue) as keeper:
        lease = queue.claim("k" * 64)
        keeper.hold(lease)
        time.sleep(0.12)  # at least one heartbeat at TTL/4
        assert queue.peek(lease.key).expires_unix > lease.expires_unix
        keeper.hold(None)
        queue.release(lease)
        time.sleep(0.12)
        assert queue.peek(lease.key) is None
