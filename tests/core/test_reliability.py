"""The reliability campaign's byte-identity and estimator tier.

Locks the headline guarantee of ``repro.core.reliability``: the same
grid produces byte-identical estimates whether replicas run serially,
through a 1-worker campaign, a 4-worker campaign, or a campaign whose
worker was SIGKILLed mid-drain and resumed.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (Campaign, CampaignRunner, ParetoEntry,
                        ReliabilityCell, ReliabilityGrid, SweepRunner,
                        aggregate_estimates, entry_frontier, fingerprint,
                        multi_frontier, reliability_frontier, replica_point,
                        replica_points, replica_seed, report_from_campaign,
                        run_reliability_campaign, run_worker,
                        wilson_interval)
from repro.core.sweep import CODE_VERSION
from repro.host import random_write
from repro.kernel import Simulator
from repro.ssd import SsdDevice, run_workload
from tests.ssd.test_fault_recovery import worn_gc_arch

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="SIGKILL choreography requires the fork start method")

TINY = ReliabilityGrid(fractions=(1.0,), spares=(8,), n_commands=24)


def outcome_blob(outcome):
    return json.dumps(outcome.to_dict(), sort_keys=True)


class TestWilson:
    def test_zero_failures_known_value(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        # Closed form at p_hat = 0: z^2 / (n + z^2).
        assert high == pytest.approx(3.8414588 / 23.8414588, rel=1e-6)

    def test_zero_trials_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            wilson_interval(0, -1)

    def test_interval_contains_point_estimate(self):
        import random
        rng = random.Random(42)
        for __ in range(200):
            trials = rng.randrange(1, 500)
            successes = rng.randrange(0, trials + 1)
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_width_shrinks_with_trials(self):
        widths = [wilson_interval(n // 10, n)[1]
                  - wilson_interval(n // 10, n)[0]
                  for n in (10, 100, 1000, 10000)]
        assert widths == sorted(widths, reverse=True)


class TestReplicaSeeding:
    def test_pure_function(self):
        assert replica_seed(1234, "rel/write/1/s8", 7) \
            == replica_seed(1234, "rel/write/1/s8", 7)

    def test_distinct_across_axes(self):
        seeds = {replica_seed(campaign, cell, replica)
                 for campaign in (1, 2)
                 for cell in ("rel/write/1/s8", "rel/read/1/s8")
                 for replica in range(8)}
        assert len(seeds) == 2 * 2 * 8

    def test_replicas_get_distinct_fingerprints(self):
        cell = TINY.cells()[0]
        prints = {fingerprint(replica_point(TINY, cell, replica),
                              CODE_VERSION)
                  for replica in range(6)}
        assert len(prints) == 6

    def test_cell_name_roundtrip(self):
        for cell in ReliabilityGrid().cells():
            assert ReliabilityCell.parse(cell.name) == cell

    def test_replica_points_deterministic_order(self):
        counts = {cell.name: 3 for cell in TINY.cells()}
        names = [point.name for point in replica_points(TINY, counts)]
        assert len(names) == len(set(names)) == 2 * 3
        assert names == [point.name
                         for point in replica_points(TINY, counts)]


def synthetic_payload(failed, commands=100, uncorrectable=0,
                      page_reads=400, mbps=100.0):
    return {
        "commands": commands,
        "sustained_mbps": mbps,
        "reliability": {
            "failed_commands": failed,
            "page_reads": page_reads,
            "uncorrectable_reads": uncorrectable,
            "read_retries": 3,
            "retired_blocks": 1,
            "remapped_programs": 2,
            "background_write_faults": 1,
            "outcomes": {"ok": commands - failed, "uncorrectable": failed},
        },
    }


class TestAggregation:
    def test_pools_counts_and_averages_mbps(self):
        payloads = {
            "rel/write/1/s8/r00000": synthetic_payload(2, mbps=80.0),
            "rel/write/1/s8/r00001": synthetic_payload(4, mbps=120.0),
        }
        estimates = aggregate_estimates(payloads)
        estimate = estimates["rel/write/1/s8"]
        assert estimate.replicas == 2
        assert estimate.commands == 200
        assert estimate.failed_commands == 6
        assert estimate.failed_rate == pytest.approx(0.03)
        assert estimate.read_retries == 6
        assert estimate.outcomes["ok"] == 194
        assert estimate.outcomes["uncorrectable"] == 6
        assert estimate.mean_sustained_mbps == pytest.approx(100.0)
        low, high = estimate.failed_rate_ci
        assert low <= 0.03 <= high

    def test_independent_of_payload_insertion_order(self):
        names = [f"rel/read/0.5/s8/r{i:05d}" for i in range(6)]
        forward = {name: synthetic_payload(i)
                   for i, name in enumerate(names)}
        backward = dict(reversed(list(forward.items())))
        a = aggregate_estimates(forward)["rel/read/0.5/s8"]
        b = aggregate_estimates(backward)["rel/read/0.5/s8"]
        assert a.to_dict() == b.to_dict()

    def test_uber_is_page_level_proportion(self):
        payloads = {"rel/read/1/s8/r00000":
                    synthetic_payload(0, uncorrectable=5, page_reads=500)}
        estimate = aggregate_estimates(payloads)["rel/read/1/s8"]
        assert estimate.uber == pytest.approx(0.01)
        assert estimate.half_width("uber") > 0

    def test_pools_a_run_with_uncorrectable_gc_reads(self):
        # Every page the worn drive's GC reads is lost; the payload's
        # page_reads counts those reads, so the pooled binomial is valid.
        sim = Simulator()
        device = SsdDevice(sim, worn_gc_arch())
        result = run_workload(sim, device, random_write(4096 * 200))
        estimate = aggregate_estimates(
            {"rel/write/1/s8/r00000": result.to_payload()})["rel/write/1/s8"]
        assert estimate.page_reads == estimate.uncorrectable_reads == 259
        assert estimate.uber == 1.0
        low, high = estimate.uber_ci
        assert low < 1.0 == high

    @pytest.mark.parametrize("field", [
        "commands", "sustained_mbps", "reliability",
        "reliability.failed_commands",
        "reliability.page_reads", "reliability.uncorrectable_reads",
        "reliability.read_retries", "reliability.retired_blocks",
        "reliability.remapped_programs",
        "reliability.background_write_faults", "reliability.outcomes"])
    def test_missing_field_names_point_and_field(self, field):
        payload = synthetic_payload(1)
        *section, key = field.split(".")
        del (payload[section[0]] if section else payload)[key]
        payloads = {"rel/read/1/s8/r00000": synthetic_payload(0),
                    "rel/read/1/s8/r00001": payload}
        with pytest.raises(ValueError) as error:
            aggregate_estimates(payloads)
        assert str(error.value) == (
            f"replica 'rel/read/1/s8/r00001': payload has no {field!r} field")

    def test_rejects_non_replica_names(self):
        with pytest.raises(ValueError):
            aggregate_estimates({"fig3/C1": synthetic_payload(0)})


class TestMultiFrontier:
    def test_two_objectives_match_entry_frontier(self):
        import random
        rng = random.Random(9)
        entries = [ParetoEntry(name=f"p{i}", cost=rng.randrange(10),
                               value=rng.randrange(10)) for i in range(40)]
        expected = {entry.name for entry in entry_frontier(entries)}
        got = {entry.name for entry in multi_frontier(
            entries, objectives=(lambda e: -e.cost, lambda e: e.value),
            name=lambda e: e.name)}
        assert got == expected

    def test_third_objective_rescues_dominated_point(self):
        """A slower-but-thriftier cell survives once spares count."""
        rows = [("fat", 200.0, 0.0, 16), ("thin", 150.0, 0.0, 8)]
        two = multi_frontier(
            rows, objectives=(lambda r: r[1], lambda r: -r[2]),
            name=lambda r: r[0])
        assert [r[0] for r in two] == ["fat"]
        three = multi_frontier(
            rows, objectives=(lambda r: r[1], lambda r: -r[2],
                              lambda r: -float(r[3])),
            name=lambda r: r[0])
        assert sorted(r[0] for r in three) == ["fat", "thin"]

    def test_reliability_frontier_prefers_dominators(self):
        payloads = {
            "rel/write/1/s8/r00000": synthetic_payload(10, mbps=50.0),
            "rel/read/1/s8/r00000": synthetic_payload(0, mbps=90.0),
        }
        estimates = aggregate_estimates(payloads)
        assert reliability_frontier(estimates) == ["rel/read/1/s8"]


class FakeResult:
    """Duck-typed SweepResult: enough for the stopping-rule driver."""

    def __init__(self, payloads):
        self._payloads = payloads

    def payloads(self):
        return dict(self._payloads)

    def failures(self):
        return []


class FakeRunner:
    """Serves synthetic payloads and records the batch schedule."""

    def __init__(self, failed_per_replica=0):
        self.failed = failed_per_replica
        self.run_calls = []

    def run(self, points):
        self.run_calls.append([point.name for point in points])
        return FakeResult({point.name: synthetic_payload(self.failed)
                           for point in points})


class TestStoppingRule:
    def test_no_target_single_batch(self):
        runner = FakeRunner()
        outcome = run_reliability_campaign(grid=TINY, runner=runner,
                                           replicas=5)
        assert outcome.batches == 1
        assert len(runner.run_calls) == 1
        assert all(count == 5 for count in outcome.scheduled.values())
        assert not any(outcome.converged.values())

    def test_stops_at_ci_target(self):
        """Zero failures out of 100 commands per replica: the Wilson
        half-width crosses 0.01 between 1 and 2 replicas, so every cell
        should stop at 2 of the 8 budgeted."""
        runner = FakeRunner(failed_per_replica=0)
        outcome = run_reliability_campaign(
            grid=TINY, runner=runner, replicas=8, batch=1,
            target_half_width=0.01)
        assert outcome.batches == 2
        assert all(count == 2 for count in outcome.scheduled.values())
        assert all(outcome.converged.values())

    def test_budget_exhaustion_leaves_unconverged(self):
        runner = FakeRunner(failed_per_replica=50)
        outcome = run_reliability_campaign(
            grid=TINY, runner=runner, replicas=4, batch=2,
            target_half_width=1e-6)
        assert outcome.batches == 2
        assert all(count == 4 for count in outcome.scheduled.values())
        assert not any(outcome.converged.values())

    def test_batches_resubmit_cumulative_points(self):
        """Each batch resubmits every scheduled replica — the idempotent
        replay that makes crash-resume schedules identical."""
        runner = FakeRunner()
        run_reliability_campaign(grid=TINY, runner=runner, replicas=4,
                                 batch=2, target_half_width=1e-6)
        first, second = runner.run_calls
        assert set(first) <= set(second)
        assert len(second) == 2 * len(first)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_reliability_campaign(grid=TINY, runner=FakeRunner(),
                                     replicas=0)
        with pytest.raises(ValueError):
            run_reliability_campaign(grid=TINY, runner=FakeRunner(),
                                     metric="latency")


class TestByteIdentity:
    """The acceptance tier: real simulations, real campaign directories."""

    REPLICAS = 3

    def reference(self):
        if not hasattr(TestByteIdentity, "_reference"):
            TestByteIdentity._reference = run_reliability_campaign(
                grid=TINY, runner=SweepRunner(workers=1),
                replicas=self.REPLICAS)
        return TestByteIdentity._reference

    def test_serial_runner_is_deterministic(self):
        again = run_reliability_campaign(grid=TINY,
                                         runner=SweepRunner(workers=1),
                                         replicas=self.REPLICAS)
        assert outcome_blob(again) == outcome_blob(self.reference())

    def test_campaign_workers_1_vs_4(self, tmp_path):
        one = run_reliability_campaign(
            grid=TINY, runner=CampaignRunner(str(tmp_path / "w1"),
                                             workers=1),
            replicas=self.REPLICAS)
        four = run_reliability_campaign(
            grid=TINY, runner=CampaignRunner(str(tmp_path / "w4"),
                                             workers=4),
            replicas=self.REPLICAS)
        reference = outcome_blob(self.reference())
        assert outcome_blob(one) == reference
        assert outcome_blob(four) == reference

    def test_report_agrees_with_run(self, tmp_path):
        directory = str(tmp_path / "campaign")
        ran = run_reliability_campaign(
            grid=TINY, runner=CampaignRunner(directory, workers=2),
            replicas=self.REPLICAS)
        reported = report_from_campaign(directory)
        assert json.dumps({name: estimate.to_dict() for name, estimate
                           in sorted(reported.estimates.items())},
                          sort_keys=True) \
            == json.dumps({name: estimate.to_dict() for name, estimate
                           in sorted(ran.estimates.items())},
                          sort_keys=True)
        assert reported.frontier == ran.frontier
        assert reported.scheduled == ran.scheduled

    @fork_only
    def test_sigkill_resume_byte_identical(self, tmp_path):
        """Kill a worker mid-drain; the resumed campaign must land on
        the same bytes as an undisturbed run."""
        directory = str(tmp_path / "killed")
        counts = {cell.name: self.REPLICAS for cell in TINY.cells()}
        points = replica_points(TINY, counts)
        campaign = Campaign.ensure(directory, points)

        context = multiprocessing.get_context("fork")
        worker = context.Process(target=run_worker, args=(directory,),
                                 kwargs={"points": points}, daemon=True)
        worker.start()
        deadline = time.time() + 120
        while time.time() < deadline:
            if campaign.status().published >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("worker published nothing before the deadline")
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=30)

        resumed = run_reliability_campaign(
            grid=TINY,
            runner=CampaignRunner(directory, workers=1, lease_ttl_s=0.5),
            replicas=self.REPLICAS)
        assert outcome_blob(resumed) == outcome_blob(self.reference())
