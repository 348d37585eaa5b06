"""End-to-end fault injection: all recovery tiers, sweep determinism."""

import json

from repro.core import SweepRunner, faults_architecture, faults_campaign
from repro.faults import FaultConfig
from repro.host import sequential_read, sequential_write
from repro.kernel import Simulator
from repro.nand import NandGeometry
from repro.ssd import (CachePolicy, SsdArchitecture, SsdDevice, run_workload)

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32, page_bytes=4096,
                         spare_bytes=224)


def run(arch, workload, preload=False):
    sim = Simulator()
    device = SsdDevice(sim, arch)
    if preload:
        device.preload_for_reads()
    result = run_workload(sim, device, workload)
    return device, result


class TestRecoveryTiers:
    def test_all_three_recovery_tiers(self):
        """One campaign exercises the full recovery story:

        * tier 1 — read retries that recover the page,
        * tier 2 — program-fail remaps invisible to the host,
        * tier 3 — uncorrectable reads surfaced as error completions.
        """
        def arch(**fault_overrides):
            faults = FaultConfig(enabled=True, seed=99, **fault_overrides)
            return SsdArchitecture(
                n_channels=2, n_ways=2, dies_per_way=2, n_ddr_buffers=2,
                geometry=SMALL_GEO, dram_refresh=False,
                cache_policy=CachePolicy.NO_CACHING,
                initial_pe_cycles=3000, faults=faults)

        # Tier 2: moderate program-fail rate, remap absorbs every fault.
        writer, write_result = run(
            arch(program_fail_prob=0.1, bit_errors=False),
            sequential_write(4096 * 32))
        assert write_result.remapped_programs > 0
        assert write_result.retired_blocks > 0
        assert write_result.failed_commands == 0
        assert writer.commands_completed == 32

        # Tiers 1 + 3: error draws pinned just above the ECC budget so
        # re-reads sometimes recover the page and sometimes exhaust the
        # ladder.
        reader, read_result = run(
            arch(rber_scale=3.6, retry_rber_scale=1.0, read_retry_max=4),
            sequential_read(4096 * 32), preload=True)
        retry_successes = sum(
            channel.read_retry_success
            for channel in reader.channels)
        assert retry_successes > 0                       # tier 1
        assert read_result.read_retries > 0
        assert read_result.uncorrectable_reads > 0       # tier 3
        assert reader.commands_failed > 0
        assert read_result.uber > 0
        # Failed commands complete (with an error), they don't hang.
        assert (reader.commands_completed + reader.commands_failed) == 32


class TestCampaignDeterminism:
    def test_workers_do_not_change_the_campaign(self):
        """The ISSUE acceptance bar: identical FaultPlan seed implies
        bit-identical UBER / retry / retired-block metrics whether the
        sweep runs serially or on four workers."""
        serial = faults_campaign(
            n_commands=48, seed=77, fractions=[0.9, 1.0],
            runner=SweepRunner(workers=1))
        parallel = faults_campaign(
            n_commands=48, seed=77, fractions=[0.9, 1.0],
            runner=SweepRunner(workers=4))
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        # The campaign exercised the machinery it claims to measure.
        retries = sum(row["read_retries"] for row in serial.values())
        assert retries > 0

    def test_seed_changes_the_campaign(self):
        """At 0.9 of rated endurance the drawn errors sit right at the
        ECC budget, so which reads climb the ladder is seed-dependent."""
        base = faults_campaign(n_commands=48, seed=77, fractions=[0.9],
                               runner=SweepRunner(workers=1))
        other = faults_campaign(n_commands=48, seed=78, fractions=[0.9],
                                runner=SweepRunner(workers=1))
        assert base != other

    def test_faults_architecture_is_reproducible(self):
        assert faults_architecture(seed=5) == faults_architecture(seed=5)
        assert faults_architecture(seed=5) != faults_architecture(seed=6)


class TestFailedPointRows:
    """Crashed campaign points are reported, not silently dropped."""

    class Runner:
        """Serves one crafted failure alongside passthrough successes."""

        def run(self, points):
            from repro.core import PointFailure, PointOutcome
            from repro.core.sweep import SweepResult, SweepSummary
            outcomes = []
            for index, point in enumerate(points):
                if index == 0:
                    outcomes.append(PointOutcome(
                        name=point.name, payload={}, cached=False,
                        events=0, elapsed_s=0.0, key="cafe" * 16,
                        failure=PointFailure(
                            error_type="SimulationError",
                            message="injected for the test")))
                else:
                    outcomes.append(PointOutcome(
                        name=point.name,
                        payload={"sustained_mbps": 100.0,
                                 "reliability": {"read_retries": 1}},
                        cached=False, events=1, elapsed_s=0.0, key=None))
            summary = SweepSummary(total=len(points), cached=0,
                                   simulated=len(points) - 1,
                                   wall_seconds=0.0, simulated_events=1,
                                   workers=1, failed=1)
            return SweepResult(outcomes=outcomes, summary=summary)

    def test_failed_rows_carry_post_mortem(self):
        rows = faults_campaign(n_commands=8, fractions=[1.0],
                               runner=self.Runner())
        statuses = {name: row["status"] for name, row in rows.items()}
        assert "failed" in statuses.values() and "ok" in statuses.values()
        failed = next(row for row in rows.values()
                      if row["status"] == "failed")
        assert failed["error_type"] == "SimulationError"
        assert failed["message"] == "injected for the test"
        assert failed["post_mortem_key"] == "cafe" * 16
        assert "sustained_mbps" not in failed
        ok = next(row for row in rows.values() if row["status"] == "ok")
        assert ok["sustained_mbps"] == 100.0
        assert ok["read_retries"] == 1
