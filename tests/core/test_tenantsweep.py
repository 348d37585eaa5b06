"""Tenant sweep: byte-identity tier, determinism, interference.

The acceptance contracts pinned here:

* a single tenant run is **byte-identical** to the plain
  single-initiator ``run_workload`` path — the merge of one stream *is*
  that stream, and the tenant machinery adds no simulated work;
* the ``tenants`` evaluator is registered and fingerprintable, and its
  payloads are deterministic: workers=1 vs workers=4 byte-identical,
  and byte-identical again after a worker is SIGKILLed mid-drain and
  the campaign resumed;
* the noisy-neighbor matrix is exactly symmetric-zero when tenants
  target disjoint idle channels — paced far apart in time on isolated
  channel sets, nobody inflates anybody.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.campaign import Campaign, CampaignRunner, run_worker
from repro.core.sweep import EVALUATORS, SweepRunner, fingerprint
from repro.core.tenantsweep import (default_tenant_set,
                                    evaluate_tenants_point,
                                    interference_matrix, run_tenant_mix,
                                    tenant_sweep, tenant_sweep_points,
                                    tenant_sweep_table,
                                    tenants_base_architecture)
from repro.host.tenants import TenantSpec, tenant_commands
from repro.host.workload import CommandListWorkload
from repro.kernel import Simulator
from repro.ssd.device import SsdDevice
from repro.ssd.metrics import run_workload

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="SIGKILL choreography requires the fork start method")

SOLO = TenantSpec(name="t0", workload="RR", n_commands=48,
                  block_bytes=4096, span_bytes=1 << 22, weight=1,
                  queue_depth=8, seed=0xC0FFEE)


def canonical(document):
    return json.dumps(document, sort_keys=True)


# ----------------------------------------------------------------------
# Byte-identity: one tenant degenerates to the single-initiator path


def test_single_tenant_byte_identical_to_run_workload():
    arch = tenants_base_architecture()
    payload, __ = run_tenant_mix(arch, [SOLO], policy="rr", label="solo")
    aggregate = dict(payload["aggregate"])
    aggregate["wall_seconds"] = 0.0

    sim = Simulator()
    device = SsdDevice(sim, arch)
    device.preload_for_reads()
    commands, pattern = tenant_commands(SOLO, base_lba=0)
    reference = run_workload(sim, device,
                             CommandListWorkload(commands, pattern=pattern),
                             label="solo",
                             honor_issue_times=False).to_dict()
    reference["wall_seconds"] = 0.0
    assert canonical(aggregate) == canonical(reference)


def test_single_tenant_identity_holds_under_both_policies():
    arch = tenants_base_architecture()
    rr, __ = run_tenant_mix(arch, [SOLO], policy="rr", label="solo")
    wrr, __ = run_tenant_mix(arch, [SOLO], policy="wrr", label="solo")
    rr["aggregate"]["wall_seconds"] = 0.0
    wrr["aggregate"]["wall_seconds"] = 0.0
    assert canonical(rr["aggregate"]) == canonical(wrr["aggregate"])


def test_single_tenant_percentiles_match_aggregate():
    # One tenant's commands are the whole run's commands, so its tail
    # percentiles come out of the same nearest-rank rule as the
    # aggregate's.
    arch = tenants_base_architecture()
    payload, __ = run_tenant_mix(arch, [SOLO], policy="rr", label="solo")
    (row,) = payload["tenants"]
    aggregate = payload["aggregate"]["latency_us"]
    assert row["commands"] == payload["aggregate"]["commands"]
    assert row["latency_us"]["p50"] == aggregate["p50"]
    assert row["latency_us"]["p99"] == aggregate["p99"]


# ----------------------------------------------------------------------
# Sweep wiring


def test_tenants_evaluator_is_registered():
    assert "tenants" in EVALUATORS


def test_grid_names_and_fingerprints():
    points = tenant_sweep_points(counts=[1, 2])
    assert [p.name for p in points] == ["t1-rr", "t1-wrr", "t2-rr",
                                        "t2-wrr"]
    prints = [fingerprint(point, "salt") for point in points]
    assert len(set(prints)) == len(points)    # policy joins the identity
    assert prints == [fingerprint(point, "salt") for point in points]


def test_evaluator_is_deterministic_in_process():
    point = tenant_sweep_points(counts=[2])[0]
    first, first_events = evaluate_tenants_point(point)
    second, second_events = evaluate_tenants_point(point)
    assert canonical(first) == canonical(second)
    assert first_events == second_events
    assert first["aggregate"]["wall_seconds"] == 0.0
    assert first["n_tenants"] == 2
    assert len(first["tenants"]) == 2
    assert first["interference"]["tenants"] == ["t0", "t1"]
    for row in first["tenants"]:
        latency = row["latency_us"]
        assert latency["p50"] <= latency["p99"] <= latency["p999"] \
            <= latency["p9999"]
        assert 0.0 <= row["achieved_share"] <= 1.0


def test_sweep_table_flattens_per_tenant_rows():
    payloads = tenant_sweep(counts=[2], policies=["wrr"],
                            runner=SweepRunner(workers=1))
    rows = tenant_sweep_table(payloads)
    assert [row["tenant"] for row in rows] == ["t0", "t1"]
    for row in rows:
        assert row["point"] == "t2-wrr"
        assert row["policy"] == "wrr"
        assert row["worst_neighbor_inflation"] is not None
    # Weighted demand: t1 (weight 2) demands twice t0's share.
    assert rows[0]["demanded_share"] == pytest.approx(1.0 / 3.0)
    assert rows[1]["demanded_share"] == pytest.approx(2.0 / 3.0)


def test_demanded_share_is_the_capped_wrr_burst_fraction():
    # Weight 4 at queue depth 2 admits bursts of 2, not 4: demand is
    # each tenant's burst over the sum of bursts, as merge_tenants
    # serves it, not the raw weight fraction [0.8, 0.2].
    specs = [TenantSpec(name="a", workload="SW", n_commands=8,
                        span_bytes=1 << 20, weight=4, queue_depth=2),
             TenantSpec(name="b", workload="SW", n_commands=8,
                        span_bytes=1 << 20, weight=1, queue_depth=8)]
    payload, __ = run_tenant_mix(tenants_base_architecture(), specs,
                                 policy="wrr")
    assert [row["demanded_share"] for row in payload["tenants"]] \
        == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


@pytest.mark.slow
def test_sweep_identical_workers_1_vs_4():
    serial = tenant_sweep(counts=[1, 2], runner=SweepRunner(workers=1))
    parallel = tenant_sweep(counts=[1, 2], runner=SweepRunner(workers=4))
    assert serial, "sweep produced no successful points"
    assert canonical(serial) == canonical(parallel)


@pytest.mark.slow
@fork_only
def test_sigkill_resume_byte_identical(tmp_path):
    """Kill a campaign worker mid-drain; the resumed sweep must land on
    the same bytes as an undisturbed workers=1 run."""
    reference = tenant_sweep(counts=[1, 2],
                             runner=SweepRunner(workers=1))
    points = tenant_sweep_points(counts=[1, 2])
    directory = str(tmp_path / "killed")
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

    resumed = tenant_sweep(counts=[1, 2],
                           runner=CampaignRunner(directory, workers=1,
                                                 lease_ttl_s=0.5))
    assert canonical(resumed) == canonical(reference)


# ----------------------------------------------------------------------
# Interference matrix


def test_interference_is_symmetric_zero_on_disjoint_idle_channels():
    """Two paced read tenants, isolated channel sets, arrival phases
    half a millisecond apart: nobody shares anything, so every cell of
    the noisy-neighbor matrix must be *exactly* zero."""
    arch = tenants_base_architecture()
    specs = [TenantSpec(name="a", workload="RR", n_commands=24,
                        span_bytes=1 << 22, queue_depth=4,
                        rate_iops=1000.0, phase_ps=0, seed=1),
             TenantSpec(name="b", workload="RR", n_commands=24,
                        span_bytes=1 << 22, queue_depth=4,
                        rate_iops=1000.0, phase_ps=500_000_000, seed=2)]
    matrix, events = interference_matrix(arch, specs, policy="rr",
                                         isolate_channels=True)
    assert matrix["tenants"] == ["a", "b"]
    assert matrix["inflation"] == [[0.0, 0.0], [0.0, 0.0]]
    assert matrix["gc_attributed_us"] == [[0.0, 0.0], [0.0, 0.0]]
    assert events > 0


def test_contending_tenants_inflate_each_other():
    """The control for the zero case: the same pacing *without* channel
    isolation shares dies, so at least one pairing must inflate."""
    arch = tenants_base_architecture()
    specs = default_tenant_set(2)
    matrix, __ = interference_matrix(arch, specs, policy="rr")
    cells = [matrix["inflation"][i][j]
             for i in range(2) for j in range(2) if i != j]
    assert any(cell > 0.0 for cell in cells)
    assert all(matrix["inflation"][i][i] == 0.0 for i in range(2))


def test_default_tenant_set_shapes():
    specs = default_tenant_set(3)
    assert [s.name for s in specs] == ["t0", "t1", "t2"]
    assert [s.weight for s in specs] == [1, 2, 3]
    assert len({s.seed for s in specs}) == 3
    with pytest.raises(ValueError, match=">= 1"):
        default_tenant_set(0)
