"""Tenant layer units: generators, specs, namespaces, runtime binding."""

import os

import pytest

from repro.host.commands import IoOpcode, SECTOR_BYTES
from repro.host.tenants import (TENANT_WORKLOADS, TenantSpec, build_tenants,
                                kv_store_workload, page_io_workload,
                                partition_namespaces, tenant_commands)

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SAMPLE = os.path.join(REPO_ROOT, "examples", "sample_msr.csv")


def shape(commands):
    return [(c.opcode, c.lba, c.sectors) for c in commands]


# ----------------------------------------------------------------------
# App-shaped generators


def test_kv_workload_is_deterministic_and_bounded():
    first = kv_store_workload(500, span_bytes=1 << 22, seed=42).to_list()
    second = kv_store_workload(500, span_bytes=1 << 22, seed=42).to_list()
    assert shape(first) == shape(second)
    assert shape(first) != shape(
        kv_store_workload(500, span_bytes=1 << 22, seed=43).to_list())
    span_sectors = (1 << 22) // SECTOR_BYTES
    assert all(c.lba + c.sectors <= span_sectors for c in first)
    assert len(first) == 500


def test_kv_workload_respects_read_fraction_and_hot_skew():
    commands = kv_store_workload(4000, span_bytes=1 << 24,
                                 read_fraction=0.8).to_list()
    reads = sum(1 for c in commands if c.opcode is IoOpcode.READ)
    assert 0.7 <= reads / len(commands) <= 0.9
    # 87.5% of ops target the 12.5% hot head of the key space.
    value_sectors = 4096 // SECTOR_BYTES
    n_keys = (1 << 24) // 4096
    hot_limit = int(n_keys * 0.125) * value_sectors
    hot = sum(1 for c in commands if c.lba < hot_limit)
    assert hot / len(commands) >= 0.75


def test_kv_workload_validation():
    with pytest.raises(ValueError, match="n_ops"):
        kv_store_workload(0)
    with pytest.raises(ValueError, match="read_fraction"):
        kv_store_workload(10, read_fraction=1.5)
    with pytest.raises(ValueError, match="hot_fraction"):
        kv_store_workload(10, hot_fraction=0.0)


def test_page_io_commit_shape():
    commits = 40
    commands = page_io_workload(commits, pages_per_commit=3,
                                span_bytes=1 << 22).to_list()
    assert len(commands) == commits * 5     # journal + 3 pages + 1 read
    page_sectors = 4096 // SECTOR_BYTES
    total_pages = (1 << 22) // 4096
    journal_pages = max(1, int(total_pages * 0.0625))
    for commit in range(commits):
        group = commands[commit * 5:(commit + 1) * 5]
        journal, pages, read = group[0], group[1:4], group[4]
        assert journal.opcode is IoOpcode.WRITE
        assert journal.lba < journal_pages * page_sectors
        assert all(p.opcode is IoOpcode.WRITE
                   and p.lba >= journal_pages * page_sectors for p in pages)
        assert read.opcode is IoOpcode.READ
    with pytest.raises(ValueError, match="journal_fraction"):
        page_io_workload(4, journal_fraction=1.0)


# ----------------------------------------------------------------------
# Specs


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown tenant workload"):
        TenantSpec(name="t", workload="zipf")
    with pytest.raises(ValueError, match="queue_depth"):
        TenantSpec(name="t", queue_depth=0)
    with pytest.raises(ValueError, match="weight"):
        TenantSpec(name="t", weight=0)
    with pytest.raises(ValueError, match="multiple"):
        TenantSpec(name="t", block_bytes=100)
    with pytest.raises(ValueError, match="trace_path"):
        TenantSpec(name="t", workload="trace")
    with pytest.raises(ValueError, match="non-empty"):
        TenantSpec(name="")
    assert "trace" in TENANT_WORKLOADS


def test_trace_spec_canonical_form_uses_content_hash_not_path():
    spec = TenantSpec.from_trace("t", SAMPLE, n_commands=8)
    assert spec.trace_sha256
    body = spec.__canonical__()
    assert "trace_path" not in body
    assert body["trace_sha256"] == spec.trace_sha256
    # Pathless synthetic specs keep the (empty) path in the fingerprint.
    assert "trace_path" in TenantSpec(name="s").__canonical__()


def test_tenant_commands_rebase_and_open_loop_pacing():
    spec = TenantSpec(name="t", workload="RR", n_commands=16,
                      span_bytes=1 << 20, rate_iops=1000.0, phase_ps=7)
    zero_based, pattern = tenant_commands(spec, base_lba=0)
    rebased, __ = tenant_commands(spec, base_lba=4096)
    assert pattern == "random"
    assert [c.lba + 4096 for c in zero_based] == [c.lba for c in rebased]
    interval = int(1e12 / 1000.0)
    assert [c.issue_time_ps for c in zero_based] \
        == [7 + i * interval for i in range(16)]


def test_trace_tenant_keeps_interarrivals_rebased_to_phase():
    spec = TenantSpec.from_trace("t", SAMPLE, n_commands=10,
                                 phase_ps=1000)
    commands, __ = tenant_commands(spec)
    assert len(commands) == 10
    assert commands[0].issue_time_ps == 1000
    times = [c.issue_time_ps for c in commands]
    assert times == sorted(times)


# ----------------------------------------------------------------------
# Namespaces


def test_partitions_are_contiguous_in_spec_order():
    specs = [TenantSpec(name="a", span_bytes=1 << 20),
             TenantSpec(name="b", span_bytes=1 << 21),
             TenantSpec(name="c", span_bytes=1 << 20)]
    partitions = partition_namespaces(specs)
    assert partitions[0].base_lba == 0
    for left, right in zip(partitions, partitions[1:]):
        assert right.base_lba == left.end_lba
    assert [p.sectors for p in partitions] \
        == [s.span_sectors for s in specs]
    assert all(p.channels == () for p in partitions)


def test_channel_isolation_slices_are_disjoint_and_cover():
    specs = [TenantSpec(name=f"t{i}") for i in range(3)]
    partitions = partition_namespaces(specs, n_channels=8,
                                      isolate_channels=True)
    slices = [p.channels for p in partitions]
    assert slices[:2] == [(0, 1), (2, 3)]
    assert slices[2] == (4, 5, 6, 7)    # remainder goes to the last
    flat = [c for channels in slices for c in channels]
    assert sorted(flat) == list(range(8))
    with pytest.raises(ValueError, match="cannot isolate"):
        partition_namespaces(specs, n_channels=2, isolate_channels=True)


# ----------------------------------------------------------------------
# Runtime binding


def test_build_tenants_validates_the_set():
    with pytest.raises(ValueError, match="at least one tenant"):
        build_tenants([])
    with pytest.raises(ValueError, match="unique"):
        build_tenants([TenantSpec(name="t"), TenantSpec(name="t")])
    with pytest.raises(ValueError, match="uniformly"):
        build_tenants([TenantSpec(name="a"),
                       TenantSpec(name="b", rate_iops=100.0)])


def test_build_tenants_assigns_qids_and_rebases_streams():
    specs = [TenantSpec(name="a", workload="SW", n_commands=4,
                        span_bytes=1 << 20, queue_depth=4),
             TenantSpec(name="b", workload="SW", n_commands=4,
                        span_bytes=1 << 20, queue_depth=4)]
    tenants = build_tenants(specs)
    assert [t.name for t in tenants] == ["a", "b"]
    base = tenants[1].partition.base_lba
    assert base == specs[0].span_sectors
    assert all(c.lba >= base for c in tenants[1].commands)
    assert all(c.lba < base for c in tenants[0].commands)
