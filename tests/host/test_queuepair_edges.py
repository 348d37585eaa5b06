"""Submission-queue edge cases: depth bounds, arbitration inputs,
minimal queues.

The contract: a tenant's usable queue depth is bounded to NVMe's
1..65535 slots, malformed arbitration inputs are rejected before any
command is admitted, and depth-1 queues still interleave correctly under
weighted arbitration (a burst larger than the queue forfeits, it does
not deadlock).
"""

import pytest

from repro.host.tenants import (TenantSpec, arbitration_burst, build_tenants,
                                merge_tenants)


def test_depth_bounds_are_enforced():
    with pytest.raises(ValueError, match="1..65535"):
        TenantSpec(name="t", queue_depth=0)
    with pytest.raises(ValueError, match="1..65535"):
        TenantSpec(name="t", queue_depth=65536)
    assert arbitration_burst(TenantSpec(name="t", weight=70000,
                                        queue_depth=65535), "wrr") == 65535


def test_arbiter_validation_errors():
    with pytest.raises(ValueError, match="at least one tenant"):
        build_tenants([])
    with pytest.raises(ValueError, match="weight must be >= 1"):
        TenantSpec(name="t", weight=0)
    tenants = build_tenants([TenantSpec(name="t", workload="SW",
                                        n_commands=4, span_bytes=1 << 20)])
    with pytest.raises(ValueError, match="unknown arbitration policy"):
        arbitration_burst(tenants[0].spec, "priority")
    with pytest.raises(ValueError, match="unknown arbitration policy"):
        merge_tenants(tenants, policy="priority")


def test_depth_one_rings_alternate_under_weighted_arbitration():
    """A queue that can only offer one SQE per round caps its weighted
    burst at one: weights (3, 1) at queue depth 1 degenerate to strict
    alternation instead of 3:1."""
    specs = [TenantSpec(name="heavy", workload="SW", n_commands=6,
                        span_bytes=1 << 20, weight=3, queue_depth=1),
             TenantSpec(name="light", workload="SW", n_commands=6,
                        span_bytes=1 << 20, weight=1, queue_depth=1)]
    order = merge_tenants(build_tenants(specs), policy="wrr")
    assert [index for index, __ in order] == [0, 1] * 6
