"""Admission-order and host-stream pins.

Each digest below is the SHA-256 of a stream's defining tuples, recorded
from the queue-ring implementation of ``merge_tenants`` (submission and
completion rings driven command by command) before it was replaced by
the closed-form burst rule.  The merge pins prove the closed form admits
exactly the order the rings did: both policies, a capped ``wrr`` burst
(``default_tenant_set(9)``: weight 9 at queue depth 8), depth-1 queues,
and an open-loop set whose issue times coincide, so the policy
interleave breaks the ties.  The stream pins prove every seeded host
generator still draws the same xorshift sequence.
"""

import hashlib
import json

import pytest

from repro.core.tenantsweep import default_tenant_set
from repro.host.tenants import (TenantSpec, build_tenants, kv_store_workload,
                                merge_tenants, page_io_workload)
from repro.host.traces import preconditioning_commands
from repro.host.workload import mixed_workload, random_read, random_write


def digest(rows):
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def admission_digest(specs, policy):
    order = merge_tenants(build_tenants(specs), policy=policy)
    return digest([(index, command.tag, command.lba)
                   for index, command in order])


def stream_digest(commands):
    return digest([(command.opcode.name, command.lba, command.sectors)
                   for command in commands])


def depth_one_set():
    return [TenantSpec(name=f"q{i}", workload=shape, n_commands=20,
                       span_bytes=1 << 20, weight=weight, queue_depth=1,
                       seed=0x51 + i)
            for i, (shape, weight) in enumerate((("RW", 3), ("SW", 1),
                                                 ("kv", 2)))]


def open_loop_set():
    # Equal rates from phase 0: every k-th command of each tenant shares
    # one issue time, and the third tenant's doubled rate coincides with
    # the others on every second command.
    return [TenantSpec(name=f"o{i}", workload=shape, n_commands=24,
                       span_bytes=1 << 20, weight=weight, queue_depth=depth,
                       rate_iops=rate, seed=0x0F + i)
            for i, (shape, weight, depth, rate) in enumerate(
                (("RR", 3, 2, 1000.0), ("mixed", 1, 8, 1000.0),
                 ("SW", 4, 4, 2000.0)))]


ADMISSION_SETS = {
    "default3": lambda: default_tenant_set(3),
    "default9": lambda: default_tenant_set(9),
    "depth1": depth_one_set,
    "open": open_loop_set,
}

ADMISSION_PINS = {
    ("default3", "rr"):
        "5215529613673f09f8b5e7c238fdef8b85ff0f54714d9b915a6be42febc99e7c",
    ("default3", "wrr"):
        "6727f19de101af1142ab93ae2fd4eeb721d6b3f19074542a79ad33b1c7d60f1d",
    ("default9", "rr"):
        "e7ad2c3c4c1f74b99a2ef9c85616f1201f225f3b323109945f858cc20dee742f",
    ("default9", "wrr"):
        "07438b0f961787cea3194b38545685d7e5542d4acf83eb0ebab0f6fb03f5c9b2",
    ("depth1", "rr"):
        "5da8c6da2260042e136ad0f43e6ad088c1ba6431b506dd6a6cd2f000d10068cf",
    ("depth1", "wrr"):
        "5da8c6da2260042e136ad0f43e6ad088c1ba6431b506dd6a6cd2f000d10068cf",
    ("open", "rr"):
        "91cf65cb0c1fc3fbd21743aef78c50a6e8c56abe9bbfb952c96850d2c88c65ff",
    ("open", "wrr"):
        "a2b0a60467a7d6fa23fc50ddabe577d682f5ea20cead5306688bf8c601ea5bc4",
}


@pytest.mark.parametrize("name,policy", sorted(ADMISSION_PINS))
def test_admission_order_is_pinned(name, policy):
    assert admission_digest(ADMISSION_SETS[name](), policy) \
        == ADMISSION_PINS[(name, policy)]


STREAMS = {
    "random_read": lambda: random_read(4096 * 96, span_bytes=1 << 24,
                                       seed=7).to_list(),
    "random_write": lambda: random_write(8192 * 64, block_bytes=8192,
                                         span_bytes=1 << 22).to_list(),
    "mixed": lambda: mixed_workload(4096 * 96, read_fraction=0.6,
                                    span_bytes=1 << 24).to_list(),
    "kv": lambda: kv_store_workload(96, span_bytes=1 << 22,
                                    seed=42).to_list(),
    "pageio": lambda: page_io_workload(24, span_bytes=1 << 22).to_list(),
    "precondition": lambda: preconditioning_commands(
        4096, mode="steady", overwrite_fraction=0.5),
}

STREAM_PINS = {
    "random_read":
        "964c0d9220a586125c27cde89cabc7fff1d4bf64579cd2981f5b94202238ff33",
    "random_write":
        "2df62af7daca4f49f70a58a6c5a9405d8a592a0160570e896f84071f7c21ae28",
    "mixed":
        "7436d1beb4b7cb4898f06168679ebc64cc558016c75c8d3e7903d1c660fb373b",
    "kv":
        "8366ecd48ced47c670e7348661c40a0ca7e31bf8667658e124c8545f07a2c05a",
    "pageio":
        "315211e5ba71f131d02a09a8c53f86212a94732f56c3d47fc68da3c718019faf",
    "precondition":
        "e0e84b47448fecda00b18564edb101db382f5f65181f0887a1826f4341dd7a77",
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_host_stream_is_pinned(name):
    assert stream_digest(STREAMS[name]()) == STREAM_PINS[name]
