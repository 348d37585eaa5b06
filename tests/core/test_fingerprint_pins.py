"""Fingerprint pins: sweep keys are byte-stable across releases.

Every key below was computed by the fingerprinting code under sweep
salt ``sweep-11`` (re-pinned from the ``sweep-10`` keys when the
fidelity config lost its three fitted-parameter fields: every
architecture's canonical form shrank, so no point keeps its old key
under either salt).
A result directory (``.sweep-cache``, a campaign's ``results/``) is
addressed by these keys, so a change to how objects are reduced that
moves any of them silently turns every cached result into a miss.  A
deliberate change bumps ``CODE_VERSION`` and re-pins.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.experiments import breakdown_points, table2_configs, \
    table3_configs
from repro.core.ftlsweep import ftl_sweep_points
from repro.core.sweep import (CODE_VERSION, CampaignError, SweepPoint,
                              SweepRunner, canonical, fingerprint)
from repro.core.tenantsweep import tenant_sweep_points
from repro.core.tracereplay import TraceWorkload, trace_sweep_points
from repro.host.interface import sata2_spec
from repro.host.workload import random_read, sequential_write
from repro.ssd.architecture import CachePolicy, SsdArchitecture
from repro.ssd.device import DataPathMode

#: A fixed content hash: the pins cover the fingerprint form, not the
#: bytes of any trace on disk.
TRACE = TraceWorkload(path="examples/sample_msr.csv", sha256="5e" * 32,
                      max_commands=64)


def pinned_points():
    base = SsdArchitecture(host=sata2_spec())
    points = []
    # Table II/III points under both cache policies (the campaign grid).
    for table, configs in (("t2", table2_configs(base)),
                           ("t3", table3_configs(base))):
        for config in ("C1", "C8"):
            for policy in (CachePolicy.CACHING, CachePolicy.NO_CACHING):
                name = f"{table}-{config}-{policy.value}"
                points.append(SweepPoint(
                    name=name, arch=configs[config].with_cache_policy(policy),
                    workload=sequential_write(4096 * 16), evaluator="measure",
                    params={"label": name}))
    points.append(SweepPoint(name="t2-C4-RR", arch=table2_configs(base)["C4"],
                             workload=random_read(4096 * 16, seed=7),
                             evaluator="measure", params={"label": "RR"}))
    points += breakdown_points(SsdArchitecture(), 100, configs=["C2"])
    # __canonical__ objects: a trace replay and a tenant set.
    points += trace_sweep_points(TRACE, configs=["C3"])
    points += tenant_sweep_points(counts=(2,), policies=("wrr",))
    points += ftl_sweep_points(TRACE, schemes=["pagemap", "dftl"],
                               dram_budgets=[8192])
    # Params holding enums, tuples and nested dicts (non-string keys too).
    points.append(SweepPoint(
        name="params", arch=SsdArchitecture(), workload=sequential_write(4096),
        evaluator="measure",
        params={"mode": DataPathMode.DDR_FLASH, "shape": (1, (2.5, "x"), []),
                "nested": {"b": {2: None, "a": [True, {"z": (0,)}]},
                           "a": CachePolicy.NO_CACHING}}))
    return points


PINS = {
    't2-C1-cache': '5b5d03b344d80b2e8c37f2936fc6c2145e08d47cf9e0dd1f53e430f60046c31d',
    't2-C1-no-cache': '1fab81d51966ae0785a70454070e76df420959f960b596b141ae6d8bf99f5f30',
    't2-C8-cache': '0a661f938387119c2aee88833e029ef96f813a4e1f181a1b61aa2acafb8c6bbc',
    't2-C8-no-cache': '3319a1b65f2778dec2ed8019a1d33c010089a83ce0c6f07a9eac1cf0bb213381',
    't3-C1-cache': '063782740d78086df7934a5007554f968de0c677003e5719cf8fd66830f0b2ea',
    't3-C1-no-cache': 'fe9cbc3cfcb12898c4b8e4c50d826b6124549f8c6da1f0d649fd299f5ed5d41a',
    't3-C8-cache': '083ce505d728a022bf6b1acfaffd618be2630f77c78fbc91134e004bac93e377',
    't3-C8-no-cache': '765f4c6c835826ac49aaadcd0255302f94382528d63d4b6103a5238269ac5a22',
    't2-C4-RR': 'f787961c47a47381342e078dcb4b340378626c7fcf6e2fc5353df0384c7011f0',
    'C2': '423e904561c1d265185b24734043df1a5e2d612a0e02de0f40c0faa0c9f2dd93',
    'C3': '772a0d40c389c776c793f5c6a847c8f9200b2b622c692bc7c5d61a387809f9d5',
    't2-wrr': '1bcd47863b983be360db4cbc83a4e483dbfabc8f850c5d603b50c17a959f2fd1',
    'pagemap': 'dcd773eea5b0534c8b102e3b1a581927e91b32146c36c6254b45c45f0eac988f',
    'dftl@8KiB': '606df7a6bc9878dc2e64877a173d4c4458c3bef25f2a592b3911873497aa3339',
    'params': '7e87c9f1a8522fbc5b7924d5eaba0191dcb7f104536efafcf84527c794e347e6',
}


def test_every_pinned_key_is_unchanged():
    keys = {point.name: fingerprint(point) for point in pinned_points()}
    assert keys == PINS


def test_salt_is_the_pinned_one():
    # A salt bump re-keys every point on purpose: re-pin with it.
    assert CODE_VERSION == "sweep-11"


@pytest.mark.parametrize("value", [object(), SsdArchitecture, TraceWorkload,
                                   CachePolicy, {"k": {1, 2}}])
def test_unsupported_objects_raise_type_error(value):
    with pytest.raises(TypeError):
        canonical(value)


def test_unfingerprintable_point_is_a_campaign_error(tmp_path):
    point = SweepPoint(name="bad", arch=SsdArchitecture,
                       workload=sequential_write(4096))
    with pytest.raises(TypeError):
        fingerprint(point)
    with pytest.raises(CampaignError, match="not fingerprintable"):
        SweepRunner(workers=1).run([point])
    with pytest.raises(CampaignError, match="not fingerprintable"):
        Campaign.ensure(str(tmp_path / "c"), [point])
