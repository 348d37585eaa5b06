"""Fingerprint pins: sweep keys are byte-stable across releases.

Every key below was computed by the fingerprinting code as of sweep
salt ``sweep-8`` before the by-class dispatch in ``canonical()`` landed.
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
    't2-C1-cache': '41185e13916c044b12d97d70cc6f7e5b7fcc1feb0112087374e94f9d0e0f12cf',
    't2-C1-no-cache': '48471cf273c8ec137d969983cabff646cb4f68c43b12312a8524b747582c5510',
    't2-C8-cache': '91bc23275abed51a9c8fc3de2a3308f2eb8f3599e895ec6c330bb89e65de5996',
    't2-C8-no-cache': '3bfe75b4276b6b0ba5623016ed678888cd64ecb6862c279ea8dd7de50c05076b',
    't3-C1-cache': '4f2d62ae535724dcb1b4bd58a0e58c91dec5c0b662400f42344fbfefaf02fee0',
    't3-C1-no-cache': 'a1b38de317f540c7f5fc41c686b37415e12585f979408d366c95cdf6a41f0962',
    't3-C8-cache': '009a142eb4606236640088fce98bb3537653d2163394c3fd8248f2ca1ddfb3d4',
    't3-C8-no-cache': 'c102d908d3cf66f568f0549f0b1553615a9cbdfbe3e762b2def9697b3a80ce09',
    't2-C4-RR': '4810a3708c5a8542bdc6c9eb05732203fc030d9c09924fdee25252b40bad5608',
    'C2': 'e11b14aeedfd3b1cd5b3af9ee4b1779dae1cc9bcc6d2e9963e96c398d2c52d59',
    'C3': 'b4c772111ea73d9e0282ad1e499ba77a5ebabaa105deff0dfb3b3fec6641da93',
    't2-wrr': '8fec647d0aaf474f75dff8d34bde7fd0029e5137909774404d2b063ce08fa164',
    'pagemap': 'a57ab8f1ff194a1daa0fb45110ba84afd0541eedabd8cfef16e78734b647ff82',
    'dftl@8KiB': 'cb5c0b2265798cb5724a59cec014b1db75400f6fc38907b029cc29158a6055ab',
    'params': '0cfe51777e69f1db2b2eca33c4dd396e956df6bbb5a17f748beea9fc1f8bf6cc',
}


def test_every_pinned_key_is_unchanged():
    keys = {point.name: fingerprint(point) for point in pinned_points()}
    assert keys == PINS


def test_salt_is_the_pinned_one():
    # A salt bump re-keys every point on purpose: re-pin with it.
    assert CODE_VERSION == "sweep-8"


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
