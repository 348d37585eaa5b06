"""Fingerprint pins: sweep keys are byte-stable across releases.

Every key below was computed by the fingerprinting code under sweep
salt ``sweep-9`` (the ``sweep-8`` keys, recorded before the by-class
dispatch in ``canonical()`` landed, were re-pinned when the fidelity
config lost its ``nand_overhead_ps`` field).
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
    't2-C1-cache': '416c158d67cae702b5e17446f1adff53013635040a2fc72acd53e3588c7e5784',
    't2-C1-no-cache': 'b6856db6f8b022938221ec74b80c09603d1ff4dd83a3a9113b561f39e2c08069',
    't2-C8-cache': '6d8af4f9b1ea9e8946046f79f507d0157161d384cfaca3ebe119c535fca6b7c9',
    't2-C8-no-cache': 'b25b375f8b8ae7ad4606dffddff6c174ec5764d13ba4d519b71ca6e2fac45094',
    't3-C1-cache': '312a32bc8191253f1fbb05944dbe91e8e14cc5cc661934f18691d03fb485d1d0',
    't3-C1-no-cache': 'e4c9bcb73b2693d869c39890fb0431d4fcd55ee61ceb1b014e7a15e04577d656',
    't3-C8-cache': '92f69e02f97b8c389c5a81a0fa104d84ee18831c2b57d7310af007c58eb1faf4',
    't3-C8-no-cache': 'd4be62e32ff85a2099cd72a386397ace0666a5a6a6bad5cb231093eea174dada',
    't2-C4-RR': 'efd77bea2b8088904bb27ac4c63748d91460ec82bf51e6d8039455457947b901',
    'C2': '07bb8ba298e46ce79270e1bb578fbf3e6ca5ad15a2021d1befe95066ec9dfb43',
    'C3': 'eca01c253cb85dd27157b2ebb48c14744b01fdd732e57cfe85440b409ebe17e4',
    't2-wrr': 'c9847f9d76f83669d3add24b1ba4a270f3895552767a5ae0b04ce0f2a480d705',
    'pagemap': '8b6306cad7fcf8ac3fbecdc0e2e54b02ee5988b74f04c8025d7ea6144bea9480',
    'dftl@8KiB': 'e6bc820c7bfb5998b00bb348498e185a9f973d0e5cb4c1ee91cea12d20133669',
    'params': 'f2d5bc9d52a5ab0814c2eca499d268f9e0a01b9b178810167f7c9ce2d69bfdd2',
}


def test_every_pinned_key_is_unchanged():
    keys = {point.name: fingerprint(point) for point in pinned_points()}
    assert keys == PINS


def test_salt_is_the_pinned_one():
    # A salt bump re-keys every point on purpose: re-pin with it.
    assert CODE_VERSION == "sweep-9"


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
