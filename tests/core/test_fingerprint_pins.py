"""Fingerprint pins: sweep keys are byte-stable across releases.

Every key below was computed by the fingerprinting code under sweep
salt ``sweep-10`` (re-pinned from the ``sweep-9`` keys, which the same
points still reproduce under the old salt, when the reliability
``page_reads`` denominator started counting uncorrectable reads).
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
    't2-C1-cache': '3a0b9cd0edbf17e49213bf0a46f86c914bd32233be62154330b4f0866cc2b23c',
    't2-C1-no-cache': 'c5d1277608f08e6bee9402edaa92d894c71fd8152ed3c035a9c859d548234531',
    't2-C8-cache': '08f0bd909475d48320967f6b7e49a8609c59f268b3cc6419848dc82f9308af48',
    't2-C8-no-cache': 'f1ede6919dbfe43ceddf71c011d2d3f1a0686fe1641431d98318b78a184bada1',
    't3-C1-cache': 'f5403a04a902e677e37df1e072649f952f1bf5588bc0595da7b47b67b78d4d59',
    't3-C1-no-cache': '358c4bf4eedba3e0762c85b423333b31508aa53d08c455f4cd9997ef5543c2d6',
    't3-C8-cache': '14defef28b2391f90f522525b5e75e89372fcf124565ef3aff19195c5ac6ef0e',
    't3-C8-no-cache': '3814465c8c2c72370a8c0e870858a9f0035dbca223d0c44fd4b31130bd586937',
    't2-C4-RR': '9b932543cfb67da13e6c231913741648f3f5ac1c6ca26267ca07e58ccf241df0',
    'C2': '9feb1526c8496481ced9700980f7cdc50b93d333afc9442fa6f6028873ba490e',
    'C3': '94d4aec189abba1dfa8da61b51776edd10a020cc2f0eafa7fd3468f7bac0a522',
    't2-wrr': 'dbc77daca0cfabf4ccf44797cfc5f49a5a2f0e1ac89292d063aadff2bc994110',
    'pagemap': 'bc169aff6cf858f67153bcfef0cb25f52a0bb925fa8648f7d95cab01b6b9a2dd',
    'dftl@8KiB': 'eeaf3c3d3a8fb7346358d23a9c13c73ab2d3e9e0267d084ea52c5d5df46d834d',
    'params': 'c7c13cac04f6ef0bd51148523c0cb503627521a632399c23a695bb5fa037dbaf',
}


def test_every_pinned_key_is_unchanged():
    keys = {point.name: fingerprint(point) for point in pinned_points()}
    assert keys == PINS


def test_salt_is_the_pinned_one():
    # A salt bump re-keys every point on purpose: re-pin with it.
    assert CODE_VERSION == "sweep-10"


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
