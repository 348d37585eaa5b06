"""Building dies on first use leaves every simulated output unchanged.

Each case runs one seeded point twice: once as constructed, with dies
built as page operations reach them, and once with every die forced
through ``channel.dies`` before the run, which reproduces building all
of them up front.  Results, kernel event counts and the profile
timelines must match exactly.
"""

import pytest

from repro.core.experiments import table2_configs, table3_configs
from repro.faults import FaultConfig
from repro.host import random_read, random_write, sequential_write
from repro.kernel import Simulator
from repro.ssd import CachePolicy, SsdArchitecture, SsdDevice, run_workload
from repro.ssd.metrics import collect_utilization_timelines

FAULTS = FaultConfig(enabled=True, seed=11, rber_scale=100.0,
                     program_fail_prob=0.05, stuck_busy_prob=0.05,
                     factory_bad_prob=0.02)


def faulty(arch):
    """``arch`` with faults on, worn far enough to climb the retry ladder."""
    return arch.scaled(faults=FAULTS, initial_pe_cycles=2000,
                       cache_policy=CachePolicy.NO_CACHING)


def run(arch, workload, *, eager, preload=False, warm=False):
    sim = Simulator()
    device = SsdDevice(sim, arch)
    if eager:
        for channel in device.channels:
            channel.dies
    if preload:
        device.preload_for_reads()
    if warm:
        device.warm_start_cache(workload.pattern_name)
    result = run_workload(sim, device, workload)
    payload = result.to_dict()
    payload.pop("wall_seconds")
    return (payload, sim.events_processed,
            collect_utilization_timelines(device, buckets=16), device)


#: name -> (architecture, workload, run options, leaves dies unbuilt)
CASES = {
    "t2-C1-SW-cache-warm": (
        lambda: table2_configs()["C1"], sequential_write(4096 * 24),
        dict(warm=True), False),
    "t2-C1-RR-faults": (
        lambda: faulty(table2_configs()["C1"]),
        random_read(4096 * 24, seed=5), dict(preload=True), True),
    "t3-C4-RW-faults": (
        lambda: faulty(table3_configs()["C4"]),
        random_write(4096 * 24, seed=3), {}, True),
    "t3-C8-SW-fast": (
        lambda: table3_configs()["C8"].with_fidelity("fast"),
        sequential_write(4096 * 16), {}, True),
    "t3-C8-RR-faults": (
        lambda: faulty(table3_configs()["C8"]),
        random_read(4096 * 16, seed=9), dict(preload=True), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_matches_eager(case):
    make_arch, workload, options, partial = CASES[case]
    arch = make_arch()
    lazy = run(arch, workload, eager=False, **options)
    eager = run(arch, workload, eager=True, **options)
    assert lazy[0] == eager[0]
    assert lazy[1] == eager[1]
    assert lazy[2] == eager[2]
    lazy_built = sum(len(c.built_dies()) for c in lazy[3].channels)
    assert (lazy_built < arch.total_dies) == partial


def test_fault_cases_reach_fault_paths():
    """The fault cases exercise the deferred fault plan, not a no-op."""
    payload = run(faulty(table2_configs()["C1"]),
                  random_read(4096 * 24, seed=5), eager=False,
                  preload=True)[0]
    outcomes = payload["reliability"]["outcomes"]
    assert outcomes["recovered_by_retry"] > 0
    assert outcomes["uncorrectable"] > 0
    payload = run(faulty(table3_configs()["C4"]),
                  random_write(4096 * 24, seed=3), eager=False)[0]
    assert payload["reliability"]["remapped_programs"] > 0


def test_table3_c8_construction_builds_no_die():
    arch = table3_configs()["C8"]
    assert arch.total_dies == 8192
    device = SsdDevice(Simulator(), arch.scaled(faults=FAULTS))
    device.preload_for_reads()
    assert all(channel.built_dies() == [] for channel in device.channels)


def test_timelines_of_channels_without_built_dies():
    """A channel no command reached reports the all-zero timeline at the
    width of the others."""
    arch = SsdArchitecture(n_channels=4, n_ways=2, dies_per_way=2,
                           n_ddr_buffers=4, dram_refresh=False,
                           cache_policy=CachePolicy.NO_CACHING)
    workload = sequential_write(4096 * 2)
    lazy = run(arch, workload, eager=False)
    eager = run(arch, workload, eager=True)
    timelines = lazy[2]
    assert timelines == eager[2]
    assert [c.built_dies() == [] for c in lazy[3].channels] == \
        [False, False, True, True]
    assert set(timelines) == {f"chn{i}.dies" for i in range(4)}
    assert timelines["chn3.dies"] == [0.0] * 16
    assert len(timelines["chn0.dies"]) == 16
    assert any(timelines["chn0.dies"])
