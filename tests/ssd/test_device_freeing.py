"""A device whose run has drained is freed by reference counting.

The component tree refers downward only: a component keeps its children
and its own dotted path, never its parent.  So a built device is no
reference cycle, and once its run leaves nothing on the calendar,
dropping the simulator and the device frees every object at once.  A
campaign builds thousands of devices in one process; cyclic ones would
pile up until a collection walks them.

Each case runs with the collector disabled, drops its last references,
and asserts that a collection then finds nothing.  Cycle fidelity is not
pinned: its DRAM refresh timer stays on the calendar for good, so a
cycle device still reaches itself through its simulator.
"""

import gc

from repro.core.experiments import table2_configs
from repro.core.ftlsweep import DEFAULT_BLOCKS_PER_PLANE, ftl_base_architecture
from repro.host import random_read, random_write
from repro.kernel import Simulator
from repro.ssd import CachePolicy, FtlSsdDevice, SsdDevice, run_workload
from repro.ssd.fidelity import fidelity_from_spec

FAST = fidelity_from_spec("fast")


def cyclic_garbage(build):
    """Objects a collection finds after the built ``(sim, device)`` is
    dropped with the collector off."""
    # Finalizing an earlier test's garbage device closes its suspended
    # generators, whose ``finally`` blocks can resurrect that graph until
    # the next collection; start from a heap with none of it left.
    while gc.collect():
        pass
    gc.disable()
    try:
        sim, device = build()
        assert sim.peek() is None, "the run left work on the calendar"
        del sim, device
        return gc.collect()
    finally:
        gc.enable()


def fast_c1_random_read():
    sim = Simulator()
    device = SsdDevice(sim, table2_configs()["C1"].with_fidelity(FAST))
    device.preload_for_reads()
    result = run_workload(sim, device, random_read(4096 * 32))
    assert result.commands == 32
    return sim, device


def dftl_no_cache_random_write():
    arch = ftl_base_architecture().scaled(
        ftl_scheme="dftl", cache_policy=CachePolicy.NO_CACHING)
    sim = Simulator()
    device = FtlSsdDevice(sim, arch.with_fidelity(FAST),
                          logical_utilization=0.75,
                          ftl_blocks_per_plane=DEFAULT_BLOCKS_PER_PLANE)
    result = run_workload(sim, device, random_write(4096 * 32))
    assert result.commands == 32
    return sim, device


def test_fast_c1_device_is_freed_without_the_collector():
    fast_c1_random_read()  # first build: module-level caches and fits settle
    assert cyclic_garbage(fast_c1_random_read) == 0


def test_dftl_device_is_freed_without_the_collector():
    dftl_no_cache_random_write()
    assert cyclic_garbage(dftl_no_cache_random_write) == 0
