"""Every component keeps the path the parent walk gave it.

A component stores its dotted path once, at construction, instead of
walking up to the hierarchy root on each call.  ``component_paths.json``
was recorded with that walk: the sorted paths and ``repr``s of every
component of a Table II C1 device at cycle and at fast fidelity, after a
run that builds dies, and of a DFTL device on the FTL microscope.  Fault
draws and span tracks are keyed by these paths, so a path that moved
would move faulted results and profiles with it.
"""

import json
from pathlib import Path

import pytest

from repro.core.experiments import table2_configs
from repro.core.ftlsweep import DEFAULT_BLOCKS_PER_PLANE, ftl_base_architecture
from repro.host import random_read, random_write
from repro.kernel import Simulator
from repro.ssd import CachePolicy, FtlSsdDevice, SsdDevice, run_workload
from repro.ssd.fidelity import fidelity_from_spec

PINS = Path(__file__).with_name("component_paths.json")


def c1_after_random_read(fidelity):
    sim = Simulator()
    device = SsdDevice(sim, table2_configs()["C1"].with_fidelity(
        fidelity_from_spec(fidelity)))
    device.preload_for_reads()
    run_workload(sim, device, random_read(4096 * 32))
    return device


def dftl_after_random_write():
    arch = ftl_base_architecture().scaled(
        ftl_scheme="dftl", cache_policy=CachePolicy.NO_CACHING)
    sim = Simulator()
    device = FtlSsdDevice(sim, arch, logical_utilization=0.75,
                          ftl_blocks_per_plane=DEFAULT_BLOCKS_PER_PLANE)
    run_workload(sim, device, random_write(4096 * 32))
    return device


BUILDS = {
    "C1-cycle": lambda: c1_after_random_read("cycle"),
    "C1-fast": lambda: c1_after_random_read("fast"),
    "FTL-dftl": dftl_after_random_write,
}


def components(node):
    yield node
    for child in node.children.values():
        yield from components(child)


def listing(device):
    return sorted([node.path(), repr(node)] for node in components(device))


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_paths_and_reprs_match_the_recorded_walk(build):
    assert listing(BUILDS[build]()) == json.loads(PINS.read_text())[build]

