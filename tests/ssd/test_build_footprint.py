"""Pin the objects a device build leaves for the garbage collector.

Every container object that survives a build is scanned by each later
collection, and a campaign builds thousands of devices: a few hundred
more survivors per window can add a full collection and cost more wall
time than the simulation itself.  These pins make a change that
allocates per component fail here, as a unit test, rather than as a
wall-clock regression.

The counts depend on CPython's object layout (which containers it
tracks, when an instance dict is materialized), so they are pinned on
one minor version: the one the tier-1 suite runs.
"""

import gc
import sys

import pytest

from repro.core.experiments import table2_configs
from repro.kernel import Simulator
from repro.ssd import SsdDevice
from repro.ssd.fidelity import fidelity_from_spec

PINNED_VERSION = (3, 11)


def components(node):
    return 1 + sum(components(child) for child in node.children.values())


def survivors(arch):
    """gc-tracked objects alive after building one device, and its
    component count."""
    gc.collect()
    before = len(gc.get_objects())
    device = SsdDevice(Simulator(), arch)
    gc.collect()
    return len(gc.get_objects()) - before, components(device)


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_VERSION,
    reason="object counts are pinned on CPython 3.11, the tier-1 version; "
           "other versions track and lay out objects differently")
@pytest.mark.parametrize("fidelity, objects", [("cycle", 254),
                                               ("fast", 156)])
def test_table2_c1_build_object_count(fidelity, objects):
    arch = table2_configs()["C1"].with_fidelity(fidelity_from_spec(fidelity))
    survivors(arch)  # first build: module-level caches settle
    assert survivors(arch) == (objects, 24)
