"""The counts that reports read agree across fidelity levels.

Fast fidelity changes how long operations take, never which operations
run: the same short Table II C1 stream issues the same page programs,
reads and erases, moves the same DRAM bytes and the same host-link
bytes at cycle and at fast fidelity.  So every term of
:meth:`EnergyModel.breakdown_nj` except ``static`` (which scales with
simulated time) agrees too.
"""

import pytest

from repro.core.experiments import table2_configs
from repro.host import random_read, sequential_write
from repro.ssd import CachePolicy, EnergyModel
from repro.ssd.fidelity import fidelity_from_spec
from repro.ssd.scenarios import Scenario, run_scenario

COMMANDS = 200

STREAMS = {
    "SW": sequential_write(4096 * COMMANDS),
    "RR": random_read(4096 * COMMANDS, seed=1),
}


def counts(arch, kind):
    device = run_scenario(Scenario(arch, STREAMS[kind],
                                   preload_reads=kind == "RR")).device
    channels = device.channels
    energy = EnergyModel().breakdown_nj(device)
    del energy["static"]
    return {
        "programs": sum(c.programs for c in channels),
        "reads": sum(c.reads for c in channels),
        "erases": sum(c.erases for c in channels),
        "dram_bytes": sum(b.bytes for b in device.buffers.buffers),
        "host_bytes": device.hostif.bytes,
        "energy_nj": energy,
    }


@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("policy", [CachePolicy.CACHING,
                                    CachePolicy.NO_CACHING],
                         ids=lambda policy: policy.value)
def test_fast_counts_what_cycle_counts(policy, kind):
    arch = table2_configs()["C1"].with_cache_policy(policy)
    cycle = counts(arch, kind)
    fast = counts(arch.with_fidelity(fidelity_from_spec("fast")), kind)
    assert fast == cycle
    # Every command reached the host link, and the run did flash work.
    assert cycle["host_bytes"] == 4096 * COMMANDS
    assert cycle["programs"] + cycle["reads"] > 0
