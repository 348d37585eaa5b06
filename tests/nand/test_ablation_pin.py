"""Exact pin of the NAND command-set ablation's three flows.

``benchmarks/test_ablation_nand_features.py`` compares single-plane,
2-plane and cache programs on one die.  This tier-1 test runs the same
geometry and flows (imported from that file, so they cannot drift) and
pins each flow's simulated end time and kernel event count: a change to
how any command form is issued shows here, not only as a shifted MB/s
figure in a slow benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.kernel import Simulator

_ABLATION = (Path(__file__).resolve().parents[2] / "benchmarks"
             / "test_ablation_nand_features.py")


def _load_ablation():
    spec = importlib.util.spec_from_file_location("_nand_ablation",
                                                  _ABLATION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ablation = _load_ablation()


@pytest.mark.parametrize("flow, end_ps, events", [
    (ablation.single_plane_flow, 50_500_209_582, 434),
    (ablation.multiplane_flow, 26_941_216_791, 314),
    (ablation.cached_flow, 47_303_531_582, 435),
], ids=["single-plane", "2-plane", "cached"])
def test_flow_is_pinned(flow, end_ps, events):
    sim = Simulator()
    controller = ablation.make_controller(sim)
    sim.run(until=sim.process(flow(sim, controller)))
    assert sim.now == end_ps
    assert sim.events_processed == events


def test_geometry_is_pinned():
    geometry = ablation.GEO
    assert (geometry.planes_per_die, geometry.blocks_per_plane,
            geometry.pages_per_block, geometry.page_bytes,
            geometry.spare_bytes) == (2, 32, 16, 4096, 224)
    assert ablation.N_PAGES == 24
