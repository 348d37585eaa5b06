"""Ablation — NAND command-set features: multi-plane and cache program.

The NAND substrate (NANDFlashSim-style, paper reference [19]) supports
the ONFI advanced commands.  This ablation quantifies their value on one
die, which is where the paper's "model refinement" path would plug them
into the full platform:

* multi-plane program/read — one array operation covers both planes
  (``program_page(way, die, address, *more)``);
* cache program — the next page's data-in overlaps the current array
  program (``program_page(..., cached=True)``).
"""

from repro.controller import ChannelWayController
from repro.ecc import FixedBch
from repro.kernel import Simulator
from repro.nand import (MlcTimingModel, NandGeometry, OnfiTiming,
                        PageAddress, WearModel)

GEO = NandGeometry(planes_per_die=2, blocks_per_plane=32, pages_per_block=16,
                   page_bytes=4096, spare_bytes=224)
N_PAGES = 24


def make_controller(sim):
    return ChannelWayController(
        sim, "chn0", 1, 1, GEO, MlcTimingModel(), WearModel(),
        OnfiTiming.asynchronous(), FixedBch(t=8))


def write_throughput(flow_builder) -> float:
    sim = Simulator()
    controller = make_controller(sim)
    sim.run(until=sim.process(flow_builder(sim, controller)))
    return N_PAGES * GEO.page_bytes / 1e6 / (sim.now / 1e12)


def single_plane_flow(sim, controller):
    for index in range(N_PAGES):
        plane, page = index % 2, (index // 2) % GEO.pages_per_block
        block = index // (2 * GEO.pages_per_block)
        yield sim.process(controller.program_page(
            0, 0, PageAddress(plane, block, page)))


def multiplane_flow(sim, controller):
    for index in range(N_PAGES // 2):
        page = index % GEO.pages_per_block
        block = index // GEO.pages_per_block
        yield sim.process(controller.program_page(
            0, 0, PageAddress(0, block, page), PageAddress(1, block, page)))


def cached_flow(sim, controller):
    handles = []
    for index in range(N_PAGES):
        plane, page = index % 2, (index // 2) % GEO.pages_per_block
        block = index // (2 * GEO.pages_per_block)
        handles.append(sim.process(controller.program_page(
            0, 0, PageAddress(plane, block, page), cached=True)))
    yield sim.all_of(handles)


def run_all():
    return {
        "single-plane": write_throughput(single_plane_flow),
        "multi-plane": write_throughput(multiplane_flow),
        "cache-program": write_throughput(cached_flow),
    }


def test_nand_command_set_ablation(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== Ablation: NAND command set (one die, program MB/s) ===")
    for name, mbps in data.items():
        print(f"  {name:<14} {mbps:8.2f}")

    # Multi-plane nearly doubles per-die program bandwidth.
    assert data["multi-plane"] > 1.6 * data["single-plane"]
    # Cache program hides the data-in transfer under the array time.
    assert data["cache-program"] > 1.02 * data["single-plane"]
    # Both remain below the 2-plane theoretical ceiling.
    assert data["multi-plane"] < 2.2 * data["single-plane"]
