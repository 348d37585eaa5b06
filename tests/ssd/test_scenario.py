"""One run path: :func:`run_scenario` and the callers built on it.

``scenario_outputs.json`` pins, byte for byte, outputs that no golden
figure covers — captured before the per-caller build/prepare/run
sequences were merged into :func:`run_scenario`, with wall time removed:

* trace replay with ``fill`` and ``steady`` host preconditioning,
  including the warm-up command count,
* FTL sweep points under ``groupmap`` and ``blockmap`` (steady-state FTL
  preparation, counter reset, real-FTL replay),
* :func:`measure` of a mixed stream whose first command is a write (so
  the dies are *not* pre-imaged),
* a profiled point's result and utilization timelines.

Small geometries with DRAM refresh off keep each case well under a
second while still driving every preparation step.
"""

import json
import os

import pytest

from repro.core.experiments import profile_point
from repro.core.ftlsweep import ftl_base_architecture, ftl_sweep
from repro.core.tracereplay import TraceWorkload, replay_trace
from repro.host import IoOpcode
from repro.host.workload import mixed_workload, sequential_write
from repro.nand import NandGeometry
from repro.ssd import (CachePolicy, FtlSsdDevice, Scenario, ScenarioRun,
                       SsdArchitecture, SsdDevice, measure, run_scenario)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SAMPLE = os.path.join(REPO_ROOT, "examples", "sample_msr.csv")
FIXTURE = os.path.join(HERE, "scenario_outputs.json")

SMALL = NandGeometry(planes_per_die=1, blocks_per_plane=16,
                     pages_per_block=16)
REPLAY_ARCH = SsdArchitecture(n_channels=2, n_ways=2, dies_per_way=1,
                              n_ddr_buffers=2, geometry=SMALL,
                              dram_refresh=False)
FTL_BASE = ftl_base_architecture().scaled(geometry=SMALL,
                                          dram_refresh=False)


def without_wall(payload):
    payload = dict(payload)
    payload.pop("wall_seconds")
    return payload


def sample_trace(**options):
    return TraceWorkload.from_file(SAMPLE, max_commands=40,
                                   honor_issue_times=False, **options)


def replay_output(mode):
    outcome = replay_trace(sample_trace(precondition=mode),
                           arch=REPLAY_ARCH, label=f"scenario/{mode}")
    return {"result": without_wall(outcome.result.to_dict()),
            "profile": outcome.profile.to_dict(),
            "preconditioning_commands": outcome.preconditioning_commands}


def ftl_sweep_output():
    payloads = ftl_sweep(sample_trace(), schemes=["groupmap", "blockmap"],
                         base=FTL_BASE, blocks_per_plane=16)
    return {name: without_wall(payload)
            for name, payload in payloads.items()}


def mixed_workload_write_first():
    return mixed_workload(4096 * 64, read_fraction=0.5,
                          span_bytes=1 << 24)


def measure_mixed_output():
    return without_wall(measure(SsdArchitecture(),
                                mixed_workload_write_first(),
                                label="scenario/mixed").to_dict())


def profile_point_output():
    result, recorder, timelines = profile_point(
        SsdArchitecture(), sequential_write(4096 * 64), n_commands=64,
        warm_start=True, label="scenario/profile", buckets=12)
    return {"result": without_wall(result.to_dict()),
            "timelines": timelines,
            "commands": recorder.commands_completed}


OUTPUTS = {
    "replay_fill": lambda: replay_output("fill"),
    "replay_steady": lambda: replay_output("steady"),
    "ftl_sweep": ftl_sweep_output,
    "measure_mixed": measure_mixed_output,
    "profile_point": profile_point_output,
}


def canonical(document):
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def expected():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_fixture(name, expected):
    assert canonical(OUTPUTS[name]()) == canonical(expected[name])


def test_fixture_covers_every_output(expected):
    assert sorted(expected) == sorted(OUTPUTS)


def test_host_preconditioning_ran_before_the_window(expected):
    for mode in ("fill", "steady"):
        assert expected[f"replay_{mode}"]["preconditioning_commands"] > 0
    assert (expected["replay_steady"]["preconditioning_commands"]
            > expected["replay_fill"]["preconditioning_commands"])


def test_mixed_stream_starts_with_a_write():
    assert mixed_workload_write_first().opcode is IoOpcode.WRITE


# ----------------------------------------------------------------------
# run_scenario itself

TINY = SsdArchitecture(n_channels=2, n_ways=1, dies_per_way=1,
                       n_ddr_buffers=2, geometry=SMALL, dram_refresh=False)


def test_run_scenario_returns_result_device_and_warmup():
    run = run_scenario(Scenario(TINY, sequential_write(4096 * 16),
                                label="tiny"))
    assert isinstance(run, ScenarioRun)
    assert type(run.device) is SsdDevice
    assert run.result.label == "tiny"
    assert run.result.commands == 16
    assert run.result.sim_time_ps == run.device.sim.now
    assert run.preconditioning_commands == 0


def test_ftl_utilization_selects_the_real_ftl_device():
    run = run_scenario(Scenario(
        TINY.scaled(cache_policy=CachePolicy.NO_CACHING),
        sequential_write(4096 * 16), ftl_utilization=0.5,
        ftl_blocks_per_plane=16))
    assert isinstance(run.device, FtlSsdDevice)
    assert run.result.ftl["host_writes"] == 16


def test_ftl_steady_zeroes_counters_before_the_window():
    """Steady preparation writes the whole logical space, yet the
    measured window only counts the workload's own host writes."""
    run = run_scenario(Scenario(
        TINY.scaled(cache_policy=CachePolicy.NO_CACHING),
        sequential_write(4096 * 8), ftl_utilization=0.5,
        ftl_blocks_per_plane=16, ftl_steady=True))
    assert run.result.ftl["host_writes"] == 8
    assert run.result.ftl["mapped_pages"] == run.device.logical_pages


def test_sustained_is_full_window_only_for_steady_regime_runs():
    workload = sequential_write(4096 * 32)
    warm = run_scenario(Scenario(TINY, workload, warm_start=True)).result
    assert warm.sustained_mbps == warm.throughput_mbps
    cold = run_scenario(Scenario(TINY, workload)).result
    assert cold.sustained_mbps != cold.throughput_mbps


def test_scenario_is_frozen():
    scenario = Scenario(TINY, sequential_write(4096))
    with pytest.raises(AttributeError):
        scenario.label = "changed"
