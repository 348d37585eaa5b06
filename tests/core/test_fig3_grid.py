"""Campaign and sweep gates on the Fig. 3 (Table II, SATA II) grid.

* A two-worker campaign over the golden fig3 points, one worker
  SIGKILLed while it holds a lease, resumes to exactly
  ``tests/golden/fig3.json``.
* Adaptive exploration (fast screen, cycle promotion) reaches the
  exhaustive cycle-fidelity Pareto frontier while simulating at most
  half the grid at cycle fidelity.
* Serial, four-worker and warm-cache sweeps of the grid return the same
  rows, and the warm rerun simulates nothing.

The two full-grid tests share one serial exhaustive sweep.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (Campaign, CampaignRunner, LeaseQueue, ParetoEntry,
                        ResourceCostModel, SweepRunner, adaptive_fig3,
                        entry_frontier, fig3_sweep, run_worker)
from repro.core.experiments import breakdown_points, table2_configs
from repro.host.interface import sata2_spec
from repro.ssd import SsdArchitecture
from repro.ssd.scenarios import BreakdownRow
from tests.core.test_campaign_crash import fork_only

GOLDEN_FIG3 = os.path.join(os.path.dirname(__file__), "..", "golden",
                           "fig3.json")
GRID_COMMANDS = 200
BUDGET = 0.5


def _holds_lease(queue, keys, pid):
    return any(lease is not None and lease.pid == pid
               for lease in map(queue.peek, keys))


@fork_only
def test_golden_crash_resume_matches_golden(tmp_path):
    points = breakdown_points(SsdArchitecture(host=sata2_spec()),
                              n_commands=120, configs=["C1", "C6"])
    directory = str(tmp_path / "golden")
    campaign = Campaign.ensure(directory, points, name="golden-fig3")
    queue = LeaseQueue(campaign.queue_dir)
    keys = list(campaign.point_keys.values())

    context = multiprocessing.get_context("fork")
    workers = [context.Process(target=run_worker, args=(directory,))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    victim = workers[0]
    try:
        deadline = time.time() + 60.0
        while not _holds_lease(queue, keys, victim.pid):
            assert victim.is_alive(), "victim exited before holding a lease"
            assert time.time() < deadline, "victim never claimed a point"
            time.sleep(0.005)
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.join(timeout=10.0)
        workers[1].join(timeout=300.0)
    assert victim.exitcode == -signal.SIGKILL

    CampaignRunner(directory, workers=1, name="golden-fig3").run(points)
    with Campaign.open(directory).store() as store:
        stored = store.payloads("golden-fig3")
    with open(GOLDEN_FIG3, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert {name: BreakdownRow.from_dict(payload).as_dict()
            for name, payload in stored.items()} == golden


@pytest.fixture(scope="module")
def exhaustive_rows():
    """The full Table II grid at cycle fidelity, swept serially."""
    return fig3_sweep(n_commands=GRID_COMMANDS,
                      runner=SweepRunner(workers=1))


@pytest.mark.slow
def test_adaptive_reaches_exhaustive_frontier(exhaustive_rows, tmp_path):
    cost_model = ResourceCostModel()
    configs = table2_configs(SsdArchitecture(host=sata2_spec()))
    exhaustive = entry_frontier(
        [ParetoEntry(name=name, cost=cost_model.cost(configs[name]),
                     value=row.ssd_cache_mbps)
         for name, row in exhaustive_rows.items()])

    outcome = adaptive_fig3(
        n_commands=GRID_COMMANDS, budget_fraction=BUDGET,
        runner=CampaignRunner(str(tmp_path / "adaptive"), workers=1,
                              name="adaptive-fig3"))

    assert [entry.name for entry in outcome.cycle_frontier] \
        == [entry.name for entry in exhaustive]
    assert outcome.cycle_point_fraction <= BUDGET


@pytest.mark.slow
def test_sweep_modes_agree(exhaustive_rows, tmp_path):
    cache_dir = str(tmp_path / "cache")
    parallel = fig3_sweep(n_commands=GRID_COMMANDS,
                          runner=SweepRunner(workers=4, cache_dir=cache_dir))
    warm_runner = SweepRunner(workers=4, cache_dir=cache_dir)
    warm = fig3_sweep(n_commands=GRID_COMMANDS, runner=warm_runner)

    assert exhaustive_rows == parallel == warm
    assert warm_runner.last_summary.simulated == 0
