"""Worker-cap regression: no oversubscription, no idle drain processes.

``BENCH_sweep.json`` once showed the parallel path *losing* to serial on
a 1-CPU box (0.93x): the runner started as many worker processes as the
caller asked for.  The engine's one width rule is
``min(workers, cpu_count, pending points)``; a width of 1 drains in
process, with no child processes — producing byte-identical payloads.
"""

import json
import os

from repro.core import SweepPoint, SweepRunner
from repro.host import sequential_write
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)
N_COMMANDS = 60


def _points(n=3):
    workload = sequential_write(4096 * N_COMMANDS)
    return [
        SweepPoint(name=f"P{channels}",
                   arch=SsdArchitecture(n_channels=channels,
                                        n_ddr_buffers=1, n_ways=2,
                                        dies_per_way=1,
                                        geometry=SMALL_GEO),
                   workload=workload,
                   params={"max_commands": N_COMMANDS})
        for channels in (1, 2, 4)[:n]
    ]


class TestWorkerCap:
    def test_capped_by_cpu_count_and_points(self):
        runner = SweepRunner(workers=64)
        runner.run(_points())
        workers = runner.last_summary.workers
        assert workers <= (os.cpu_count() or 1)
        assert workers <= 3

    def test_single_point_never_pools(self):
        runner = SweepRunner(workers=8)
        runner.run(_points(n=1))
        assert runner.last_summary.workers == 1

    def test_oversubscribed_matches_serial_exactly(self):
        serial = SweepRunner(workers=1).run(_points())
        capped = SweepRunner(workers=64).run(_points())
        blob = lambda res: json.dumps(  # noqa: E731
            [outcome.payload for outcome in res.outcomes],
            sort_keys=True)
        assert blob(serial) == blob(capped)
