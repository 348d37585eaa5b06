"""One campaign pass does each point's bookkeeping once.

``CampaignRunner.run`` fingerprints every point once (in
``Campaign.ensure``), writes each store row once (workers publish
envelopes only, and the pass's one ``Campaign.index`` fills the rows
that are missing or stale in one transaction), and reads from disk only
what other workers published.  These tests pin the counts, and that the
store a pass leaves behind is exactly the one a plain ``record_point``
of every published envelope would build, and can be rebuilt from them.
"""

import glob
import os
import sqlite3
import tempfile
from contextlib import closing

import pytest

from repro.core import (Campaign, CampaignRunner, ResourceCostModel,
                        ResultStore, SweepPoint, run_worker)
from repro.cli import main
from repro.core import campaign as campaign_module
from repro.core import sweep as sweep_module
from repro.host import sequential_write
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)

#: A cost model far from the default, so a row priced with the default
#: one cannot pass for a row priced with this one.
COSTS = ResourceCostModel(buffer_weight=3.0, channel_weight=5.0,
                          way_weight=7.0, die_weight=11.0)

#: Whether the ``pass_flaky`` evaluator fails; flipped by the tests.
FLAKY = {"fail": False}


def _eval_plain(point):
    """Payload with a tuple and int dict keys: JSON changes both."""
    value = float(point.params["value"])
    return {"value": value, "pair": (value, 2 * value),
            "by_id": {2: value, 10: -value},
            "latency_us": {"p99": 100.0 - value}}, 3


def _eval_flaky(point):
    if FLAKY["fail"]:
        raise RuntimeError("flaky point")
    return _eval_plain(point)


sweep_module.EVALUATORS.setdefault("pass_plain", _eval_plain)
sweep_module.EVALUATORS.setdefault("pass_flaky", _eval_flaky)


@pytest.fixture(autouse=True)
def steady_flaky():
    FLAKY["fail"] = False
    yield
    FLAKY["fail"] = False


def grid(n=4):
    points = []
    for index in range(n):
        arch = SsdArchitecture(n_channels=2, n_ddr_buffers=2,
                               n_ways=1 + index % 2, dies_per_way=2,
                               geometry=SMALL_GEO, dram_refresh=False)
        points.append(SweepPoint(
            name=f"p{index}", arch=arch,
            workload=sequential_write(4096 * 4),
            evaluator="pass_flaky" if index == n - 1 else "pass_plain",
            params={"value": float(index)}))
    return points


def tables(path):
    """Every row of the points, metrics and failures tables."""
    with closing(sqlite3.connect(path)) as conn:
        return {table: conn.execute(
                    f"SELECT * FROM {table} ORDER BY campaign_id, name"
                    + (", metric" if table == "metrics" else "")).fetchall()
                for table in ("points", "metrics", "failures")}


def reference_tables(tmp_path, directory, points, cost_model):
    """The store a ``record_point`` of every published envelope builds."""
    campaign = Campaign.open(directory)
    campaign_id = campaign.load_manifest()["name"]
    path = os.path.join(tempfile.mkdtemp(dir=str(tmp_path)),
                        "reference.sqlite")
    with ResultStore(path) as store:
        for point in points:
            key = sweep_module.fingerprint(point)
            store.record_point(campaign_id, point.name,
                               campaign.cache.load(key), key=key,
                               cost=cost_model.cost(point.arch))
    return tables(path)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOncePerPoint:
    def test_one_fingerprint_per_point_per_pass(self, tmp_path,
                                                monkeypatch):
        calls = count_calls(monkeypatch, campaign_module, "fingerprint")
        points = grid()
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1)
        cold = runner.run(points)
        assert cold.summary.simulated == len(points)
        assert len(calls) == len(points)
        del calls[:]
        warm = runner.run(points)
        assert warm.summary.cached == len(points)
        assert len(calls) == len(points)

    def test_one_store_write_per_point(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ResultStore, "record_point")
        points = grid()
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1,
                                cost_model=COSTS)
        runner.run(points)
        assert len(calls) == len(points)
        del calls[:]
        runner.run(points)
        assert calls == []

    def test_in_process_envelopes_served_as_published(self, tmp_path):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1)
        cold = runner.run(grid())
        warm = runner.run(grid())
        assert [o.payload for o in cold.outcomes] \
            == [o.payload for o in warm.outcomes]
        assert cold.outcomes[0].payload["pair"] == [0.0, 0.0]
        assert set(cold.outcomes[0].payload["by_id"]) == {"2", "10"}


class TestStoreIdentity:
    def test_cold_and_warm_passes_match_reference(self, tmp_path):
        directory = str(tmp_path / "camp")
        db = str(tmp_path / "camp" / "campaign.sqlite")
        points = grid()
        runner = CampaignRunner(directory, workers=1, cost_model=COSTS)
        FLAKY["fail"] = True
        first = runner.run(points)
        assert first.summary.failed == 1
        found = tables(db)
        assert found == reference_tables(tmp_path, directory, points, COSTS)
        assert [row[1] for row in found["failures"]] == ["p3"]

        FLAKY["fail"] = False
        rerun = runner.run(points)
        assert (rerun.summary.cached, rerun.summary.simulated,
                rerun.summary.failed) == (3, 1, 0)
        assert tables(db) == reference_tables(tmp_path, directory, points,
                                              COSTS)
        assert tables(db)["failures"] == []

        warm = runner.run(points)
        assert warm.summary.cached == len(points)
        assert tables(db) == reference_tables(tmp_path, directory, points,
                                              COSTS)

    def test_rows_priced_by_another_cost_model_are_repriced(self, tmp_path):
        directory = str(tmp_path / "camp")
        points = grid()
        Campaign.ensure(directory, points)
        assert run_worker(directory) == len(points)  # default cost model
        result = CampaignRunner(directory, workers=1,
                                cost_model=COSTS).run(points)
        assert result.summary.cached == len(points)
        assert tables(str(tmp_path / "camp" / "campaign.sqlite")) \
            == reference_tables(tmp_path, directory, points, COSTS)


class TestCrashGap:
    def test_published_but_unindexed_point_gets_its_row(self, tmp_path):
        directory = str(tmp_path / "camp")
        db = str(tmp_path / "camp" / "campaign.sqlite")
        points = grid()
        runner = CampaignRunner(directory, workers=1, cost_model=COSTS)
        runner.run(points)
        expected = tables(db)
        with closing(sqlite3.connect(db)) as conn, conn:
            for table in ("points", "metrics"):
                conn.execute(f"DELETE FROM {table} WHERE name='p1'")
        assert tables(db) != expected
        result = runner.run(points)
        assert result.summary.cached == len(points)
        assert tables(db) == expected
        assert expected == reference_tables(tmp_path, directory, points,
                                            COSTS)


def trace_connections(monkeypatch):
    """The SQL each new ``ResultStore`` connection runs, one list each."""
    connections = []
    original = ResultStore._connection

    def traced(self):
        if self._conn is None:
            statements = []
            original(self).set_trace_callback(statements.append)
            connections.append(statements)
        return original(self)

    monkeypatch.setattr(ResultStore, "_connection", traced)
    return connections


def cli_documents(directory, capsys):
    """``campaign query --json`` and ``campaign report --json`` stdout."""
    documents = []
    for argv in (["campaign", "query", directory, "--metric", "value"],
                 ["campaign", "report", directory, "--metric", "value",
                  "--where", "latency_us.p99<=99"]):
        assert main(argv + ["--json"]) == 0
        documents.append(capsys.readouterr().out)
    return documents


class TestProjection:
    def test_workers_never_open_the_store(self, tmp_path):
        directory = str(tmp_path / "camp")
        db = str(tmp_path / "camp" / "campaign.sqlite")
        points = grid()
        Campaign.ensure(directory, points)
        assert run_worker(directory) == len(points)
        assert not os.path.exists(db)
        assert Campaign.open(directory).index() == "campaign"
        assert tables(db) == reference_tables(tmp_path, directory, points,
                                              ResourceCostModel())

    @pytest.mark.parametrize("passes", [1, 2], ids=["cold", "warm"])
    def test_one_connection_one_commit_per_pass(self, tmp_path,
                                                monkeypatch, passes):
        runner = CampaignRunner(str(tmp_path / "camp"), workers=1,
                                cost_model=COSTS)
        for _ in range(passes - 1):
            runner.run(grid())
        connections = trace_connections(monkeypatch)
        runner.run(grid())
        assert [statements.count("COMMIT") for statements in connections] \
            == [1]

    def test_deleted_store_rebuilt_on_open(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        db = str(tmp_path / "camp" / "campaign.sqlite")
        CampaignRunner(directory, workers=1).run(grid())
        before, found = cli_documents(directory, capsys), tables(db)
        for path in glob.glob(db + "*"):
            os.remove(path)
        assert cli_documents(directory, capsys) == before
        assert tables(db) == found

    def test_open_never_reprices_a_row(self, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        points = grid()
        CampaignRunner(directory, workers=1, cost_model=COSTS).run(points)
        cli_documents(directory, capsys)
        assert tables(str(tmp_path / "camp" / "campaign.sqlite")) \
            == reference_tables(tmp_path, directory, points, COSTS)
