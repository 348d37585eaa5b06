"""Every CLI leaf runs through ``main()``; the shared output and error
contracts hold on all of them.

``LEAF_ARGV`` must name every leaf subcommand of ``build_parser()``, so
a leaf added without a smoke invocation fails
``test_every_leaf_has_an_invocation``.
"""

import argparse
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SAMPLE = os.path.join(ROOT, "examples", "sample_msr.csv")

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multi-worker sweeps need the fork start method")

#: One tiny invocation per leaf.  ``{tmp}`` is a per-test directory;
#: ``{campaign}`` and ``{reliability}`` are directories that the
#: ``stores`` fixture has already filled.
LEAF_ARGV = {
    ("features",): ["features"],
    ("validate",): ["validate", "--commands", "40"],
    ("fig3",): ["fig3", "--configs", "C1", "--commands", "40",
                "--workers", "1"],
    ("fig4",): ["fig4", "--configs", "C1", "--commands", "40",
                "--workers", "1"],
    ("fig5",): ["fig5", "--commands", "40", "--steps", "1",
                "--workers", "1"],
    ("fig6",): ["fig6", "--commands", "20"],
    ("faults",): ["faults", "--commands", "40", "--workers", "1"],
    ("run",): ["run", "--workload", "SW", "--commands", "40"],
    ("profile",): ["profile", "--workload", "SR", "--commands", "40",
                   "--top", "3", "--buckets", "10"],
    ("trace", "characterize"): ["trace", "characterize", SAMPLE,
                                "--limit", "20"],
    ("trace", "replay"): ["trace", "replay", SAMPLE, "--commands", "30"],
    ("trace", "sweep"): ["trace", "sweep", SAMPLE, "--configs", "C1",
                         "--commands", "30", "--workers", "1"],
    ("trace", "convert"): ["trace", "convert", SAMPLE, "{tmp}/out.trace",
                           "--to", "native", "--commands", "10"],
    ("ftl", "schemes"): ["ftl", "schemes"],
    ("ftl", "sweep"): ["ftl", "sweep", SAMPLE, "--schemes", "pagemap",
                       "--commands", "30", "--workers", "1",
                       "--no-analytic"],
    ("tenants", "run"): ["tenants", "run", "--tenants", "2",
                         "--commands", "16"],
    ("tenants", "report"): ["tenants", "report", "--tenants", "2",
                            "--commands", "16"],
    ("tenants", "sweep"): ["tenants", "sweep", "--counts", "1",
                           "--policies", "rr", "--no-interference",
                           "--workers", "1"],
    ("calibrate",): ["calibrate", "--cache-dir", "{tmp}/cache"],
    ("explore",): ["explore", "--configs", "C1", "--commands", "40",
                   "--workers", "1"],
    ("campaign", "run"): ["campaign", "run", "{tmp}/camp",
                          "--configs", "C1", "--commands", "40",
                          "--workers", "1", "--quiet"],
    ("campaign", "worker"): ["campaign", "worker", "{campaign}"],
    ("campaign", "status"): ["campaign", "status", "{campaign}"],
    ("campaign", "query"): ["campaign", "query", "{campaign}"],
    ("campaign", "report"): ["campaign", "report", "{campaign}"],
    ("reliability", "run"): ["reliability", "run", "{tmp}/rel",
                             "--replicas", "2", "--fractions", "1.0",
                             "--kinds", "read", "--commands", "16",
                             "--workers", "1", "--quiet"],
    ("reliability", "report"): ["reliability", "report", "{reliability}"],
}

#: Leaves whose ``main()`` run is already a test in ``test_cli.py`` and
#: too slow to repeat here.
COVERED_ELSEWHERE = {("report",): "TestReport"}


def _leaves(parser, path=()):
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


LEAVES = dict(_leaves(build_parser()))
JSON_LEAVES = sorted(path for path, parser in LEAVES.items()
                     if "--json" in parser._option_string_actions)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A finished fig3 campaign and a finished reliability campaign."""
    base = tmp_path_factory.mktemp("stores")
    campaign, reliability = str(base / "camp"), str(base / "rel")
    assert main(["campaign", "run", campaign, "--configs", "C1",
                 "--commands", "40", "--workers", "1", "--quiet"]) == 0
    assert main(["reliability", "run", reliability, "--replicas", "2",
                 "--fractions", "1.0", "--kinds", "read", "--commands",
                 "16", "--workers", "1", "--quiet"]) == 0
    return {"campaign": campaign, "reliability": reliability}


def _argv(path, tmp_path, stores):
    return [part.format(tmp=tmp_path, **stores) for part in LEAF_ARGV[path]]


def _id(path):
    return "-".join(path)


def test_every_leaf_has_an_invocation():
    assert set(LEAVES) == set(LEAF_ARGV) | set(COVERED_ELSEWHERE)
    assert len(LEAVES) == 28
    with open(os.path.join(os.path.dirname(__file__), "test_cli.py"),
              encoding="utf-8") as handle:
        source = handle.read()
    for name in COVERED_ELSEWHERE.values():
        assert f"class {name}" in source


@pytest.mark.parametrize("path", sorted(LEAF_ARGV), ids=_id)
def test_leaf_runs(path, tmp_path, stores, capsys):
    assert main(_argv(path, tmp_path, stores)) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", JSON_LEAVES, ids=_id)
def test_json_stdout_is_one_document(path, tmp_path, stores, capsys):
    assert main(_argv(path, tmp_path, stores) + ["--json"]) == 0
    out = capsys.readouterr().out
    json.loads(out)        # raises on progress/summary lines around it


def _repro(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True)


@pytest.mark.parametrize("argv", [
    ["trace", "replay"], ["trace", "characterize"], ["trace", "sweep"],
    ["ftl", "sweep"], ["tenants", "run", "--trace"],
], ids=["trace-replay", "trace-characterize", "trace-sweep", "ftl-sweep",
        "tenants-run"])
def test_missing_trace_is_one_line_error(argv, tmp_path):
    missing = str(tmp_path / "no-such-trace.csv")
    proc = _repro(*argv, missing)
    assert proc.returncode != 0
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert missing in lines[0]
    assert proc.stdout == ""


def test_bad_ftl_utilization_is_one_line_error():
    # Rejected before any point is built: no progress, nothing simulated.
    proc = _repro("ftl", "sweep", SAMPLE, "--utilization", "1.5",
                  "--workers", "1")
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        "logical_utilization must be in (0, 1)"]
    assert proc.stdout == ""


@fork_only
def test_trace_sweep_json_identical_across_worker_counts(capsys):
    outputs = []
    for workers in ("1", "4"):
        assert main(["trace", "sweep", SAMPLE, "--configs", "C1,C6",
                     "--commands", "30", "--workers", workers,
                     "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])["rows"]) == {"C1", "C6"}


def test_api_doc_names_every_subcommand():
    with open(os.path.join(ROOT, "docs", "API.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = set(re.findall(r"[a-z0-9-]+", block.split("repro", 1)[1]))
    assert {path[0] for path in LEAVES} <= listed
