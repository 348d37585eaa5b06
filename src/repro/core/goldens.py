"""Golden-figure definitions: the regression net under the paper figures.

Each golden is a *small but shape-complete* instance of a paper figure
(or of the sample-trace replay) whose summary metrics are checked into
``tests/golden/`` as JSON and asserted **exactly equal** on every run —
the whole stack is deterministic, so any drift, however small, is a
behavior change that must be either fixed or consciously re-baselined
with ``make golden-refresh``.

The computations live here (not in the test file) so the pytest tier and
``tools/refresh_goldens.py`` can never disagree about what a golden
means.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict

#: Repo-relative directory holding the checked-in goldens.
GOLDEN_DIR = os.path.join("tests", "golden")

#: Bundled sample trace (repo-relative).
SAMPLE_TRACE = os.path.join("examples", "sample_msr.csv")


def golden_fig3() -> Dict[str, Any]:
    """Fig. 3 summary metrics: two Table II configs, five bars each.

    C1 and C6 bracket the design space (smallest vs 16-channel) and pin
    both the absolute bar heights and the scaling ratio between them.
    """
    from .experiments import fig3_sweep
    from .sweep import SweepRunner
    rows = fig3_sweep(n_commands=120, configs=["C1", "C6"],
                      runner=SweepRunner(workers=1))
    return {name: row.as_dict() for name, row in rows.items()}


def golden_fig5() -> Dict[str, Any]:
    """Fig. 5 endpoints: fixed vs adaptive BCH at fresh and worn-out."""
    from .experiments import fig5_wearout_sweep
    from .sweep import SweepRunner
    series = fig5_wearout_sweep(fractions=[0.0, 1.0], n_commands=80,
                                runner=SweepRunner(workers=1))
    return {key: [[fraction, mbps] for fraction, mbps in points]
            for key, points in series.items()}


def golden_sample_trace(repo_root: str = ".") -> Dict[str, Any]:
    """The bundled sample trace: characterization + replay RunResult."""
    from .tracereplay import TraceWorkload, replay_trace
    path = os.path.join(repo_root, SAMPLE_TRACE)
    outcome = replay_trace(TraceWorkload.from_file(path),
                           label="golden/sample-trace")
    return {"profile": outcome.profile.to_dict(),
            "result": outcome.result.to_payload()}


def golden_ftl_sample_trace(repo_root: str = ".") -> Dict[str, Any]:
    """The sample trace through the real-FTL device: page-map reference
    plus DFTL at a pinned mid-size DRAM budget.

    Pins the whole FTL stack — preconditioning, GC, victim selection,
    translation paging, replay timing and the counter/footprint payload.
    Any behavior drift in a scheme shows up as a byte diff here.
    """
    from .ftlsweep import ftl_sweep
    from .sweep import SweepRunner
    from .tracereplay import TraceWorkload
    path = os.path.join(repo_root, SAMPLE_TRACE)
    payloads = ftl_sweep(TraceWorkload.from_file(path),
                         schemes=["pagemap", "dftl"],
                         dram_budgets=[8192],
                         runner=SweepRunner(workers=1))
    return payloads


def golden_tenants_small() -> Dict[str, Any]:
    """A 3-tenant mix under both arbitration policies (synthetic only).

    Pins the whole multi-initiator stack — queue-pair arbitration, the
    static stream merge, namespace partitioning, tail percentiles (exact
    nearest-rank over the tenant's N commands), share accounting and
    the pairwise interference matrix.
    Any behavior drift in arbitration or placement shows up as a byte
    diff here.
    """
    from .sweep import SweepRunner
    from .tenantsweep import tenant_sweep
    return tenant_sweep(counts=[3], policies=["rr", "wrr"],
                        runner=SweepRunner(workers=1))


GOLDENS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "fig3": golden_fig3,
    "fig5": golden_fig5,
    "sample_trace": golden_sample_trace,
    "ftl_sample_trace": golden_ftl_sample_trace,
    "tenants_small": golden_tenants_small,
}


def compute_golden(name: str, repo_root: str = ".") -> Dict[str, Any]:
    """Compute one golden document (repo-root-relative inputs)."""
    builder = GOLDENS[name]
    if name in ("sample_trace", "ftl_sample_trace"):
        return builder(repo_root)
    return builder()


def golden_path(name: str, repo_root: str = ".") -> str:
    return os.path.join(repo_root, GOLDEN_DIR, f"{name}.json")


def serialize_golden(document: Dict[str, Any]) -> str:
    """The canonical on-disk form — stable across refreshes."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def load_golden(name: str, repo_root: str = ".") -> Dict[str, Any]:
    with open(golden_path(name, repo_root), "r", encoding="utf-8") as fh:
        return json.load(fh)


def refresh_goldens(repo_root: str = ".") -> Dict[str, str]:
    """(Re)write every golden; returns {name: path}.

    Writing is idempotent: refreshing on an unchanged tree produces
    byte-identical files (asserted by the golden tier itself).
    """
    written: Dict[str, str] = {}
    os.makedirs(os.path.join(repo_root, GOLDEN_DIR), exist_ok=True)
    for name in sorted(GOLDENS):
        path = golden_path(name, repo_root)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_golden(compute_golden(name, repo_root)))
        written[name] = path
    return written
