"""SQLite result store: durable, queryable campaign results.

The content-addressed envelope cache (:class:`~repro.core.sweep.SweepCache`)
is the source of truth for *payload bytes*; this store is the queryable
index on top — the DAVOS-style decision-support layer.  Schema:

* ``campaigns``  — one row per campaign (name, salt, point count),
* ``points``     — one row per (campaign, point): fingerprint key,
  evaluator, status, resource cost, full payload JSON,
* ``metrics``    — the payload flattened to dotted numeric leaves
  (``latency_us.p95``, ``reliability.uber``, ``trace_profile.records``…)
  so any figure can be filtered/sorted in SQL,
* ``failures``   — post-mortem record (error type, message, traceback)
  for every failed point.

Writers are idempotent (``INSERT OR REPLACE`` keyed by campaign+name),
and a campaign has one: :meth:`~repro.core.campaign.Campaign.index`
projects the published envelopes here in one transaction.  WAL mode and
a busy timeout let concurrent indexers serialize instead of erroring.
"""

from __future__ import annotations

import json
import operator
import sqlite3
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..ssd.metrics import json_safe
from .pareto import (ParetoEntry, entry_best, entry_cheapest_within,
                     entry_frontier)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id   TEXT PRIMARY KEY,
    name          TEXT NOT NULL,
    salt          TEXT NOT NULL,
    total_points  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    campaign_id   TEXT NOT NULL,
    name          TEXT NOT NULL,
    key           TEXT,
    evaluator     TEXT NOT NULL DEFAULT '',
    status        TEXT NOT NULL,
    cost          REAL,
    events        INTEGER NOT NULL DEFAULT 0,
    elapsed_s     REAL NOT NULL DEFAULT 0.0,
    payload       TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (campaign_id, name)
);
CREATE TABLE IF NOT EXISTS metrics (
    campaign_id   TEXT NOT NULL,
    name          TEXT NOT NULL,
    metric        TEXT NOT NULL,
    value         REAL NOT NULL,
    PRIMARY KEY (campaign_id, name, metric)
);
CREATE TABLE IF NOT EXISTS failures (
    campaign_id   TEXT NOT NULL,
    name          TEXT NOT NULL,
    error_type    TEXT NOT NULL,
    message       TEXT NOT NULL,
    traceback     TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign_id, name)
);
"""

#: Comparison operators accepted by :func:`parse_constraint`, longest
#: first so ``<=`` is never mis-split as ``<``.
_OPERATORS: Tuple[Tuple[str, Callable[[float, float], bool]], ...] = (
    ("<=", operator.le), (">=", operator.ge), ("==", operator.eq),
    ("!=", operator.ne), ("<", operator.lt), (">", operator.gt),
)


def parse_constraint(text: str) -> Tuple[str, str, float]:
    """Parse ``"metric<=bound"`` into ``(metric, op, bound)``."""
    for symbol, _ in _OPERATORS:
        if symbol in text:
            metric, _, bound = text.partition(symbol)
            metric = metric.strip()
            try:
                return metric, symbol, float(bound.strip())
            except ValueError:
                break
    raise ValueError(f"cannot parse constraint {text!r}; expected "
                     f"'metric<=bound' with one of "
                     f"{[sym for sym, _ in _OPERATORS]}")


def _operator_fn(symbol: str) -> Callable[[float, float], bool]:
    for known, fn in _OPERATORS:
        if known == symbol:
            return fn
    raise ValueError(f"unknown constraint operator {symbol!r}")


def flatten_metrics(payload: Mapping[str, Any],
                    prefix: str = "") -> Dict[str, float]:
    """Flatten nested numeric leaves to dotted metric names.

    Booleans become 0/1, non-finite floats are dropped (they are ``null``
    after :func:`~repro.ssd.metrics.json_safe` anyway), strings and lists
    are skipped — metrics are things you can order by.
    """
    out: Dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten_metrics(value, prefix=f"{path}."))
        elif isinstance(value, bool):
            out[path] = float(value)
        elif isinstance(value, (int, float)) and value == value \
                and value not in (float("inf"), float("-inf")):
            out[path] = float(value)
    return out


def envelope_status(envelope: Mapping[str, Any]) -> str:
    """The ``points.status`` a published envelope is recorded under."""
    return "failed" if envelope.get("failure") else "ok"


class ResultStore:
    """One SQLite database of campaign results (see module docstring).

    Each process opens its own instance; connections are lazy and
    WAL-journaled.  Writes form one transaction, committed when the
    store closes cleanly and rolled back when it closes on an exception.
    """

    def __init__(self, path: str, timeout_s: float = 30.0):
        self.path = str(path)
        self.timeout_s = timeout_s
        self._conn: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = sqlite3.connect(self.path, timeout=self.timeout_s)
            conn.row_factory = sqlite3.Row
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.OperationalError:
                pass  # e.g. WAL unsupported on this filesystem: defaults
            conn.execute(f"PRAGMA busy_timeout={int(self.timeout_s * 1000)}")
            with conn:
                conn.executescript(_SCHEMA)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None and self._conn is not None:
            self._conn.rollback()
        self.close()

    # ------------------------------------------------------------------
    # Writers

    def record_campaign(self, campaign_id: str, salt: str,
                        total_points: int, name: str = "") -> None:
        self._connection().execute(
            "INSERT OR REPLACE INTO campaigns "
            "(campaign_id, name, salt, total_points) VALUES (?,?,?,?)",
            (campaign_id, name or campaign_id, salt, total_points))

    def record_point(self, campaign_id: str, name: str,
                     envelope: Mapping[str, Any],
                     key: Optional[str] = None,
                     cost: Optional[float] = None) -> None:
        """Record one published envelope (idempotent).

        ``envelope`` is the cache envelope produced by the sweep
        evaluators: ``payload`` + ``events`` + ``elapsed_s`` and an
        optional ``failure`` record.  The payload is re-sanitized with
        :func:`json_safe` so the stored JSON never carries ``Infinity`` /
        ``NaN`` tokens regardless of what the evaluator returned.
        """
        payload = json_safe(dict(envelope.get("payload") or {}))
        failure = envelope.get("failure")
        status = envelope_status(envelope)
        conn = self._connection()
        conn.execute(
            "INSERT OR REPLACE INTO points (campaign_id, name, key, "
            "evaluator, status, cost, events, elapsed_s, payload) "
            "VALUES (?,?,?,?,?,?,?,?,?)",
            (campaign_id, name, key,
             str(envelope.get("evaluator", "")), status, cost,
             int(envelope.get("events", 0)),
             float(envelope.get("elapsed_s", 0.0)),
             json.dumps(payload, sort_keys=True)))
        conn.execute("DELETE FROM metrics WHERE campaign_id=? AND name=?",
                     (campaign_id, name))
        conn.executemany(
            "INSERT OR REPLACE INTO metrics VALUES (?,?,?,?)",
            [(campaign_id, name, metric, value)
             for metric, value in sorted(flatten_metrics(payload).items())])
        conn.execute("DELETE FROM failures WHERE campaign_id=? AND name=?",
                     (campaign_id, name))
        if failure:
            conn.execute(
                "INSERT OR REPLACE INTO failures VALUES (?,?,?,?,?)",
                (campaign_id, name,
                 str(failure.get("error_type", "Exception")),
                 str(failure.get("message", "")),
                 str(failure.get("traceback", ""))))

    # ------------------------------------------------------------------
    # Readers

    def campaigns(self) -> List[Dict[str, Any]]:
        conn = self._connection()
        return [dict(row) for row in conn.execute(
            "SELECT * FROM campaigns ORDER BY campaign_id")]

    def points(self, campaign_id: str) -> List[Dict[str, Any]]:
        conn = self._connection()
        return [dict(row) for row in conn.execute(
            "SELECT * FROM points WHERE campaign_id=? ORDER BY name",
            (campaign_id,))]

    def payloads(self, campaign_id: str,
                 include_failed: bool = False) -> Dict[str, Dict[str, Any]]:
        """``{name: payload}`` for the campaign, name-sorted."""
        return {row["name"]: json.loads(row["payload"])
                for row in self.points(campaign_id)
                if include_failed or row["status"] == "ok"}

    def metrics(self, campaign_id: str) -> Dict[str, Dict[str, float]]:
        """``{name: {metric: value}}`` for successful points."""
        conn = self._connection()
        names = {row["name"] for row in conn.execute(
            "SELECT name FROM points WHERE campaign_id=? AND status='ok'",
            (campaign_id,))}
        table: Dict[str, Dict[str, float]] = {name: {} for name in
                                              sorted(names)}
        for row in conn.execute(
                "SELECT name, metric, value FROM metrics WHERE "
                "campaign_id=? ORDER BY name, metric", (campaign_id,)):
            if row["name"] in table:
                table[row["name"]][row["metric"]] = row["value"]
        return table

    def failures(self, campaign_id: str) -> List[Dict[str, Any]]:
        conn = self._connection()
        return [dict(row) for row in conn.execute(
            "SELECT * FROM failures WHERE campaign_id=? ORDER BY name",
            (campaign_id,))]

    def status_counts(self, campaign_id: str) -> Dict[str, int]:
        conn = self._connection()
        counts = {"ok": 0, "failed": 0}
        for row in conn.execute(
                "SELECT status, COUNT(*) AS n FROM points WHERE "
                "campaign_id=? GROUP BY status", (campaign_id,)):
            counts[row["status"]] = row["n"]
        return counts

    def metric_names(self, campaign_id: str) -> List[str]:
        conn = self._connection()
        return [row["metric"] for row in conn.execute(
            "SELECT DISTINCT metric FROM metrics WHERE campaign_id=? "
            "ORDER BY metric", (campaign_id,))]

    # ------------------------------------------------------------------
    # Decision support

    def entries(self, campaign_id: str, metric: str,
                cost_metric: Optional[str] = None) -> List[ParetoEntry]:
        """(name, cost, value) triples for ranking.

        ``cost`` comes from the points table (the resource cost recorded
        at campaign creation) unless ``cost_metric`` names a payload
        metric to use instead.  Points missing either figure are skipped
        — they cannot be ranked.
        """
        metrics = self.metrics(campaign_id)
        costs: Dict[str, Optional[float]]
        if cost_metric is not None:
            costs = {name: values.get(cost_metric)
                     for name, values in metrics.items()}
        else:
            costs = {row["name"]: row["cost"]
                     for row in self.points(campaign_id)}
        entries = []
        for name, values in metrics.items():
            cost, value = costs.get(name), values.get(metric)
            if cost is None or value is None:
                continue
            entries.append(ParetoEntry(name=name, cost=float(cost),
                                       value=float(value)))
        return sorted(entries, key=lambda e: e.name)

    def pareto_frontier(self, campaign_id: str, metric: str,
                        cost_metric: Optional[str] = None
                        ) -> List[ParetoEntry]:
        """Non-dominated points (cost down, metric up); the SQL-backed
        twin of :meth:`ExplorationResult.pareto_frontier`."""
        return entry_frontier(self.entries(campaign_id, metric,
                                           cost_metric))

    def cheapest_within(self, campaign_id: str, metric: str,
                        fraction: float = 0.95,
                        cost_metric: Optional[str] = None) -> ParetoEntry:
        return entry_cheapest_within(
            self.entries(campaign_id, metric, cost_metric), fraction)

    def best_under_constraint(self, campaign_id: str, metric: str,
                              constraints: Sequence[Tuple[str, str, float]]
                              = (), cost_metric: Optional[str] = None
                              ) -> Optional[ParetoEntry]:
        """Best ``metric`` among points satisfying every constraint.

        Constraints are ``(metric, op, bound)`` triples as produced by
        :func:`parse_constraint`; a point missing a constrained metric is
        infeasible.  Returns ``None`` when nothing qualifies.
        """
        metrics = self.metrics(campaign_id)
        feasible = []
        for entry in self.entries(campaign_id, metric, cost_metric):
            values = metrics.get(entry.name, {})
            ok = True
            for constrained, symbol, bound in constraints:
                value = values.get(constrained)
                if value is None or not _operator_fn(symbol)(value, bound):
                    ok = False
                    break
            if ok:
                feasible.append(entry)
        return entry_best(feasible) if feasible else None

    def query(self, campaign_id: str, metric: str,
              where: Sequence[Tuple[str, str, float]] = (),
              top: Optional[int] = None, ascending: bool = False
              ) -> List[Tuple[str, float]]:
        """``(name, value)`` rows ordered by ``metric``, filtered by
        ``where`` constraints; ties break by name."""
        metrics = self.metrics(campaign_id)
        rows: List[Tuple[str, float]] = []
        for name, values in metrics.items():
            value = values.get(metric)
            if value is None:
                continue
            keep = True
            for constrained, symbol, bound in where:
                other = values.get(constrained)
                if other is None or not _operator_fn(symbol)(other, bound):
                    keep = False
                    break
            if keep:
                rows.append((name, value))
        rows.sort(key=lambda row: (row[1] if ascending else -row[1],
                                   row[0]))
        return rows[:top] if top else rows
