"""Per-layer numbers from the span files ``traced_server.py`` writes."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: every span the traced server records, by layer
SPAN_NAMES = (
    "app.handle",
    "protocol.mutation",
    "protocol.encode_line",
    "writer.submit",
    "writer.lease",
    "log.encode_op",
    "log.append_many",
    "db.insert",
    "db.update",
    "db.delete",
    "db.open",
    "session.result",
    "lease.instance",
    "testfd.check_fds",
    "query.parse_query",
    "query.relation_stats",
    "query.evaluator_run",
    "analysis.lint_query_request",
    "api.to_payload",
)

SPAN_STATS = (("count", "count"), ("busy_s", "s"), ("self_s", "s"), ("p50_ms", "ms"))

DERIVED = (
    ("writer.queue_wait_ms", "ms"),
    ("writer.durable_wait_ms", "ms"),
    ("log.records_per_append", "count"),
    ("log.bytes_per_record", "B"),
    ("lease.detached_share", "ratio"),
    ("span_coverage", "ratio"),
)

# span record fields
ID, PARENT, NAME, START, END, RID, THREAD, ATTRS = range(8)


def load(paths: Iterable[Path]) -> List[list]:
    """Spans of several server processes, ids made unique per file."""
    spans: List[list] = []
    for number, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                span[ID] = (number, span[ID])
                if span[PARENT] is not None:
                    span[PARENT] = (number, span[PARENT])
                if span[ATTRS] and span[ATTRS].get("lease") is not None:
                    span[ATTRS]["lease"] = (number, span[ATTRS]["lease"])
                spans.append(span)
    return spans


def _covered(start: int, end: int, intervals: List[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _link_detached(spans: List[list]) -> None:
    """Give executor-thread ``lease.instance`` spans the request that took
    the lease as parent (the ``app.handle`` above its ``writer.lease``)."""
    lease_owner = {}
    for span in spans:
        if span[NAME] == "writer.lease" and span[ATTRS]:
            lease_owner[span[ATTRS]["lease"]] = span[PARENT]
    for span in spans:
        if span[NAME] == "lease.instance" and span[PARENT] is None and span[ATTRS]:
            span[PARENT] = lease_owner.get(span[ATTRS]["lease"])


def analyse(spans: List[list]) -> Dict[str, float]:
    """``<span>.count/.busy_s/.self_s/.p50_ms`` plus the derived metrics."""
    _link_detached(spans)
    by_id = {span[ID]: span for span in spans}
    children: Dict[tuple, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] in by_id:
            children[span[PARENT]].append((span[START], span[END]))

    durations: Dict[str, List[int]] = defaultdict(list)
    self_ns: Dict[str, int] = defaultdict(int)
    for span in spans:
        length = span[END] - span[START]
        durations[span[NAME]].append(length)
        self_ns[span[NAME]] += length - _covered(
            span[START], span[END], children.get(span[ID], [])
        )

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        lengths = durations.get(name, [])
        metrics[f"{name}.count"] = len(lengths)
        metrics[f"{name}.busy_s"] = sum(lengths) / 1e9
        metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        metrics[f"{name}.p50_ms"] = statistics.median(lengths) / 1e6 if lengths else 0.0

    queue_waits, durable_waits = [], []
    for span in spans:
        if span[NAME] != "protocol.mutation":
            continue
        submit = by_id.get(span[PARENT])
        if submit is not None and submit[NAME] == "writer.submit":
            queue_waits.append(span[START] - submit[START])
            durable_waits.append(submit[END] - span[END])
    metrics["writer.queue_wait_ms"] = _mean(queue_waits) / 1e6
    metrics["writer.durable_wait_ms"] = _mean(durable_waits) / 1e6

    appends = [span[ATTRS] for span in spans if span[NAME] == "log.append_many"]
    records = sum(attrs["records"] for attrs in appends)
    metrics["log.records_per_append"] = records / len(appends) if appends else 0.0
    metrics["log.bytes_per_record"] = (
        sum(attrs["bytes"] for attrs in appends) / records if records else 0.0
    )

    leases: Dict[tuple, bool] = {}
    for span in spans:
        if span[NAME] == "lease.instance" and span[ATTRS]["lease"] is not None:
            lease = span[ATTRS]["lease"]
            leases[lease] = leases.get(lease, False) or span[ATTRS]["detached"]
    metrics["lease.detached_share"] = (
        sum(leases.values()) / len(leases) if leases else 0.0
    )

    handled = covered = 0
    for span in spans:
        if span[NAME] == "app.handle":
            handled += span[END] - span[START]
            covered += _covered(span[START], span[END], children.get(span[ID], []))
    metrics["span_coverage"] = covered / handled if handled else 0.0
    return metrics


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0
