"""Per-layer metrics from the spans ``traced_cli.py`` wrote.

A span's *self time* is its duration minus the part of its interval its
children cover.  Children may sit on other threads (router scatter) or
in other processes (shard workers); they are linked by span id.  The
*blocking path* of a request takes, at every node, the last child to end
in each group of overlapping children (the one the parent waited for).
The self times along it must sum to the request's ``httpd.post`` time;
the median gap over a run's queries must stay within
:data:`SUM_TOLERANCE_PCT`.  Single-threaded paths close exactly; the
router's gap is scatter stagger -- time when only the shard that
answered first was in flight.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

#: Allowed median gap, in percent of httpd.server_ms, between a /query's
#: span time and the sum of self times along its blocking path.
SUM_TOLERANCE_PCT = 2.0

#: Unit of every per-layer metric (BENCHMARK.json lists the same).
UNITS = {
    "httpd.server_ms": "ms",
    "httpd.wait_ms": "ms",
    "trace.self_sum_err_pct": "%",
    "trace.query_p50_ms": "ms",
    "codec.decode_ms": "ms",
    "codec.encode_ms": "ms",
    "codec.response_bytes": "B",
    "facade.query_self_ms": "ms",
    "facade.update_self_ms": "ms",
    "facade.checkpoint_ms": "ms",
    "facade.checkpoints": "count",
    "facade.compact_ms": "ms",
    "facade.compactions": "count",
    "session.solve_ms": "ms",
    "session.lattice_builds": "count",
    "session.lattice_build_ms": "ms",
    "session.reduction_builds": "count",
    "session.reduction_build_ms": "ms",
    "session.cache_mb": "MB",
    "updates.apply_ms": "ms",
    "updates.gate_wait_ms": "ms",
    "updates.lattices_patched": "count",
    "updates.lattices_dropped": "count",
    "updates.cell_entries_kept_pct": "%",
    "wal.append_ms": "ms",
    "wal.bytes_per_user_byte": "ratio",
    "wal.replay_ms": "ms",
    "wal.records_replayed": "count",
    "persist.save_ms": "ms",
    "data.save_csv_ms": "ms",
    "persist.load_ms": "ms",
    "data.load_csv_ms": "ms",
    "gids.search_ms": "ms",
    "core.lower_bound_ms": "ms",
    "dssearch.accumulate_ms": "ms",
    "dssearch.candidate_points_ms": "ms",
    "dssearch.offer_ms": "ms",
    "dssearch.candidates_per_query": "count",
    "asp.points_distances_ms": "ms",
    "canonical.pass1_ms": "ms",
    "canonical.pass2_ms": "ms",
    "router.query_ms": "ms",
    "router.self_ms": "ms",
    "router.shard_skew": "ratio",
    "router.mirror_update_ms": "ms",
    "worker.roundtrip_ms": "ms",
    "worker.handle_ms": "ms",
    "worker.pipe_ms": "ms",
    "worker.frame_bytes": "B",
    "worker.restart_s": "s",
    "proc.cpu_ms_per_op": "ms",
    "writer.late_p50_ms": "ms",
}

#: Span names summed over each /query tree and reported per query.
PER_QUERY = {
    "codec.decode_ms": ("codec.decode",),
    "codec.encode_ms": ("codec.encode", "codec.dumps"),
    "gids.search_ms": ("gids.search",),
    "core.lower_bound_ms": ("core.lower_bound",),
    "dssearch.accumulate_ms": ("dssearch.accumulate",),
    "dssearch.candidate_points_ms": ("dssearch.candidate_points",),
    "dssearch.offer_ms": ("dssearch.offer",),
    "asp.points_distances_ms": ("asp.points_distances",),
    "canonical.pass1_ms": ("canonical.pass1",),
    "canonical.pass2_ms": ("canonical.pass2",),
}

#: Span names whose mean duration per call in the timed phase is reported.
PER_CALL = {
    "facade.compact_ms": "facade.compact",
    "session.solve_ms": "session.solve",
    "updates.apply_ms": "updates.apply",
    "wal.append_ms": "wal.append",
    "router.query_ms": "router.query",
    "worker.roundtrip_ms": "worker.roundtrip",
    "worker.handle_ms": "worker.handle",
}


class Span:
    __slots__ = ("name", "t0", "t1", "id", "parent", "rid", "tid", "attrs",
                 "pid", "children")

    def __init__(self, record, pid: int) -> None:
        (self.name, self.t0, self.t1, self.id, self.parent, self.rid,
         self.tid, self.attrs) = record
        self.pid = pid
        self.children: list = []

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


def load_spans(spans_dir: str) -> list:
    spans = []
    for path in glob.glob(os.path.join(spans_dir, "spans-*.jsonl")):
        pid = int(os.path.basename(path).split("-")[1])
        with open(path) as fh:
            spans.extend(Span(json.loads(line), pid) for line in fh)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            by_id[s.parent].children.append(s)
    return spans


def _union_ns(intervals) -> int:
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def _clipped(span: Span, lo: int, hi: int) -> list:
    """Children as ``(start, end, child)`` clipped to ``[lo, hi]``.

    A child in another process can outlive its parent slightly (a
    worker's ``sendall`` returns after the router already read the
    reply); the parent did not wait for that tail.
    """
    out = []
    for c in span.children:
        a, b = max(c.t0, lo), min(c.t1, hi)
        if a < b:
            out.append((a, b, c))
    return out


def self_ms(span: Span) -> float:
    kids = _clipped(span, span.t0, span.t1)
    return (span.t1 - span.t0 - _union_ns((a, b) for a, b, _ in kids)) / 1e6


def blocking_self_sum(span: Span, lo: int | None = None, hi: int | None = None) -> float:
    """Self times along the blocking path below ``span`` (ms)."""
    lo = span.t0 if lo is None else lo
    hi = span.t1 if hi is None else hi
    kids = sorted(_clipped(span, lo, hi), key=lambda k: k[0])
    total = (hi - lo - _union_ns((a, b) for a, b, _ in kids)) / 1e6
    group: list = []
    for kid in kids:
        if group and kid[0] > max(b for _, b, _ in group):
            total += _last(group)
            group = []
        group.append(kid)
    if group:
        total += _last(group)
    return total


def _last(group: list) -> float:
    a, b, child = max(group, key=lambda k: k[1])
    return blocking_self_sum(child, a, b)


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _mean(values, default=None):
    values = list(values)
    return statistics.fmean(values) if values else default


def _ancestor(span: Span, by_id: dict, name: str):
    while span.parent in by_id:
        span = by_id[span.parent]
        if span.name == name:
            return span
    return None


def layer_metrics(spans: list, windows: list, *, server_pids: set,
                  client_query_ms: list, drills: list, user_bytes: int,
                  stats: dict) -> tuple:
    """``(metrics, detail)``: per-layer values and per-layer self times.

    ``windows`` are the timed read and write phases in monotonic ns;
    ``drills`` the crash drill windows.  Only the layers that ran get a
    metric.
    """
    by_id = {s.id: s for s in spans}
    phase = [s for s in spans
             if any(lo <= s.t0 and s.t1 <= hi for lo, hi in windows)]
    in_drills = [s for s in spans if any(a <= s.t0 <= b for a, b in drills)]
    named: dict = {}
    for s in phase:
        named.setdefault(s.name, []).append(s)
    m: dict = {}

    roots = [s for s in named.get("httpd.post", ()) if s.attrs["path"] == "/query"]
    n_q = len(roots)
    server_ms = statistics.median(s.ms for s in roots)
    m["httpd.server_ms"] = server_ms
    m["httpd.wait_ms"] = statistics.median(client_query_ms) - server_ms
    errors = [abs(blocking_self_sum(r) - r.ms) / r.ms * 100 for r in roots]
    m["trace.self_sum_err_pct"] = statistics.median(errors)
    trees = [list(_walk(r)) for r in roots]
    for metric, names in PER_QUERY.items():
        total = sum(s.ms for tree in trees for s in tree if s.name in names)
        if any(s.name in names for tree in trees for s in tree):
            m[metric] = total / n_q
    offered = [
        sum(s.attrs["rows"] for s in tree if s.name == "dssearch.offer")
        for tree in trees
    ]
    m["dssearch.candidates_per_query"] = _mean(offered)
    dumps = [
        s.attrs["bytes"] for r in roots for s in r.children if s.name == "codec.dumps"
    ]
    m["codec.response_bytes"] = statistics.median(dumps)
    for metric, name in PER_CALL.items():
        if name in named:
            m[metric] = _mean(s.ms for s in named[name])

    local = [s for s in named.get("facade.query", ()) if s.pid in server_pids]
    if local:
        m["facade.query_self_ms"] = _mean(self_ms(s) for s in local)
    updates = [s for s in named.get("facade.update", ()) if s.pid in server_pids]
    if "router.update" in named:
        m["router.mirror_update_ms"] = _mean(s.ms for s in updates)
    elif updates:
        m["facade.update_self_ms"] = _mean(self_ms(s) for s in updates)
    if "facade.compact" in named:
        m["facade.compactions"] = len(named["facade.compact"])
    # Checkpoints run at close (ingest's policy has no mid-run trigger;
    # shard workers checkpoint when the router closes them), so these
    # come from the whole run, not the phase.
    checkpoints = [s for s in spans if s.name == "facade.checkpoint"]
    if checkpoints:
        m["facade.checkpoints"] = len(checkpoints)
        m["facade.checkpoint_ms"] = _mean(s.ms for s in checkpoints)
        for metric, name in (("persist.save_ms", "persist.save"),
                             ("data.save_csv_ms", "data.save_csv")):
            m[metric] = _mean(c.ms for s in checkpoints for c in _walk(s)
                              if c.name == name)
    for name, metric in (("session.lattice_build", "session.lattice"),
                         ("session.reduction_build", "session.reduction")):
        if n_q and "gids.search" in named:
            found = named.get(name, [])
            m[f"{metric}_builds"] = len(found)
            m[f"{metric}_build_ms"] = sum(s.ms for s in found)
    if "pool" in stats:
        m["session.cache_mb"] = stats["pool"]["bytes"] / (1 << 20)

    applies = named.get("updates.apply", [])
    if applies:
        waits = [
            (c.t0 - s.t0) / 1e6
            for s in applies for c in s.children if c.name == "updates.exclusive"
        ]
        m["updates.gate_wait_ms"] = _mean(waits)
        got = [s.attrs for s in applies if s.attrs]
        m["updates.lattices_patched"] = sum(a["patched"] for a in got)
        m["updates.lattices_dropped"] = sum(a["dropped"] for a in got)
        kept = sum(a["kept"] for a in got)
        cells = kept + sum(a["cells_dropped"] for a in got)
        if cells:
            m["updates.cell_entries_kept_pct"] = 100.0 * kept / cells
    if "wal.append" in named and user_bytes:
        m["wal.bytes_per_user_byte"] = (
            sum(s.attrs["grew"] for s in named["wal.append"]) / user_bytes
        )
    replays = [s for s in in_drills if s.name == "wal.replay" and s.attrs]
    if replays:
        m["wal.replay_ms"] = _mean(s.ms for s in replays)
        m["wal.records_replayed"] = _mean(s.attrs["applied"] for s in replays)
    for metric, name in (("persist.load_ms", "persist.load"),
                         ("data.load_csv_ms", "data.load_csv")):
        found = [s.ms for s in spans if s.name == name]
        if found:
            m[metric] = _mean(found)

    if "router.query" in named:
        own, skews = [], []
        for rq in named["router.query"]:
            trips = [
                s.ms for s in _walk(rq)
                if s.name == "worker.roundtrip" and s.id != rq.id
            ]
            if trips:  # a refused query (dead shard) scatters nothing
                own.append(rq.ms - max(trips))
                skews.append(max(trips) / statistics.fmean(trips))
        m["router.self_ms"] = _mean(own)
        m["router.shard_skew"] = _mean(skews)
        handles = {s.parent: s for s in named.get("worker.handle", ())}
        pipes = [
            rt.ms - handles[rt.id].ms
            for rt in named["worker.roundtrip"] if rt.id in handles
        ]
        m["worker.pipe_ms"] = _mean(pipes)
        m["worker.frame_bytes"] = _mean(
            s.attrs["bytes"] for s in named.get("worker.send_frame", ())
        )
        restarts = [
            s.ms / 1000 for s in spans
            if s.name == "worker.start" and _ancestor(s, by_id, "router.recover")
        ]
        if restarts:
            m["worker.restart_s"] = _mean(restarts)

    detail: dict = {}
    for tree in trees:
        for s in tree:
            row = detail.setdefault(s.name, [0, 0.0])
            row[0] += 1
            row[1] += self_ms(s)
    per_layer_self = {
        name: {"calls_per_query": c / n_q, "self_ms_per_query": t / n_q}
        for name, (c, t) in sorted(detail.items())
    }
    return {k: v for k, v in m.items() if v is not None}, per_layer_self
