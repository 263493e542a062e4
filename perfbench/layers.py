"""Per-layer metrics of a traced run, computed from its spans.

Only spans that start inside the measured window count, except
``auth.authenticate_ms``, which comes from the set-up's logins.
``cube.refresh_lag_s_p50`` is fact commit to cube containing it, from
``CubeRefresher.lag_samples``, for the window's uploads.  A layer that
does no work in the window reports 0.  Each metric names the end-to-end
metric it should move and the workloads where it should move it.
"""

from __future__ import annotations

from collections import defaultdict

from stats import median

FACT_CUBE = "student_performance"
CUBES = ("student_performance", "teaching_quality", "student_counts")

_ITV = "ingest_to_visible"
_RF = "report_fanout"
_BOTH = "ingest_to_visible, report_fanout"
_VIS = "visible_s_mean"
# name, unit, end-to-end metric it should move, workloads where it should
LAYER_METRICS = (
    ("service.upload.self_ms", "ms", "upload_ms_p50", _ITV),
    ("service.report.self_ms", "ms", "report_ms_p50, report_rps", _BOTH),
    ("auth.authenticate_ms", "ms", "setup_s", _BOTH),
    ("etl.run_ms", "ms", "upload_ms_p50, visible_s_mean", _ITV),
    ("etl.plan_ms", "ms", "upload_ms_p50, visible_s_mean", _ITV),
    ("etl.splits", "count", "upload_ms_p50, visible_s_mean", _ITV),
    ("etl.split_busy_ms", "ms", "upload_ms_p50, visible_s_mean", _ITV),
    ("etl.pool_overhead_ms", "ms", "upload_ms_p50, visible_s_mean", _ITV),
    ("etl.rows_per_s", "1/s", "upload_ms_p50, visible_s_mean", _ITV),
    ("store.commit_ms", "ms", f"upload_ms_p50, {_VIS}", _ITV),
    ("store.segments_calls.per_report", "count", "report_ms_p50, report_rps", _BOTH),
    ("store.segments_ms.per_report", "ms", "report_ms_p50, report_rps", _BOTH),
    ("store.segments_calls.per_build", "count", _VIS, _ITV),
    ("store.segments_ms.per_build", "ms", _VIS, _ITV),
    ("store.scan_ms.fact", "ms", _VIS, _ITV),
    ("store.scan_ms.dim", "ms", _VIS, _ITV),
    ("store.rows_read", "count", _VIS, _ITV),
    ("store.rows_kept", "count", _VIS, _ITV),
    ("store.dedupe_keep_ratio", "ratio", _VIS, _ITV),
    *((f"cube.build_ms.{c}", "ms", _VIS, _ITV) for c in CUBES),
    ("cube.self_ms", "ms", _VIS, _ITV),
    ("cube.rows_scanned", "count", _VIS, _ITV),
    ("cube.rows_excluded", "count", _VIS, _ITV),
    ("cube.rows", "count", f"{_VIS}, report_ms_p50", _ITV),
    ("cube.bytes", "B", "stored_bytes_per_input_byte", _ITV),
    ("cube.builds_completed", "count", "visible_s_mean", _ITV),
    ("cube.refresh_lag_s_p50", "s", "visible_s_mean", _ITV),
    ("olap.report_ms", "ms", "report_ms_p50, report_ms_p90, report_rps", _RF),
    ("olap.self_ms", "ms", "report_ms_p50, report_ms_p90, report_rps", _RF),
    ("olap.rows_examined_per_row_returned", "ratio", "report_ms_p50, report_rps", _RF),
    ("olap.bytes_scanned_per_report", "B", "report_ms_p50, report_rps", _RF),
)


class SpanIndex:
    def __init__(self, spans):
        self.spans = [s for s in spans if s.end is not None]
        self.by_id = {s.sid: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def self_time(self, span) -> float:
        return span.busy - sum(c.busy for c in self.children[span.sid])

    def root(self, span):
        while span.parent in self.by_id:
            span = self.by_id[span.parent]
        return span


def per_layer(spans, window, auth_samples, lag_samples, cube_info) -> tuple[dict, dict]:
    """(metric name -> value, layer -> total self ms in the window)."""
    idx = SpanIndex(spans)
    t0, t1 = window
    inside = [s for s in idx.spans if t0 <= s.start <= t1]
    named = defaultdict(list)
    for s in inside:
        named[s.name].append(s)
    by_request = {s.request: s for s in inside if s.name in ("etl.run", "olap.report")}

    def service_self(client_name, server_name):
        out = []
        for s in named[client_name]:
            server = by_request.get(s.request)
            if server is not None and server.name == server_name:
                out.append(s.busy - server.busy)
        return out

    upload_self = service_self("service.upload", "etl.run")
    report_self = service_self("service.report", "olap.report")
    runs = named["etl.run"]
    run_ids = {s.sid for s in runs}
    reports = named["olap.report"]
    builds = named["cube.build"]
    fact_builds = [s for s in builds if s.attrs.get("cube") == FACT_CUBE]

    def segments_under(roots):
        ids = {s.sid for s in roots}
        return [s for s in named["store.segments"] if idx.root(s).sid in ids]

    seg_report = segments_under(reports)
    seg_build = segments_under(builds)

    scans = defaultdict(list)  # (build id, kind) -> scan spans
    for s in named["store.scan"]:
        scans[idx.root(s).sid, s.attrs.get("kind")].append(s)
    fact_scan_ms, dim_scan_ms, rows_read, rows_kept = [], [], [], []
    for b in fact_builds:
        fact = scans[b.sid, "fact"]
        fact_scan_ms.append(1000 * sum(s.busy for s in fact))
        dim_scan_ms.append(1000 * sum(s.busy for s in scans[b.sid, "dimension"]))
        rows_kept.append(sum(s.items for s in fact))
        rows_read.append(sum(r.items for s in fact for r in idx.children[s.sid]
                             if r.name == "store.read_segment"))

    examined = returned = 0
    scanned_bytes = []
    for s in reports:
        info = cube_info.get((s.attrs.get("cube"), s.attrs.get("version")))
        if info is not None:
            examined += info[0]
            returned += s.attrs["rows_returned"]
            if info[1] is not None:
                scanned_bytes.append(info[1])

    def attr_median(spans_, key, scale=1.0):
        return median(scale * s.attrs[key] for s in spans_)

    def per_op(parts, ops, f):
        return f(parts) / len(ops) if ops else 0.0

    values = {
        "service.upload.self_ms": 1000 * median(upload_self),
        "service.report.self_ms": 1000 * median(report_self),
        "auth.authenticate_ms": 1000 * median(auth_samples),
        "etl.run_ms": 1000 * median(s.busy for s in runs),
        "etl.plan_ms": 1000 * median(s.busy for s in named["etl.plan"] if s.parent in run_ids),
        "etl.splits": attr_median(runs, "splits"),
        "etl.split_busy_ms": attr_median(runs, "cumulative_s", 1000),
        "etl.pool_overhead_ms": median(1000 * (s.attrs["wall_s"] - s.attrs["effective_s"])
                                       for s in runs),
        "etl.rows_per_s": median(s.attrs["rows_out"] / s.attrs["wall_s"] for s in runs),
        "store.commit_ms": 1000 * median(s.busy for s in named["store.commit"]),
        "store.segments_calls.per_report": per_op(seg_report, reports, len),
        "store.segments_ms.per_report": per_op(
            seg_report, reports, lambda p: 1000 * sum(s.busy for s in p)),
        "store.segments_calls.per_build": per_op(seg_build, builds, len),
        "store.segments_ms.per_build": per_op(
            seg_build, builds, lambda p: 1000 * sum(s.busy for s in p)),
        "store.scan_ms.fact": median(fact_scan_ms),
        "store.scan_ms.dim": median(dim_scan_ms),
        "store.rows_read": median(rows_read),
        "store.rows_kept": median(rows_kept),
        "store.dedupe_keep_ratio": sum(rows_kept) / sum(rows_read) if sum(rows_read) else 0.0,
        **{f"cube.build_ms.{c}": 1000 * median(s.busy for s in builds
                                               if s.attrs.get("cube") == c) for c in CUBES},
        "cube.self_ms": 1000 * median(idx.self_time(s) for s in fact_builds),
        "cube.rows_scanned": attr_median(fact_builds, "rows_scanned"),
        "cube.rows_excluded": attr_median(fact_builds, "rows_excluded"),
        "cube.rows": attr_median(fact_builds, "cube_rows"),
        "cube.bytes": median(s.attrs["cube_bytes"] for s in fact_builds
                             if s.attrs.get("cube_bytes") is not None),
        "cube.builds_completed": len(fact_builds),
        "cube.refresh_lag_s_p50": median(lag_samples),
        "olap.report_ms": 1000 * median(s.busy for s in reports),
        "olap.self_ms": 1000 * median(idx.self_time(s) for s in reports),
        "olap.rows_examined_per_row_returned": examined / returned if returned else 0.0,
        "olap.bytes_scanned_per_report": median(scanned_bytes),
    }

    self_ms = {
        "service": 1000 * (sum(upload_self) + sum(report_self)),
        "etl": 1000 * sum(idx.self_time(s) for s in runs),
        "store": 1000 * sum(idx.self_time(s) for s in inside if s.name.startswith("store.")),
        "cube": 1000 * sum(idx.self_time(s) for s in builds),
        "olap": 1000 * sum(idx.self_time(s) for s in reports),
    }
    return values, self_ms
