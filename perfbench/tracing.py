"""Spans recorded from outside the program, around calls into each layer.

The traced run wraps public callables of one live ``TenantService`` and its
shared ``SegmentStore``; nothing in the package changes.  A span has a name,
start, end, parent and request id.  Generator calls (``scan`` and
``read_segment``) get one span each whose ``busy`` time counts only the time
spent inside the generator, not the consumer's work between rows, and whose
``items`` counts the rows it yielded.  A span's self time is its busy time
minus its children's.  Spans stay in memory until ``write`` at the end.

ETL split workers run in forked processes where nothing is recorded; their
figures come from the ``BatchResult`` the pipeline returns.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

import eduwarehouse.etl as etl_module
from eduwarehouse.store import SegmentStore

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "busy", "parent", "request",
                 "items", "attrs")

    def __init__(self, sid: int, name: str, parent: "Span | None", request):
        self.sid = sid
        self.name = name
        self.start = _clock()
        self.end = None
        self.busy = 0.0
        self.parent = parent.sid if parent is not None else None
        if request is None:
            request = parent.request if parent is not None else f"r{sid}"
        self.request = request
        self.items = 0
        self.attrs: dict = {}

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "busy": self.busy, "parent": self.parent, "request": self.request,
                "items": self.items, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # request key (session token, or tenant key for uploads) -> request id
        self._requests: dict[str, str] = {}
        self._undo: list = []

    # ---- span bookkeeping ----

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request=None) -> Span:
        stack = self._stack()
        return Span(next(self._ids), name, stack[-1] if stack else None, request)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def client_span(self, name: str, request: str, start: float, end: float, **attrs) -> None:
        """A request timed by a load generator (outside the server)."""
        span = Span(next(self._ids), name, None, request)
        span.start, span.end, span.busy = start, end, end - start
        span.attrs.update(attrs)
        self._record(span)

    def begin_request(self, key: str, request: str) -> None:
        self._requests[key] = request

    def end_request(self, key: str) -> None:
        self._requests.pop(key, None)

    # ---- wrappers ----

    def _wrap_call(self, name, fn, request_key=None, annotate=None):
        def wrapper(*args, **kwargs):
            request = self._requests.get(request_key(args)) if request_key else None
            span = self._open(name, request)
            stack = self._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = _clock()
                span.busy = span.end - span.start
                self._record(span)
            if annotate is not None:
                annotate(span, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if annotate is not None:
                annotate(span, args, None)
            inner = fn(*args, **kwargs)

            def run():
                stack = self._stack()
                try:
                    while True:
                        stack.append(span)
                        t0 = _clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.busy += _clock() - t0
                            stack.pop()
                        span.items += 1
                        yield item
                finally:
                    inner.close()
                    span.end = _clock()
                    self._record(span)
            return run()
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, had, original))

    def install(self, service, cube_info: dict) -> None:
        """Wrap the live service's layer entry points.

        ``cube_info`` receives (cube, version) -> (rows, bytes) for every
        cube build, so report spans can be related to the cube they read.
        """
        store: SegmentStore = service.store
        schema = store.schema

        def table_of(span, args, _result):
            span.attrs["table"] = args[0]
            table = schema.tables.get(args[0])
            span.attrs["kind"] = table.table_class if table is not None else "cube"

        def segment_table(span, args, _result):
            span.attrs["table"] = args[0].table

        def etl_result(span, args, result):
            span.attrs.update(table=args[1], splits=result.n_m, rows_out=result.rows_out,
                              effective_s=result.effective_time,
                              cumulative_s=result.cumulative_time, wall_s=result.wall_time)

        def build_result(span, args, result):
            spec = args[0]
            path = store.root / spec.table_name / f"{result.version:06d}.seg"
            try:
                size = path.stat().st_size
            except OSError:
                size = None
            cube_info[spec.name, result.version] = (result.cube_rows, size)
            span.attrs.update(cube=spec.name, version=result.version,
                              rows_scanned=result.rows_scanned,
                              rows_excluded=result.rows_excluded,
                              cube_rows=result.cube_rows, cube_bytes=size)

        def report_result(span, args, result):
            cube = service.query.catalog[args[1]].cube
            span.attrs.update(report=args[1], cube=cube, version=result.cube_version,
                              rows_returned=len(result.rows))

        self._patch(service.pipeline, "run", self._wrap_call(
            "etl.run", service.pipeline.run, lambda a: a[2].value, etl_result))
        self._patch(service.query, "generate_report", self._wrap_call(
            "olap.report", service.query.generate_report,
            lambda a: a[0].session_id, report_result))
        engine = service.refresher.engine
        self._patch(engine, "build", self._wrap_call("cube.build", engine.build,
                                                     annotate=build_result))
        self._patch(store, "commit_batch", self._wrap_call(
            "store.commit", store.commit_batch))
        self._patch(store, "segments", self._wrap_call(
            "store.segments", store.segments))
        self._patch(store, "scan", self._wrap_generator(
            "store.scan", store.scan, table_of))
        self._patch(store, "read_segment", self._wrap_generator(
            "store.read_segment", store.read_segment, segment_table))
        self._patch(etl_module, "plan_splits", self._wrap_call(
            "etl.plan", etl_module.plan_splits))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_json()) + "\n")
