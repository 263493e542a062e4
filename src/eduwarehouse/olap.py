"""Tenant-scoped queries over materialized cubes and the report catalog.

Every query derives its tenant scope from the authenticated context, never
from request parameters: rows whose university_key differs from the session
tenant are unreachable by construction.  Cube files are sorted by tenant, so
a query reads only the byte range its binary search finds for the session
tenant, and still checks the tenant of every line it reads.  Reports are
predefined; a report binds request parameters into filters, selects the cube
rows at its grouping masks, and renders rolled-up attributes as the literal
text "ALL" (which the ETL layer keeps out of key and code values).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from .errors import StorageError, ValidationError
from .etl import record_bounds
from .schema import RESERVED_ROLLUP_TEXT, TenantKey
from .store import Segment, SegmentStore
from .cube import (
    CubeRow,
    CubeSpec,
    builtin_cube_specs,
    cube_columns,
    latest_cube_segment,
    parse_cube_row,
    tenant_range,
)

logger = logging.getLogger(__name__)

ROLLED_UP_TEXT = RESERVED_ROLLUP_TEXT

_ATTR, _MEAN, _SUM, _COUNT = "attr", "mean", "sum", "count"


@dataclass(frozen=True)
class TenantContext:
    """The tenant identity bound to an authenticated session."""

    university_key: TenantKey
    session_id: str


@dataclass(frozen=True)
class OutputColumn:
    """One report column: a cube attribute or an aggregate part."""

    label: str
    source: str
    part: str = _ATTR

    def __post_init__(self) -> None:
        if self.part not in (_ATTR, _MEAN, _SUM, _COUNT):
            raise ValidationError(f"unknown output column part {self.part!r}")


@dataclass(frozen=True)
class ReportDef:
    report_id: str
    cube: str
    description: str
    masks: frozenset[int]
    params: tuple[str, ...]
    output: tuple[OutputColumn, ...]


def validate_report(report: ReportDef, spec: CubeSpec) -> None:
    """Check a report definition against its cube's spec."""
    k = spec.k
    if not report.masks:
        raise ValidationError(f"report {report.report_id}: no masks")
    for mask in report.masks:
        if not 0 <= mask < (1 << k):
            raise ValidationError(f"report {report.report_id}: mask {mask} out of range")
    agg_names = {a.name for a in spec.aggregates}
    for col in report.output:
        if col.part == _ATTR and col.source not in spec.cube_attrs:
            raise ValidationError(f"report {report.report_id}: unknown attribute {col.source}")
        if col.part != _ATTR and col.source not in agg_names:
            raise ValidationError(f"report {report.report_id}: unknown aggregate {col.source}")
    for param in report.params:
        if param not in spec.cube_attrs:
            raise ValidationError(f"report {report.report_id}: parameter {param} is not a cube attribute")
        bit = spec.cube_attrs.index(param)
        for mask in report.masks:
            if not mask >> bit & 1:
                raise ValidationError(
                    f"report {report.report_id}: parameter {param} rolled up in mask {mask}"
                )


@dataclass(frozen=True)
class QueryTiming:
    """Cluster-emulation timings of one cube scan (same model as ETL):
    effective = planning + slowest chunk + merge; cumulative = all chunks."""

    effective: float
    cumulative: float


@dataclass(frozen=True)
class ReportResult:
    report_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    generated_at: float
    cube_version: int

    def to_csv(self) -> str:
        """Deterministic CSV: header and rows only, no timestamp fields."""
        lines = [",".join(self.columns)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Line-oriented table with a cube-version footer, deterministic."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def line(cells):
            return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
        parts = [line(self.columns), line("-" * w for w in widths)]
        parts.extend(line(row) for row in self.rows)
        parts.append(f"({len(self.rows)} rows, cube version {self.cube_version})")
        return "\n".join(parts) + "\n"


def _format_mean(value: float) -> str:
    return f"{value:.10g}"


def _format_sum(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


class QueryEngine:
    """Read-only query surface over committed cube versions."""

    def __init__(self, store: SegmentStore, specs=None, catalog=None):
        self.store = store
        self.specs = dict(specs) if specs is not None else builtin_cube_specs()
        self.catalog = dict(catalog) if catalog is not None else report_catalog()
        for report in self.catalog.values():
            spec = self.specs.get(report.cube)
            if spec is None:
                raise ValidationError(f"report {report.report_id}: unknown cube {report.cube}")
            validate_report(report, spec)

    def _spec(self, cube: str) -> CubeSpec:
        spec = self.specs.get(cube)
        if spec is None:
            raise ValidationError(f"unknown cube {cube!r}")
        return spec

    def query_cube(self, ctx: TenantContext, cube: str, masks, filters=()) -> list[CubeRow]:
        rows, _ = self.query_cube_timed(ctx, cube, masks, filters)
        return rows

    def query_cube_timed(
        self, ctx: TenantContext, cube: str, masks, filters=(), scan_workers: int = 1
    ) -> tuple[list[CubeRow], QueryTiming]:
        rows, timing, _ = self._scan(ctx, cube, masks, filters, scan_workers)
        return rows, timing

    def _scan(
        self, ctx: TenantContext, cube: str, masks, filters, scan_workers: int
    ) -> tuple[list[CubeRow], QueryTiming, Segment | None]:
        """Select the tenant's cube rows at the given grouping masks.

        A filter (attr, value) matches rows where the attribute is present
        and equal.  The requested masks are narrowed to those that keep
        every filter attribute; when none is left the result is empty, with
        a warning rather than an error.  A row is the session tenant's when
        its university_key column, which every CubeSpec holds among its
        mandatory keys, equals the tenant key.  A line whose field count is
        not that of ``cube_columns`` (another layout) raises StorageError.

        The newest cube segment is sorted by tenant: a binary search over
        its line starts finds the tenant's byte range, and only that range
        is read, in ``scan_workers`` record-aligned chunks.  Every line read
        is still checked for the tenant, so isolation does not rest on the
        sort; a version written unsorted can lose rows from a report, never
        show another tenant's.  Planning (the search and the chunk bounds)
        and per-chunk busy times feed the same effective/cumulative model
        the ETL pipeline reports.  The segment read is returned with the
        rows (None when no scan was needed), so callers report the version
        they actually read.  When a refresh drops the picked version before
        it is opened, the newest version is picked and read once more; a
        second miss raises StorageError.
        """
        t_start = time.perf_counter()
        spec = self._spec(cube)
        k = spec.k
        masks = set(masks)
        if not masks:
            raise ValidationError("at least one mask required")
        for mask in masks:
            if not 0 <= mask < (1 << k):
                raise ValidationError(f"mask {mask} out of range for k={k}")
        if scan_workers < 1:
            raise ValidationError("scan_workers must be >= 1")

        filters = list(filters)
        for attr, _ in filters:
            if attr not in spec.cube_attrs:
                raise ValidationError(f"unknown filter attribute {attr!r}")
        bits = [spec.cube_attrs.index(attr) for attr, _ in filters]
        masks = {mask for mask in masks if all(mask >> bit & 1 for bit in bits)}
        if not masks:
            logger.warning(
                "filter on %s which is rolled up in every requested mask; empty result",
                ", ".join(attr for attr, _ in filters),
            )
            return [], QueryTiming(0.0, 0.0), None

        tenant = ctx.university_key.value
        columns = cube_columns(spec)
        n_cols = len(columns)
        tenant_col = columns.index("university_key")
        checks = [(columns.index(attr), value) for attr, value in filters]
        mask_strs = {str(m) for m in masks}

        def matches(text: str) -> list[CubeRow]:
            found = []
            for line in text.split("\n"):
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != n_cols:
                    raise StorageError(
                        f"cube {cube} holds a row of {len(fields)} fields, not {n_cols}; "
                        f"it was written in another layout, rebuild it (eduwh build-cube)"
                    )
                if fields[0] not in mask_strs or fields[tenant_col] != tenant:
                    continue
                if all(fields[col] == value for col, value in checks):
                    found.append(parse_cube_row(spec, fields))
            return found

        def read(path):
            """Matching rows and busy time per chunk, and when planning ended."""
            with open(path, "rb") as fh:
                start, end = tenant_range(fh, spec, tenant)
                bounds = record_bounds(fh, start, end, -(-(end - start) // scan_workers))
                t_planned = time.perf_counter()
                busy, chunk_results = [], []
                for offset, stop in zip(bounds, bounds[1:]):
                    t0 = time.perf_counter()
                    fh.seek(offset)
                    chunk_results.append(matches(fh.read(stop - offset).decode("utf-8")))
                    busy.append(time.perf_counter() - t0)
            return chunk_results, busy, t_planned

        for _ in range(2):
            segment = latest_cube_segment(self.store, spec)
            if segment is None:
                raise StorageError(f"cube {cube} has not been built")
            try:
                chunk_results, busy, t_planned = read(segment.path)
                break
            except FileNotFoundError:
                pass  # a refresh dropped this version before it was opened
        else:
            raise StorageError(f"cube {cube} was replaced while being read; try again")
        if not busy:
            return [], QueryTiming(t_planned - t_start, 0.0), segment
        t_scanned = time.perf_counter()
        rows: list[CubeRow] = []
        for found in chunk_results:
            rows.extend(found)
        t_end = time.perf_counter()
        timing = QueryTiming(
            effective=(t_planned - t_start) + max(busy) + (t_end - t_scanned),
            cumulative=sum(busy),
        )
        return rows, timing, segment

    def generate_report(self, ctx: TenantContext, report_id: str, params=None) -> ReportResult:
        """Bind parameters, query the cube, and render the report.

        Rows are ordered by present attribute values in listing order with
        rolled-up cells sorting last, so summary rows follow the rows they
        summarize; rolled-up cells render as "ALL".
        """
        report = self.catalog.get(report_id)
        if report is None:
            raise ValidationError(f"unknown report {report_id!r}")
        params = dict(params or {})
        missing = [p for p in report.params if p not in params]
        if missing:
            raise ValidationError(f"missing parameter: {', '.join(missing)}")
        unknown = [p for p in params if p not in report.params]
        if unknown:
            raise ValidationError(f"unknown parameter: {', '.join(unknown)}")
        spec = self._spec(report.cube)
        filters = [(p, params[p]) for p in report.params]
        # validate_report keeps every parameter exposed in every mask, so a
        # report always scans and knows the cube version it read
        rows, _, segment = self._scan(ctx, report.cube, report.masks, filters, 1)

        def order_key(row: CubeRow):
            return tuple(
                (1, "") if value is None else (0, value) for value in row.attrs
            )

        rows.sort(key=order_key)
        agg_index = {a.name: i for i, a in enumerate(spec.aggregates)}
        attr_index = {a: i for i, a in enumerate(spec.cube_attrs)}
        out_rows = []
        for row in rows:
            cells = []
            for col in report.output:
                if col.part == _ATTR:
                    value = row.attrs[attr_index[col.source]]
                    cells.append(ROLLED_UP_TEXT if value is None else value)
                elif col.part == _MEAN:
                    cells.append(_format_mean(row.means[agg_index[col.source]]))
                elif col.part == _SUM:
                    cells.append(_format_sum(row.sums[agg_index[col.source]]))
                else:
                    cells.append(str(row.counts[agg_index[col.source]]))
            out_rows.append(tuple(cells))
        return ReportResult(
            report_id=report.report_id,
            columns=tuple(col.label for col in report.output),
            rows=tuple(out_rows),
            generated_at=time.time(),
            cube_version=segment.batch_id,
        )

    def list_reports(self) -> tuple[dict, ...]:
        """The static report catalog; identical for every tenant."""
        return tuple(
            {
                "report_id": r.report_id,
                "description": r.description,
                "cube": r.cube,
                "params": list(r.params),
                "columns": [c.label for c in r.output],
            }
            for r in sorted(self.catalog.values(), key=lambda r: r.report_id)
        )


def report_catalog() -> dict[str, ReportDef]:
    """The shipped predefined reports.

    avg_marks_by_regtype selects grouping masks 110 and 010 over the
    student-performance cube: per-regtype averages for a term plus the
    all-regtype summary row.  The other two cover the remaining data marts
    within the same pattern.
    """
    reports = [
        ReportDef(
            report_id="avg_marks_by_regtype",
            cube="student_performance",
            description="Average marks per registration type for one term, with summary",
            masks=frozenset((0b110, 0b010)),
            params=("time_code",),
            output=(
                OutputColumn("time_code", "time_code"),
                OutputColumn("regtype_code", "regtype_code"),
                OutputColumn("avg_marks", "avg_marks", _MEAN),
            ),
        ),
        ReportDef(
            report_id="avg_attendance_by_course",
            cube="student_performance",
            description="Average attendance percentage per course for one term, with summary",
            masks=frozenset((0b011, 0b010)),
            params=("time_code",),
            output=(
                OutputColumn("time_code", "time_code"),
                OutputColumn("course_code", "course_code"),
                OutputColumn("avg_per_att", "avg_per_att", _MEAN),
            ),
        ),
        ReportDef(
            report_id="student_counts_by_department",
            cube="student_counts",
            description="Enrolled head count per department for one year, with summary",
            masks=frozenset((0b101, 0b100)),
            params=("year",),
            output=(
                OutputColumn("year", "year"),
                OutputColumn("department_code", "department_code"),
                OutputColumn("students", "avg_head_count", _SUM),
            ),
        ),
    ]
    return {r.report_id: r for r in reports}
