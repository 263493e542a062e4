"""Parallel CSV ingestion: the split planner, the split worker and the load.

An upload is partitioned into record-aligned byte ranges; independent workers
(``_process_split``, the only code that turns upload lines into stored rows)
parse, validate and tenant-qualify each range and write per-split intermediate
files.  A worker's row loop is the table's ``schema.upload_rules(table).rows``,
generated once per table from the same check list as the rules, with
field positions as integer literals; the tenant reaches it as an
argument, never as source text.  The
load step concatenates them into one staged file and commits it, or aborts
the whole batch with a line-numbered error report if any split saw any
error.

Timing model: the pipeline emulates a cluster that has one node per split.
Each worker measures its own busy time (queue wait excluded).  Two phases are
parallel: extract/transform over the splits, then the stitch that copies each
part into the staged file (on a cluster every part lands in its own byte
range concurrently; a distributed filesystem merge is metadata-only).
``effective_time`` is planning + the longest extract busy time + the longest
stitch busy time + the serial coordinator tail (renumbering, commit), i.e.
the wall clock the run would have with every split on its own node; on a
machine with that many free cores it coincides with the physical wall clock,
which is also reported as ``wall_time``.  ``cumulative_time`` is the sum of
all worker busy times across both phases.
"""

from __future__ import annotations

import logging
import os
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .schema import TableDef, TenantKey, upload_rules
from .store import Segment, SegmentStore

logger = logging.getLogger(__name__)

CASE1 = "case1"
CASE2 = "case2"
MODES = (CASE1, CASE2)

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SplitConfig:
    """Split sizing parameters, all in bytes."""

    s_min: int
    s_max: int
    s_b: int

    def __post_init__(self) -> None:
        if min(self.s_min, self.s_max, self.s_b) <= 0:
            raise ValidationError("split sizes must be strictly positive")
        if self.s_min > self.s_max:
            raise ValidationError("s_min must not exceed s_max")


def split_size(cfg: SplitConfig) -> int:
    """Effective split size: max(s_min, min(s_max, s_b))."""
    return max(cfg.s_min, min(cfg.s_max, cfg.s_b))


def mapper_count(s_ip: int, s_split: int) -> int:
    """Workers needed for an input of s_ip bytes: ceil(s_ip / s_split)."""
    if s_ip <= 0 or s_split <= 0:
        raise ValidationError("sizes must be positive")
    return -(-s_ip // s_split)


@dataclass(frozen=True)
class SplitRange:
    """One record-aligned byte range of an input file."""

    path: str
    offset: int
    length: int
    index: int


@dataclass(frozen=True)
class SplitPlan:
    path: str
    s_ip: int
    s_split: int
    splits: tuple[SplitRange, ...]

    @property
    def n_m(self) -> int:
        return len(self.splits)


def _align_forward(fh, nominal: int, size: int) -> int:
    """Smallest position >= nominal that sits immediately after a LF."""
    fh.seek(nominal - 1)
    if fh.read(1) == b"\n":
        return nominal
    pos = nominal
    while pos < size:
        chunk = fh.read(_CHUNK)
        if not chunk:
            break
        hit = chunk.find(b"\n")
        if hit >= 0:
            return pos + hit + 1
        pos += len(chunk)
    return size


def record_bounds(fh, start: int, end: int, step: int) -> list[int]:
    """Bounds that split ``[start, end)`` of binary file ``fh`` into pieces
    of about ``step`` bytes, each moved forward to the next line start; a
    bound a long record swallows is dropped.  An empty range gives [start].
    """
    bounds = [start]
    if start < end:
        for nominal in range(start + step, end, step):
            aligned = _align_forward(fh, nominal, end)
            if bounds[-1] < aligned < end:
                bounds.append(aligned)
        bounds.append(end)
    return bounds


def plan_splits(file: Path | str, cfg: SplitConfig, mode: str) -> SplitPlan:
    """Partition a file into record-aligned splits.

    case1 fixes the split size at half the input so two workers handle any
    file; case2 uses the configured split size, so the worker count grows
    with the input.  Nominal boundaries move forward to the next line start;
    a boundary swallowed by a long record merges its split into the previous
    one (logged, not an error).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    path = str(file)
    s_ip = os.path.getsize(path)
    if s_ip == 0:
        raise ValidationError(f"input file {path} is empty")
    s_split = (s_ip + 1) // 2 if mode == CASE1 else split_size(cfg)
    with open(path, "rb") as fh:
        boundaries = record_bounds(fh, 0, s_ip, s_split)
    splits = tuple(
        SplitRange(path, start, end - start, i)
        for i, (start, end) in enumerate(zip(boundaries, boundaries[1:]))
    )
    expected = mapper_count(s_ip, s_split)
    if len(splits) != expected:
        logger.info(
            "%s: %d split(s) instead of %d (boundaries moved past record ends)",
            path, len(splits), expected,
        )
    return SplitPlan(path, s_ip, s_split, splits)


@dataclass(frozen=True)
class EtlError:
    line_number: int
    tenant_key_value: str | None
    reason: str


@dataclass(frozen=True)
class EtlErrorReport:
    """All rejected lines of a batch, sorted by line number."""

    entries: tuple[EtlError, ...]

    def to_csv(self) -> str:
        lines = ["line_number,tenant_key_value,reason"]
        for e in self.entries:
            lines.append(f"{e.line_number},{e.tenant_key_value or ''},{e.reason}")
        return "\n".join(lines) + "\n"


def _data_lines(split: SplitRange, table: TableDef) -> tuple[list[str], int, EtlError | None]:
    """Read one split's data lines, past the upload header on the first split.

    Returns (lines, line number before the first of them, whole-split
    error).  Bad encoding, an empty upload or a header mismatch void the
    split: no lines are returned, and the line number is the count of
    physical lines the split's numbering must still account for.
    """
    with open(split.path, "rb") as fh:
        fh.seek(split.offset)
        data = fh.read(split.length)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return [], 0, EtlError(line, None, "encoding: not valid UTF-8")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if split.index != 0:
        return lines, 0, None
    if not lines:
        return [], 0, EtlError(1, None, "header-mismatch: empty upload")
    header = lines[0][:-1] if lines[0].endswith("\r") else lines[0]
    if header != table.upload_header:
        return [], len(lines), EtlError(
            1, None, f"header-mismatch: expected {table.upload_header!r}"
        )
    return lines[1:], 1, None


@dataclass(frozen=True)
class _SplitOutcome:
    index: int
    out_path: str
    line_count: int
    record_count: int
    errors: tuple[EtlError, ...]
    busy: float


def _process_split(
    split: SplitRange, table: TableDef, tenant: TenantKey, out_path: str
) -> _SplitOutcome:
    """Worker body, the one path from a split to stored rows.

    Runs the table's generated row loop (``upload_rules(table).rows``):
    it checks each data line against schema.upload_rules (shape, then
    empty keys) and renders each valid line into its storage row (the
    storage plan: raw value plus tenant-qualified key for every key and
    reference); the rows go to the split's intermediate file.  Error line
    numbers count from the split's first line, which for the first split
    is the file numbering (header = line 1); the pipeline offsets later
    splits by their predecessors' line counts.  Busy time spans the whole
    body, queue wait excluded.
    """
    t0 = time.perf_counter()
    lines, line_no, fault = _data_lines(split, table)
    errors: list[EtlError] = [fault] if fault else []
    faults: list = []
    out_lines, line_no = upload_rules(table).rows(lines, line_no, tenant.value, faults)
    errors += [EtlError(line, context, reason) for line, (reason, context) in faults]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        if out_lines:
            fh.write("\n".join(out_lines))
            fh.write("\n")
    busy = time.perf_counter() - t0
    return _SplitOutcome(
        split.index, out_path, line_no, len(out_lines), tuple(errors), busy
    )


@dataclass
class BatchResult:
    """Outcome and timings of one ETL run.

    ``rows_in`` counts data lines of the upload (header excluded); error
    report line numbers are physical file lines, so the first data row is
    line 2.
    """

    table: str
    mode: str
    segment: Segment | None
    report: EtlErrorReport | None
    rows_in: int
    rows_out: int
    n_m: int
    effective_time: float
    cumulative_time: float
    wall_time: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def committed(self) -> bool:
        return self.segment is not None


def _stitch(parts: list[str], dest: str) -> list[float]:
    """Copy each part into its range of ``dest``; per-part busy times.

    Parts occupy disjoint byte ranges, so on a cluster these copies run
    concurrently (or collapse into a metadata-only merge); the returned
    per-part durations feed the parallel-phase timing model.
    """
    busy = []
    with open(dest, "wb") as out:
        for part in parts:
            t0 = time.perf_counter()
            with open(part, "rb") as src:
                size = os.fstat(src.fileno()).st_size
                done = 0
                while done < size:
                    done += os.copy_file_range(src.fileno(), out.fileno(), size - done)
            busy.append(time.perf_counter() - t0)
    return busy


class EtlPipeline:
    """Orchestrates plan -> parallel extract/transform -> all-or-nothing load."""

    def __init__(
        self,
        store: SegmentStore,
        split_cfg: SplitConfig,
        worker_pool_size: int | None = None,
    ):
        self.store = store
        self.split_cfg = split_cfg
        self.worker_pool_size = worker_pool_size or os.cpu_count() or 1

    def run(self, file: Path | str, table: str, tenant: TenantKey, mode: str = CASE2) -> BatchResult:
        """Ingest one upload file into ``table`` for ``tenant``.

        All splits are processed and all errors collected before deciding:
        any error rejects the whole batch and leaves the table untouched,
        otherwise the concatenated intermediate file is committed as one new
        segment.
        """
        table_def = self.store.schema.tables.get(table)
        if table_def is None:
            raise ValidationError(f"unknown table {table!r}")
        notes: list[str] = []
        t_start = time.perf_counter()
        plan = plan_splits(file, self.split_cfg, mode)
        t_planned = time.perf_counter()
        if mode == CASE1 and plan.n_m != 2:
            notes.append(f"case1 degenerated to {plan.n_m} split(s)")
        if plan.n_m > self.worker_pool_size:
            notes.append(f"n_m={plan.n_m} exceeds worker pool {self.worker_pool_size}")

        stem = uuid.uuid4().hex
        part_paths = [
            str(self.store.staging_path(f"{stem}.part{s.index}")) for s in plan.splits
        ]
        outcomes = self._run_splits(plan, table_def, tenant, part_paths)
        t_done = time.perf_counter()

        # Global line numbers: offset each split by its predecessors' counts.
        offsets = [0] * len(outcomes)
        running = 0
        for outcome in outcomes:
            offsets[outcome.index] = running
            running += outcome.line_count
        errors = [
            EtlError(e.line_number + offsets[o.index], e.tenant_key_value, e.reason)
            for o in outcomes
            for e in o.errors
        ]
        errors.sort(key=lambda e: e.line_number)
        rows_in = max(0, running - 1)  # header line is not a data row
        busy = [o.busy for o in outcomes]

        if errors:
            for path in part_paths:
                if os.path.exists(path):
                    os.unlink(path)
            t_end = time.perf_counter()
            return BatchResult(
                table, mode, None, EtlErrorReport(tuple(errors)),
                rows_in, 0, plan.n_m,
                effective_time=(t_planned - t_start) + max(busy) + (t_end - t_done),
                cumulative_time=sum(busy),
                wall_time=t_end - t_start,
                notes=tuple(notes),
            )

        rows_out = sum(o.record_count for o in outcomes)
        staged = str(self.store.staging_path(f"{stem}.staged"))
        if len(part_paths) == 1:
            os.replace(part_paths[0], staged)  # constant-time move, no stitch phase
            stitch_busy = [0.0]
        else:
            stitch_busy = _stitch(part_paths, staged)
            for path in part_paths:
                os.unlink(path)
        segment = self.store.commit_batch(table, staged, row_count=rows_out)
        t_end = time.perf_counter()
        # the coordinator tail is everything after extract minus the stitch
        # copies themselves, which are a parallel phase charged at their max
        tail = (t_end - t_done) - sum(stitch_busy)
        return BatchResult(
            table, mode, segment, None,
            rows_in, rows_out, plan.n_m,
            effective_time=(t_planned - t_start) + max(busy) + max(stitch_busy) + tail,
            cumulative_time=sum(busy) + sum(stitch_busy),
            wall_time=t_end - t_start,
            notes=tuple(notes),
        )

    def _run_splits(self, plan, table_def, tenant, part_paths) -> list[_SplitOutcome]:
        tasks = list(zip(plan.splits, part_paths))
        if self.worker_pool_size <= 1 or plan.n_m == 1:
            return [_process_split(s, table_def, tenant, p) for s, p in tasks]
        workers = min(self.worker_pool_size, plan.n_m)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_process_split, s, table_def, tenant, p) for s, p in tasks
            ]
            return [f.result() for f in futures]

