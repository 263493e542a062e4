"""Directory-per-table segment store with atomic, constant-time batch commit.

Layout: ``<warehouse_root>/<table>/<batch_id>.seg``.  A segment is an
immutable, headerless CSV file (UTF-8, LF); committing one is a hard-link +
unlink of the staged file, so its cost does not depend on row count.
Duplicates are tolerated at rest and discarded at read time: a scan keeps,
per natural key, the record from the highest batch id of the listing it is
given.
"""

from __future__ import annotations

import fcntl
import logging
import os
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from .errors import StorageError, ValidationError
from .schema import WarehouseSchema

logger = logging.getLogger(__name__)

SEGMENT_SUFFIX = ".seg"
STAGING_DIR = ".staging"
_LOCK_FILE = ".commit.lock"


class Segment:
    """One committed, immutable batch of rows for a table.

    ``row_count`` is known at commit time; segments rediscovered from disk
    count their rows lazily on first access, keeping directory listings
    free of per-row work.
    """

    __slots__ = ("table", "batch_id", "path", "_row_count")

    def __init__(self, table: str, batch_id: int, path: Path, row_count: int | None = None):
        self.table = table
        self.batch_id = batch_id
        self.path = path
        self._row_count = row_count

    @property
    def row_count(self) -> int:
        if self._row_count is None:
            self._row_count = count_rows(self.path)
        return self._row_count

    def __repr__(self) -> str:
        return f"Segment({self.table!r}, batch_id={self.batch_id})"


def count_rows(path: Path) -> int:
    """Count data rows (newline-terminated or trailing partial) in a file."""
    rows = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            rows += chunk.count(b"\n")
            last = chunk
    if last and not last.endswith(b"\n"):
        rows += 1
    return rows


class SegmentStore:
    """File-backed table storage bound to a warehouse root and a schema."""

    def __init__(self, root: Path | str, schema: WarehouseSchema):
        self.root = Path(root)
        self.schema = schema
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / STAGING_DIR).mkdir(exist_ok=True)

    def table_dir(self, table: str) -> Path:
        path = self.root / table
        path.mkdir(exist_ok=True)
        return path

    def staging_path(self, name: str) -> Path:
        return self.root / STAGING_DIR / name

    @contextmanager
    def _commit_lock(self, table: str):
        lock_path = self.table_dir(table) / _LOCK_FILE
        with open(lock_path, "w") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def segments(self, table: str) -> list[Segment]:
        seg_dir = self.root / table
        if not seg_dir.is_dir():
            return []
        found = [
            Segment(table, int(entry.stem), entry)
            for entry in seg_dir.iterdir()
            if entry.suffix == SEGMENT_SUFFIX
        ]
        return sorted(found, key=lambda s: s.batch_id)

    def next_batch_id(self, table: str) -> int:
        seg_dir = self.root / table
        if not seg_dir.is_dir():
            return 1
        ids = [int(e.stem) for e in seg_dir.iterdir() if e.suffix == SEGMENT_SUFFIX]
        return max(ids, default=0) + 1

    def commit_batch(self, table: str, staged_file: Path | str, row_count: int | None = None) -> Segment:
        """Atomically publish a staged file as the table's next segment.

        The staged file is hard-linked to ``<batch_id>.seg`` and then removed,
        a constant-time operation regardless of size.  ``row_count`` is
        caller-supplied metadata (the ETL pipeline knows it); when omitted the
        rows are counted here, which costs one pass over the file.  On any
        failure the table directory is unchanged and the staged file is kept
        for diagnosis.
        """
        staged = Path(staged_file)
        if not staged.is_file():
            raise StorageError(f"staged file {staged} does not exist")
        if row_count is None:
            row_count = count_rows(staged)
        with self._commit_lock(table):
            batch_id = self.next_batch_id(table)
            seg_dir = self.table_dir(table)
            while True:
                dest = seg_dir / f"{batch_id:06d}{SEGMENT_SUFFIX}"
                try:
                    os.link(staged, dest)
                    break
                except FileExistsError:
                    batch_id += 1
                except OSError as exc:
                    raise StorageError(
                        f"commit of {table} batch {batch_id} failed: {exc}; "
                        f"staged file kept at {staged}"
                    ) from exc
            os.unlink(staged)
        logger.debug("committed %s batch %d (%d rows)", table, batch_id, row_count)
        return Segment(table, batch_id, dest, row_count)

    def drop_batch(self, table: str, batch_id: int) -> None:
        path = self.root / table / f"{batch_id:06d}{SEGMENT_SUFFIX}"
        try:
            path.unlink()
        except FileNotFoundError:
            raise StorageError(f"{table} has no batch {batch_id}") from None

    def scan(self, table: str, segments: list[Segment]) -> Iterator[list[str]]:
        """Stream the deduped rows of ``segments``, a listing of ``table``.

        The caller takes the listing (with ``segments``, ascending batch
        ids), so what it names is exactly what is read; a batch committed
        after it is not seen.  This is the reference for the keep-latest
        rule: rows stream newest batch first and, within a segment, in file
        order; the first row of each natural key is kept and every later
        one is dropped.  A key counts as seen once its first row is read,
        whatever that row holds.  A row of the wrong field count raises
        StorageError naming its segment and line.
        """
        table_def = self.schema.tables.get(table)
        if table_def is None:
            raise ValidationError(f"table {table!r} is not in the catalog")
        width = len(table_def.storage_columns)
        # one C-level key per row: a bare str for a one-column natural key
        # (every dimension), a tuple for a fact's compound key
        key_of = itemgetter(*(table_def.storage_index(c) for c in table_def.natural_key))
        seen: set = set()
        for seg in reversed(segments):
            for fields in self.read_segment(seg, width):
                key = key_of(fields)
                if key in seen:
                    continue
                seen.add(key)
                yield fields

    @staticmethod
    def read_segment(seg: Segment, width: int | None = None) -> Iterator[list[str]]:
        """Stream one segment's rows as field lists, no dedupe.

        With ``width``, a row of any other field count (a torn segment)
        raises StorageError naming the segment and the line.
        """
        try:
            with open(seg.path, "r", encoding="utf-8", newline="") as fh:
                for number, line in enumerate(fh, 1):
                    fields = line.rstrip("\n").split(",")
                    if width is not None and len(fields) != width:
                        raise torn_row(seg, number, width, len(fields))
                    yield fields
        except OSError as exc:
            raise StorageError(f"segment {seg.path} unreadable: {exc}") from exc


def segment_lines(seg: Segment) -> list[str]:
    """One segment's rows as lines, read whole, without their line feeds.

    For a caller that takes every row in one tight pass (the cube build);
    ``read_segment`` streams instead.
    """
    try:
        with open(seg.path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise StorageError(f"segment {seg.path} unreadable: {exc}") from exc
    if not lines[-1]:
        lines.pop()  # the last row's line feed, or an empty file
    return lines


def torn_row(seg: Segment, line_number: int, width: int, found: int) -> StorageError:
    """The error for a stored row whose field count is not the table's."""
    return StorageError(
        f"segment {seg.path} line {line_number}: expected {width} fields, found {found}"
    )
