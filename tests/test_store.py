"""Segment store: atomic commits, keep-latest dedupe, drop semantics."""

import os
import pytest

from eduwarehouse.errors import StorageError, ValidationError
from eduwarehouse.store import SegmentStore, count_rows
from eduwarehouse.schema import builtin_schema

from conftest import ingest_text


def _stage(store: SegmentStore, name: str, text: str):
    path = store.staging_path(name)
    path.write_text(text, encoding="utf-8")
    return path


def _scan(store: SegmentStore, table: str) -> list[list[str]]:
    return list(store.scan(table, store.segments(table)))


def _raw(store: SegmentStore, table: str) -> list[list[str]]:
    """Every stored row of every segment, no dedupe."""
    return [row for seg in store.segments(table) for row in store.read_segment(seg)]


def _dir_snapshot(store: SegmentStore, table: str) -> dict:
    seg_dir = store.root / table
    if not seg_dir.is_dir():
        return {}
    return {
        p.name: p.read_bytes() for p in seg_dir.iterdir() if p.suffix == ".seg"
    }


def test_commit_and_scan_roundtrip(store):
    _rows = [
        "University1_DEP01,DEP01,Computing",
    ]
    staged = _stage(store, "a", "".join(r + "\n" for r in _rows))
    seg = store.commit_batch("Departments", staged, row_count=1)
    assert seg.batch_id == 1 and seg.row_count == 1
    assert not staged.exists(), "staged file must be consumed by the commit"
    got = _scan(store, "Departments")
    assert got == [r.split(",") for r in _rows]


def test_commit_counts_rows_when_not_supplied(store):
    staged = _stage(store, "a", "x,y\n" * 7)
    seg = store.commit_batch("Departments", staged)
    assert seg.row_count == 7


def test_commit_empty_batch(store):
    staged = _stage(store, "a", "")
    seg = store.commit_batch("Departments", staged, row_count=0)
    assert seg.row_count == 0
    assert _scan(store, "Departments") == []


def test_commit_missing_staged_file(store):
    with pytest.raises(StorageError):
        store.commit_batch("Departments", store.staging_path("nope"))


def test_lazy_row_count_on_relisting(store):
    staged = _stage(store, "a", "x,y\n" * 5)
    store.commit_batch("Departments", staged, row_count=5)
    listed = store.segments("Departments")[0]
    assert listed._row_count is None, "listing must not read segment bodies"
    assert listed.row_count == 5


def test_dedupe_keeps_latest_batch(store):
    # same natural key in two batches: the higher batch id wins
    key = "University1_DEP01"
    s1 = _stage(store, "a", f"{key},DEP01,Old name\n")
    s2 = _stage(store, "b", f"{key},DEP01,New name\n")
    store.commit_batch("Departments", s1, row_count=1)
    store.commit_batch("Departments", s2, row_count=1)
    rows = _scan(store, "Departments")
    assert len(rows) == 1 and rows[0][-1] == "New name"
    raw = _raw(store, "Departments")
    assert len(raw) == 2


def test_dimension_reupload_keeps_newest_row_per_key(store, pipeline, tmp_path):
    # a dimension's natural key is one column: scan keys its rows by one
    # bare string each, so keys sharing a prefix must stay apart
    header = "course_code,course_name,department_code\n"
    ingest_text(pipeline, tmp_path, "Courses",
                header + "CS1,Short,DEP01\nCS101,Intro,DEP01\nCS102,Data,DEP01\n")
    ingest_text(pipeline, tmp_path, "Courses", header + "CS102,Data Structures,DEP02\n")
    rows = _scan(store, "Courses")
    assert len(rows) == 3 and len(_raw(store, "Courses")) == 4
    assert {r[1]: r[2:4] for r in rows} == {
        "CS1": ["Short", "DEP01"],
        "CS101": ["Intro", "DEP01"],
        "CS102": ["Data Structures", "DEP02"],
    }


def test_dedupe_no_duplicates_is_identity(store):
    text = "".join(f"University1_DEP{i:02d},DEP{i:02d},D{i}\n" for i in range(5))
    store.commit_batch("Departments", _stage(store, "a", text), row_count=5)
    on = sorted(map(tuple, _scan(store, "Departments")))
    off = sorted(map(tuple, _raw(store, "Departments")))
    assert on == off


def test_union_counts_without_dedupe(store):
    a = "".join(f"University1_A{i},A{i},x\n" for i in range(3))
    b = "".join(f"University1_B{i},B{i},x\n" for i in range(4))
    store.commit_batch("Departments", _stage(store, "a", a), row_count=3)
    store.commit_batch("Departments", _stage(store, "b", b), row_count=4)
    assert len(_raw(store, "Departments")) == 7


def test_drop_batch(store):
    for i in range(3):
        staged = _stage(store, f"s{i}", f"University1_D{i},D{i},x\n")
        store.commit_batch("Departments", staged, row_count=1)
    store.drop_batch("Departments", 2)
    ids = [s.batch_id for s in store.segments("Departments")]
    assert ids == [1, 3]
    keys = {r[1] for r in _scan(store, "Departments")}
    assert keys == {"D0", "D2"}


def test_drop_unknown_batch_is_an_error(store):
    staged = _stage(store, "a", "University1_D1,D1,x\n")
    store.commit_batch("Departments", staged, row_count=1)
    before = _dir_snapshot(store, "Departments")
    with pytest.raises(StorageError):
        store.drop_batch("Departments", 9)
    assert _dir_snapshot(store, "Departments") == before


def test_commit_failure_leaves_state_unchanged(store, monkeypatch):
    staged = _stage(store, "a", "University1_D1,D1,x\n")
    store.commit_batch("Departments", staged, row_count=1)
    before = _dir_snapshot(store, "Departments")

    staged2 = _stage(store, "b", "University1_D2,D2,x\n")
    real_link = os.link

    def broken_link(src, dst, **kw):
        raise OSError("injected fault")

    monkeypatch.setattr(os, "link", broken_link)
    with pytest.raises(StorageError):
        store.commit_batch("Departments", staged2, row_count=1)
    monkeypatch.setattr(os, "link", real_link)

    assert _dir_snapshot(store, "Departments") == before
    assert staged2.exists(), "failed commit must preserve the staged file"
    # and the store still works afterwards
    seg = store.commit_batch("Departments", staged2, row_count=1)
    assert seg.batch_id == 2


def test_scan_unknown_table_is_refused(store):
    with pytest.raises(ValidationError, match="not in the catalog"):
        list(store.scan("NotATable", []))


def test_scan_reads_only_the_listing_it_is_given(store):
    store.commit_batch("Departments", _stage(store, "a", "University1_D1,D1,old\n"), 1)
    listing = store.segments("Departments")
    later = "University1_D1,D1,new\nUniversity1_D2,D2,x\n"
    store.commit_batch("Departments", _stage(store, "b", later), 2)
    assert list(store.scan("Departments", listing)) == [["University1_D1", "D1", "old"]]
    assert sorted(_scan(store, "Departments")) == [
        ["University1_D1", "D1", "new"], ["University1_D2", "D2", "x"]
    ]


def test_read_segment_streams_raw_rows(store):
    staged = _stage(store, "a", "a,b\nc,d\n")
    seg = store.commit_batch("Departments", staged, row_count=2)
    assert list(store.read_segment(seg)) == [["a", "b"], ["c", "d"]]


def test_scan_refuses_a_row_of_the_wrong_field_count(store):
    text = "University1_D1,D1,x\nUniversity1_D2,D2\n"  # the last row torn
    seg = store.commit_batch("Departments", _stage(store, "a", text), 2)
    with pytest.raises(StorageError, match=rf"{seg.path} line 2: expected 3 fields, found 2"):
        _scan(store, "Departments")


def test_count_rows_handles_missing_trailing_newline(tmp_path):
    p = tmp_path / "f"
    p.write_bytes(b"a\nb\nc")
    assert count_rows(p) == 3
    p.write_bytes(b"")
    assert count_rows(p) == 0
