"""A report names the cube version it read, even when a newer one lands
before it returns or the version it picked is dropped before it is read."""

import pytest

import eduwarehouse.olap as olap
from eduwarehouse.cube import CubeEngine, builtin_cube_specs
from eduwarehouse.errors import StorageError
from eduwarehouse.olap import QueryEngine, TenantContext

from conftest import DEMO_TERM, U1, ingest_demo_fixture

SPEC = builtin_cube_specs()["student_performance"]


def test_report_version_is_the_version_scanned(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path)
    read_version = CubeEngine(store).build(SPEC).version

    # rendering runs after the scan: commit a newer cube version right then
    render = olap._format_mean
    committed = []

    def commit_then_render(value):
        if not committed:
            staged = store.staging_path("newer.cube")
            staged.write_bytes(store.segments(SPEC.table_name)[-1].path.read_bytes())
            committed.append(store.commit_batch(SPEC.table_name, staged).batch_id)
        return render(value)

    monkeypatch.setattr(olap, "_format_mean", commit_then_render)
    result = QueryEngine(store).generate_report(
        TenantContext(U1, "t"), "avg_marks_by_regtype", {"time_code": DEMO_TERM}
    )
    assert committed == [read_version + 1]
    assert result.cube_version == read_version


def _two_versions(store, pipeline, tmp_path):
    """Build v1, keep its (soon stale) handle, then build v2, which drops v1."""
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    engine.build(SPEC)
    stale = olap.latest_cube_segment(store, SPEC)
    current = engine.build(SPEC).version
    assert not stale.path.exists()
    return stale, current


def test_report_rereads_when_the_picked_version_was_dropped(
        store, pipeline, tmp_path, monkeypatch):
    stale, current = _two_versions(store, pipeline, tmp_path)
    query = QueryEngine(store)
    ctx = TenantContext(U1, "t")
    expected = query.generate_report(ctx, "avg_marks_by_regtype", {"time_code": DEMO_TERM})

    pick = olap.latest_cube_segment
    calls = []

    def stale_first(store_, spec):
        calls.append(spec.name)
        return stale if len(calls) == 1 else pick(store_, spec)

    monkeypatch.setattr(olap, "latest_cube_segment", stale_first)
    result = query.generate_report(ctx, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    assert len(calls) == 2
    assert result.cube_version == current
    assert result.to_csv() == expected.to_csv()


def test_report_gives_storage_error_when_every_pick_is_dropped(
        store, pipeline, tmp_path, monkeypatch):
    stale, _ = _two_versions(store, pipeline, tmp_path)
    monkeypatch.setattr(olap, "latest_cube_segment", lambda store_, spec: stale)
    with pytest.raises(StorageError, match="replaced"):
        QueryEngine(store).generate_report(
            TenantContext(U1, "t"), "avg_marks_by_regtype", {"time_code": DEMO_TERM}
        )
