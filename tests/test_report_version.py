"""A report names the cube version it read, even when a newer one lands
before it returns."""

import eduwarehouse.olap as olap
from eduwarehouse.cube import CubeEngine, builtin_cube_specs
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
