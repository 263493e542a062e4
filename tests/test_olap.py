"""Query engine and report catalog behaviour."""

import io
import logging
import random

import pytest

import eduwarehouse.olap as olap
from eduwarehouse.cube import (
    AggregateSpec,
    CubeEngine,
    CubeSpec,
    builtin_cube_specs,
    cube_columns,
    parse_cube_row,
)
from eduwarehouse.errors import StorageError, ValidationError
from eduwarehouse.schema import TenantKey
from eduwarehouse.olap import (
    OutputColumn,
    QueryEngine,
    ReportDef,
    TenantContext,
    report_catalog,
    validate_report,
)

from conftest import (
    DIM_UPLOADS,
    DEMO_TERM,
    PERF_HEADER,
    U1,
    U2,
    commit_earlier_layout_cube,
    ingest_demo_fixture,
    ingest_text,
)

SPEC = builtin_cube_specs()["student_performance"]
CTX1 = TenantContext(U1, "session-1")
CTX2 = TenantContext(U2, "session-2")


@pytest.fixture
def built(store, pipeline, tmp_path):
    """Demo fixture ingested and cubed."""
    ingest_demo_fixture(pipeline, tmp_path)
    CubeEngine(store).build(SPEC)
    return QueryEngine(store)


# ---- the headline report query ----

def test_avg_marks_by_regtype_rows(built):
    result = built.generate_report(CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    assert result.columns == ("time_code", "regtype_code", "avg_marks")
    assert result.rows == (
        (DEMO_TERM, "DL", "60"),
        (DEMO_TERM, "FT", "85"),
        (DEMO_TERM, "PT", "72"),
        (DEMO_TERM, "ALL", "74.8"),
    )
    assert result.cube_version == 1


def test_report_csv_golden(built):
    result = built.generate_report(CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    assert result.to_csv() == (
        "time_code,regtype_code,avg_marks\n"
        "2016-17-SPR,DL,60\n"
        "2016-17-SPR,FT,85\n"
        "2016-17-SPR,PT,72\n"
        "2016-17-SPR,ALL,74.8\n"
    )


def test_report_table_rendering(built):
    text = built.generate_report(
        CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM}
    ).to_table()
    lines = text.splitlines()
    assert lines[0].split() == ["time_code", "regtype_code", "avg_marks"]
    assert set(lines[1]) <= {"-", " "}
    assert lines[-1] == "(4 rows, cube version 1)"
    assert all(line == line.rstrip() for line in lines)
    assert "ALL" in lines[-2]


def test_summary_row_follows_members(built):
    # rolled-up cells sort last within the attribute ordering
    result = built.generate_report(CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    regtypes = [row[1] for row in result.rows]
    assert regtypes == sorted(regtypes[:-1]) + ["ALL"]


def test_filters_are_strict_equality(built):
    rows = built.query_cube(CTX1, "student_performance", {0b110, 0b010},
                            [("time_code", "2016-17-AUT")])
    assert {r.grouping_id for r in rows} == {6, 2}
    assert all(r.attrs[1] == "2016-17-AUT" for r in rows)
    assert all(r.support_count == 1 for r in rows)
    # no row matches a value absent from the data
    assert built.query_cube(CTX1, "student_performance", {0b110},
                            [("time_code", "1999-00-AUT")]) == []


def test_filter_rolled_up_everywhere_warns_and_returns_empty(built, caplog):
    with caplog.at_level(logging.WARNING, logger="eduwarehouse.olap"):
        rows, timing = built.query_cube_timed(
            CTX1, "student_performance", {0b100}, [("time_code", DEMO_TERM)]
        )
    assert rows == [] and timing.cumulative == 0.0
    assert any("rolled up in every requested mask" in r.message for r in caplog.records)


def test_filters_no_mask_keeps_together_warn_and_return_empty(built, caplog):
    # each filter attribute is kept by one requested mask, but none keeps both
    with caplog.at_level(logging.WARNING, logger="eduwarehouse.olap"):
        rows, timing = built.query_cube_timed(
            CTX1, "student_performance", {0b110, 0b011},
            [("course_code", "CS101"), ("regtype_code", "FT")],
        )
    assert rows == [] and timing.cumulative == 0.0
    assert any("rolled up in every requested mask" in r.message for r in caplog.records)


def test_query_validation_errors(built):
    with pytest.raises(ValidationError):
        built.query_cube(CTX1, "no_such_cube", {0})
    with pytest.raises(ValidationError):
        built.query_cube(CTX1, "student_performance", set())
    with pytest.raises(ValidationError):
        built.query_cube(CTX1, "student_performance", {8})  # k=3, max mask 7
    with pytest.raises(ValidationError):
        built.query_cube(CTX1, "student_performance", {0}, [("no_attr", "x")])
    with pytest.raises(ValidationError):
        built.query_cube_timed(CTX1, "student_performance", {0}, scan_workers=0)


# ---- parallel scan ----

def test_scan_workers_do_not_change_results(store, pipeline, tmp_path):
    rng = random.Random(5)
    rows = [(f"s{i}", f"C{rng.randrange(4)}", f"T{rng.randrange(3)}",
             f"R{rng.randrange(3)}", str(rng.randrange(100)),
             str(rng.randrange(100)), "B") for i in range(500)]
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text)
    ingest_text(pipeline, tmp_path, "StudentPerformance",
                PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows))
    spec = CubeSpec(
        name="wide", fact="StudentPerformance",
        mandatory_keys=("university_key",),
        cube_attrs=("course_code", "time_code", "regtype_code"),
        aggregates=(AggregateSpec("avg_marks", "marks"),),
    )
    CubeEngine(store).build(spec)
    engine = QueryEngine(store, specs={"wide": spec}, catalog={})
    serial, t1 = engine.query_cube_timed(CTX1, "wide", set(range(8)), scan_workers=1)
    fanned, t4 = engine.query_cube_timed(CTX1, "wide", set(range(8)), scan_workers=4)
    assert fanned == serial
    assert t1.cumulative >= 0 and t4.cumulative >= 0 and t4.effective >= 0


# ---- tenant scoping ----

def test_rows_scoped_to_session_tenant(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path, tenant=U1)
    other = [("z1", "CS101", DEMO_TERM, "FT", "10", "50", "F")]
    ingest_demo_fixture(pipeline, tmp_path, tenant=U2, facts=other)
    CubeEngine(store).build(SPEC)
    engine = QueryEngine(store)

    mine = engine.query_cube(CTX1, "student_performance", set(range(8)))
    theirs = engine.query_cube(CTX2, "student_performance", set(range(8)))
    assert {r.mandatory for r in mine} == {("University1",)}
    assert {r.mandatory for r in theirs} == {("University2",)}
    r1 = engine.generate_report(CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    r2 = engine.generate_report(CTX2, "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    assert "10" not in {cell for row in r1.rows for cell in row}
    assert r2.rows == ((DEMO_TERM, "FT", "10"), (DEMO_TERM, "ALL", "10"))


def test_dropping_other_tenant_leaves_report_bytes_unchanged(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path, tenant=U1)
    ingest_demo_fixture(pipeline, tmp_path, tenant=U2,
                         facts=[("z1", "CS101", DEMO_TERM, "DL", "33", "40", "D")])
    CubeEngine(store).build(SPEC)
    engine = QueryEngine(store)
    before = engine.generate_report(
        CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM}
    ).to_csv()

    fact_batches = store.segments("StudentPerformance")
    assert len(fact_batches) == 2
    store.drop_batch("StudentPerformance", fact_batches[-1].batch_id)
    CubeEngine(store).build(SPEC)
    after = engine.generate_report(
        CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM}
    ).to_csv()
    assert after == before


def test_unscopable_cube_rejected():
    # a cube without the tenant key among its mandatory keys cannot be
    # scoped to a session, so it is refused before it can be built
    with pytest.raises(ValidationError, match="must include university_key"):
        CubeSpec(
            name="unscoped", fact="StudentPerformance",
            mandatory_keys=(),
            cube_attrs=("regtype_code",),
            aggregates=(AggregateSpec("avg_marks", "marks"),),
        )


# ---- tenant slices of the cube file ----

SLICE_DIMS = {
    **DIM_UPLOADS,
    "Courses": "course_code,course_name,department_code\n"
               + "".join(f"CS10{i},Course {i},DEP01\n" for i in range(4)),
}
# prefixes of one another, a %-bearing and a non-ASCII key, listed unsorted
SLICE_TENANTS = [TenantKey(v) for v in
                 ("Universität", "University10", "U%s1", "University1", "University1a")]
# tenants without rows: before, between and after the others in the file
EMPTY_TENANTS = [TenantKey(v) for v in ("Alpha", "University1b", "Zeta")]


def _ingest_tenant(pipeline, tmp_path, tenant, rng, n_facts=40):
    for table, text in SLICE_DIMS.items():
        ingest_text(pipeline, tmp_path, table, text, tenant)
    facts = [(f"s{i}", f"CS10{rng.randrange(4)}", rng.choice(["2016-17-SPR", "2016-17-AUT"]),
              rng.choice(["FT", "PT", "DL"]), str(rng.randrange(100)),
              str(rng.randrange(100)), "B") for i in range(n_facts)]
    ingest_text(pipeline, tmp_path, "StudentPerformance",
                PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in facts), tenant)


@pytest.fixture
def sliced(store, pipeline, tmp_path):
    rng = random.Random(11)
    for tenant in SLICE_TENANTS:
        _ingest_tenant(pipeline, tmp_path, tenant, rng)
    version = CubeEngine(store).build(SPEC).version
    return QueryEngine(store), store.segments(SPEC.table_name)[-1].path, version


def _every_line_oracle(path, tenant, masks, filters):
    """The tenant's rows at ``masks`` matching ``filters``, from every line."""
    cols = cube_columns(SPEC)
    found = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split(",")
        row = dict(zip(cols, fields))
        mask = int(row["grouping_id"])
        if row["university_key"] != tenant.value or mask not in masks:
            continue
        if all(mask >> SPEC.cube_attrs.index(attr) & 1 and row[attr] == value
               for attr, value in filters):
            found.append(parse_cube_row(SPEC, fields))
    return found


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_tenant_slice_matches_every_line_oracle(sliced, workers):
    engine, path, version = sliced
    queries = [
        (set(range(8)), []),
        ({0b110, 0b010}, [("time_code", DEMO_TERM)]),
        ({0b101, 0b111}, [("course_code", "CS102"), ("regtype_code", "PT")]),
    ]
    for tenant in SLICE_TENANTS + EMPTY_TENANTS:
        ctx = TenantContext(tenant, "s")
        for masks, filters in queries:
            rows, _ = engine.query_cube_timed(
                ctx, "student_performance", masks, filters, scan_workers=workers)
            expected = _every_line_oracle(path, tenant, masks, filters)
            assert rows == expected, (tenant, masks, filters)
            if not filters:
                assert bool(rows) == (tenant in SLICE_TENANTS), tenant
    for tenant in EMPTY_TENANTS:
        result = engine.generate_report(
            TenantContext(tenant, "s"), "avg_marks_by_regtype", {"time_code": DEMO_TERM})
        assert result.rows == () and result.cube_version == version


def test_cube_file_is_sorted_by_tenant(sliced):
    _, path, _ = sliced
    tenant_col = cube_columns(SPEC).index("university_key")
    keys = [line.split(",")[tenant_col]
            for line in path.read_text(encoding="utf-8").splitlines()]
    assert set(keys) == {t.value for t in SLICE_TENANTS}
    # str order is UTF-8 byte order, the order the binary search compares in
    assert keys == sorted(keys) == sorted(keys, key=lambda k: k.encode("utf-8"))


def test_report_reads_only_its_tenants_range(store, pipeline, tmp_path, monkeypatch):
    tenants = [TenantKey(f"University{i}") for i in range(16)]
    rng = random.Random(3)
    for tenant in tenants:
        _ingest_tenant(pipeline, tmp_path, tenant, rng)
    CubeEngine(store).build(SPEC)
    size = store.segments(SPEC.table_name)[-1].path.stat().st_size
    counted = []

    class CountingReader(io.BufferedReader):
        def read(self, n=-1):
            data = super().read(n)
            counted.append(len(data))
            return data

        def readline(self, n=-1):
            data = super().readline(n)
            counted.append(len(data))
            return data

    def counting_open(path, mode="r", *args, **kwargs):
        assert mode == "rb"
        return CountingReader(io.FileIO(path))

    monkeypatch.setattr(olap, "open", counting_open, raising=False)
    result = QueryEngine(store).generate_report(
        TenantContext(tenants[7], "s"), "avg_marks_by_regtype", {"time_code": DEMO_TERM})
    assert result.rows
    assert 0 < sum(counted) < size / 4, (sum(counted), size)


# ---- catalog ----

def test_report_not_ready_before_build(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    with pytest.raises(StorageError, match="has not been built"):
        QueryEngine(store).generate_report(
            CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM}
        )


def test_cube_in_an_earlier_layout_is_refused(store):
    # read by position, its flag columns would stand where values belong
    commit_earlier_layout_cube(store)
    engine = QueryEngine(store)
    with pytest.raises(StorageError, match="another layout"):
        engine.query_cube(CTX1, "student_performance", {0b110})
    with pytest.raises(StorageError, match="another layout"):
        engine.generate_report(CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM})


def test_report_parameter_validation(built):
    with pytest.raises(ValidationError, match="unknown report"):
        built.generate_report(CTX1, "nope", {})
    with pytest.raises(ValidationError, match="missing parameter: time_code"):
        built.generate_report(CTX1, "avg_marks_by_regtype", {})
    with pytest.raises(ValidationError, match="unknown parameter"):
        built.generate_report(
            CTX1, "avg_marks_by_regtype",
            {"time_code": DEMO_TERM, "university_key": "University2"},
        )


def test_list_reports_catalog(built):
    listing = built.list_reports()
    assert [r["report_id"] for r in listing] == [
        "avg_attendance_by_course",
        "avg_marks_by_regtype",
        "student_counts_by_department",
    ]
    assert listing[1]["params"] == ["time_code"]
    assert listing[1]["columns"] == ["time_code", "regtype_code", "avg_marks"]


def test_validate_report_rejects_bad_definitions():
    agg = OutputColumn("avg_marks", "avg_marks", "mean")
    base = dict(cube="student_performance", description="d",
                output=(OutputColumn("regtype_code", "regtype_code"), agg))
    with pytest.raises(ValidationError, match="no masks"):
        validate_report(ReportDef("r", masks=frozenset(), params=(), **base), SPEC)
    with pytest.raises(ValidationError, match="out of range"):
        validate_report(ReportDef("r", masks=frozenset({9}), params=(), **base), SPEC)
    with pytest.raises(ValidationError, match="rolled up in mask"):
        validate_report(
            ReportDef("r", masks=frozenset({0b100}), params=("time_code",), **base), SPEC
        )
    with pytest.raises(ValidationError, match="not a cube attribute"):
        validate_report(
            ReportDef("r", masks=frozenset({0b111}), params=("marks",), **base), SPEC
        )
    bad_out = (OutputColumn("x", "student_key"), agg)
    with pytest.raises(ValidationError, match="unknown attribute"):
        validate_report(
            ReportDef("r", "student_performance", "d", frozenset({1}), (), bad_out), SPEC
        )
def test_engine_rejects_report_for_unknown_cube(tmp_path):
    from eduwarehouse.schema import builtin_schema
    from eduwarehouse.store import SegmentStore

    report = ReportDef("r", "ghost", "d", frozenset({1}), (),
                       (OutputColumn("a", "a"),))
    with pytest.raises(ValidationError, match="unknown cube"):
        QueryEngine(SegmentStore(tmp_path / "wh", builtin_schema()),
                    catalog={"r": report})


def test_output_column_part_validated():
    with pytest.raises(ValidationError):
        OutputColumn("x", "avg_marks", "median")


# ---- cube path agrees with a raw-table oracle ----

def test_report_matches_raw_scan_oracle(store, pipeline, tmp_path):
    rng = random.Random(17)
    rows = [(f"s{i}", "CS101", rng.choice(["2016-17-SPR", "2016-17-AUT"]),
             rng.choice(["FT", "PT", "DL"]), str(rng.randrange(100)),
             str(rng.randrange(100)), "C") for i in range(400)]
    ingest_demo_fixture(pipeline, tmp_path, facts=rows)
    CubeEngine(store).build(SPEC)
    result = QueryEngine(store).generate_report(
        CTX1, "avg_marks_by_regtype", {"time_code": DEMO_TERM}
    )

    # independent pass over the raw fact segments, same accumulation order
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    total, n = 0.0, 0
    for fields in store.scan("StudentPerformance", store.segments("StudentPerformance")):
        if fields[0] != "University1" or fields[5] != DEMO_TERM:
            continue
        reg = fields[7]
        sums[reg] = sums.get(reg, 0.0) + float(fields[9])
        counts[reg] = counts.get(reg, 0) + 1
        total += float(fields[9])
        n += 1
    expected = {reg: f"{sums[reg] / counts[reg]:.10g}" for reg in sums}
    expected["ALL"] = f"{total / n:.10g}"
    assert {row[1]: row[2] for row in result.rows} == expected
