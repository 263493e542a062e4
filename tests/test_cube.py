"""Cube engine: grouping ids, accumulators, builds."""

import itertools
import multiprocessing
import random
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

import eduwarehouse.store as store_module
from eduwarehouse.errors import StorageError, ValidationError
from eduwarehouse.cube import (
    AggregateSpec,
    CubeEngine,
    CubeRefresher,
    CubeSpec,
    DimensionJoin,
    builtin_cube_specs,
    cube_columns,
    grouping_id,
    merge_accumulators,
    parse_cube_row,
    presence_from_id,
    unit_count,
)
from eduwarehouse.etl import EtlPipeline, SplitConfig
from eduwarehouse.olap import QueryEngine, TenantContext
from eduwarehouse.schema import INTEGER, TenantKey, builtin_schema
from eduwarehouse.store import SegmentStore

from conftest import (
    DEMO_FACTS, DEMO_TERM, DIM_UPLOADS, PERF_HEADER, U1, U2, ingest_demo_fixture,
    ingest_text,
)

SPEC = builtin_cube_specs()["student_performance"]

# the demo facts re-uploaded with 10 more marks each: same natural keys
def _remarked(delta, facts=DEMO_FACTS):
    """A StudentPerformance upload of ``facts`` with every mark raised by ``delta``."""
    return PERF_HEADER + "\n" + "".join(
        f"{sid},{course},{term},{reg},{int(marks) + delta},{att},{grade}\n"
        for sid, course, term, reg, marks, att, grade in facts
    )


REMARKED_TEXT = _remarked(10)


def _commit_after_first_listing(monkeypatch, store, table, commit):
    """Run ``commit`` right after the first listing of ``table`` is taken."""
    real = store.segments
    pending = [commit]

    def segments(name):
        listing = real(name)
        if name == table and pending:
            pending.pop()()
        return listing

    monkeypatch.setattr(store, "segments", segments)


def _total_marks(store):
    [row] = QueryEngine(store).query_cube(TenantContext(U1, "t"), "student_performance", {0})
    return row.sums[0], row.counts[0]


# ---- grouping_id ----

def test_grouping_id_four_attribute_worked_examples():
    # listing (university, course, time, regtype); value is the sum of
    # 2^(position-1) over present attributes, so the last-listed attribute
    # owns the most significant bit
    attrs = ("university_key", "course_key", "time_key", "regtype_key")
    rolled_course_and_regtype = (True, False, True, False)
    assert grouping_id(attrs, rolled_course_and_regtype) == 0b0101 == 5
    rolled_time = (True, True, False, True)
    assert grouping_id(attrs, rolled_time) == 0b1011 == 11


def test_grouping_id_exhaustive_three_attributes():
    attrs = ("a", "b", "c")
    table = {
        (): 0, ("a",): 1, ("b",): 2, ("a", "b"): 3,
        ("c",): 4, ("a", "c"): 5, ("b", "c"): 6, ("a", "b", "c"): 7,
    }
    for present, expected in table.items():
        flags = tuple(name in present for name in attrs)
        assert grouping_id(attrs, flags) == expected


def test_grouping_id_validation():
    with pytest.raises(ValidationError):
        grouping_id(("a", "b"), (True,))  # flag count mismatch
    with pytest.raises(ValidationError):
        grouping_id((), ())


def test_presence_round_trip_small():
    attrs = tuple("abcdef")
    for mask in range(1 << len(attrs)):
        present = presence_from_id(mask, len(attrs))
        assert grouping_id(attrs, present) == mask


# ---- accumulators ----

def test_merge_accumulators_elementwise():
    assert merge_accumulators([2, 10.0, 3], [5, 1.5, 4]) == [7, 11.5, 7]
    with pytest.raises(ValidationError):
        merge_accumulators([1, 2], [1, 2, 3])


def test_merge_order_never_matters():
    rng = random.Random(11)
    parts = [[rng.randint(0, 5), rng.uniform(0, 9), rng.randint(0, 5)] for _ in range(12)]
    total = [sum(p[i] for p in parts) for i in range(3)]
    for _ in range(5):
        rng.shuffle(parts)
        merged = parts[0]
        for p in parts[1:]:
            merged = merge_accumulators(merged, p)
        assert merged[0] == total[0] and merged[2] == total[2]
        assert abs(merged[1] - total[1]) < 1e-9


# ---- spec validation ----

def test_cube_spec_validation():
    agg = (AggregateSpec("avg_marks", "marks"),)
    with pytest.raises(ValidationError, match="cube_attrs must be nonempty"):
        CubeSpec("x", "StudentPerformance", (), (), agg)
    with pytest.raises(ValidationError, match="duplicate cube attribute"):
        CubeSpec("x", "StudentPerformance", ("university_key",), ("a", "a"), agg)
    with pytest.raises(ValidationError, match="must be disjoint"):
        CubeSpec("x", "StudentPerformance", ("a",), ("a",), agg)
    with pytest.raises(ValidationError, match="must include university_key"):
        CubeSpec("x", "StudentPerformance", (), ("regtype_code",), agg)
    with pytest.raises(ValidationError, match="must include university_key"):
        # a cubed tenant key can be rolled up, so it cannot scope a query
        CubeSpec("x", "StudentPerformance", (), ("university_key", "regtype_code"), agg)
    with pytest.raises(ValidationError, match="unsupported aggregate function"):
        AggregateSpec("x", "marks", "sum")  # only avg is a public aggregate


def test_shipped_specs_cover_all_marts():
    specs = builtin_cube_specs()
    assert sorted(specs) == ["student_counts", "student_performance", "teaching_quality"]
    for spec in specs.values():
        assert spec.mandatory_keys == ("university_key",)
        assert spec.table_name == f"cube_{spec.name}"


# ---- build against a hand-enumerated oracle ----

def _brute_force(facts, attrs, measures):
    """Naive group-by over every mask; facts are dicts."""
    k = len(attrs)
    out = {}
    for mask in range(1 << k):
        groups = defaultdict(lambda: [0] + [0.0] * (2 * len(measures)))
        for f in facts:
            key = tuple(
                f[a] if (mask >> j) & 1 else None for j, a in enumerate(attrs)
            )
            acc = groups[(f["university_key"],) + key]
            acc[0] += 1
            for mi, m in enumerate(measures):
                acc[1 + 2 * mi] += f[m]
                acc[2 + 2 * mi] += 1
        for gkey, acc in groups.items():
            out[(mask,) + gkey] = acc
    return out


def test_build_matches_brute_force_oracle(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    summary = CubeEngine(store).build(SPEC)
    assert summary.rows_scanned == 6 and summary.rows_excluded == 0
    # 2^3 masks over 6 facts: hand count of distinct group rows
    assert summary.cube_rows == 20 == summary.version * 20

    facts = []
    for sid, course, time, reg, marks, att, grade in [
        ("sFT0", "CS101", "2016-17-SPR", "FT", 80, 95, "A"),
        ("sFT1", "CS101", "2016-17-SPR", "FT", 90, 95, "A"),
        ("sPT0", "CS101", "2016-17-SPR", "PT", 70, 95, "B"),
        ("sPT1", "CS101", "2016-17-SPR", "PT", 74, 95, "B"),
        ("sDL0", "CS101", "2016-17-SPR", "DL", 60, 95, "C"),
        ("sX", "CS101", "2016-17-AUT", "FT", 50, 80, "C"),
    ]:
        facts.append({"university_key": "University1", "course_code": course,
                      "time_code": time, "regtype_code": reg,
                      "marks": marks, "percent_attended": att})
    oracle = _brute_force(facts, SPEC.cube_attrs, ["marks", "percent_attended"])

    engine = QueryEngine(store)
    ctx = TenantContext(U1, "t")
    rows = engine.query_cube(ctx, "student_performance", set(range(8)))
    assert len(rows) == 20
    for row in rows:
        key = (row.grouping_id, "University1") + row.attrs
        acc = oracle[key]
        assert row.support_count == acc[0]
        assert row.sums == (acc[1], acc[3])
        assert row.counts == (acc[2], acc[4])
        for mean, total, n in zip(row.means, row.sums, row.counts):
            assert abs(mean - total / n) < 1e-12


def _keep_latest(batches, width):
    """Upload rows of ``batches`` in commit order, the last per leading key."""
    latest = {}
    for rows in batches:
        for row in rows:
            latest[row[:width]] = row
    return list(latest.values())


def _upload(header, rows):
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def _assert_cube_matches(store, cube, oracle):
    rows = QueryEngine(store).query_cube(TenantContext(U1, "t"), cube, set(range(8)))
    got = {(r.grouping_id, *r.mandatory, *r.attrs): r for r in rows}
    assert sorted(got, key=repr) == sorted(oracle, key=repr)
    for key, acc in oracle.items():
        row = got[key]
        assert row.support_count == acc[0]
        assert row.sums == tuple(acc[1::2])
        assert row.counts == tuple(acc[2::2])


def test_grouped_build_matches_row_by_row_oracle(store, pipeline, tmp_path):
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text)
    ingest_text(pipeline, tmp_path, "Programs", "program_code,program_name\nPRG01,CS\n")
    times = {"2016-17-SPR": "2016", "2016-17-AUT": "2016"}  # many-to-one on year
    spr, aut = sorted(times, reverse=True)

    # NOPE9 is no course: rows referencing it are excluded, s3, s9 and s10
    # as one raw group (same references); batch 2 supersedes s1 and s3
    perf = [
        [("s1", "CS101", spr, "FT", "80", "90", "A"),
         ("s2", "CS101", spr, "PT", "70", "85", "B"),
         ("s3", "NOPE9", spr, "FT", "60", "70", "C"),
         ("s4", "NOPE9", aut, "FT", "55", "75", "C"),
         ("s5", "NOPE9", spr, "PT", "65", "80", "C"),
         ("s6", "CS101", aut, "DL", "50", "60", "C"),
         ("s9", "NOPE9", spr, "FT", "45", "65", "P")],
        [("s1", "CS101", spr, "FT", "95", "91", "A"),
         ("s3", "NOPE9", spr, "FT", "61", "71", "C"),
         ("s7", "CS101", spr, "FT", "88", "92", "A"),
         ("s8", "NOPE9", aut, "PT", "40", "50", "P"),
         ("s10", "NOPE9", spr, "FT", "58", "66", "C")],
    ]
    counts = [
        [("DEP01", "PRG01", spr, "100"), ("DEP01", "PRG01", aut, "151"),
         ("DEP01", "PRG02", spr, "30"), ("DEP99", "PRG01", aut, "12")],
        [("DEP01", "PRG01", aut, "160"), ("DEP01", "PRG02", aut, "33")],
    ]
    for rows in perf:
        ingest_text(pipeline, tmp_path, "StudentPerformance", _upload(PERF_HEADER, rows))
    for rows in counts:
        ingest_text(pipeline, tmp_path, "StudentCounts", _upload(
            "department_code,program_code,time_code,head_count", rows))

    engine = CubeEngine(store)
    facts = [
        {"university_key": U1.value, "course_code": c, "time_code": t,
         "regtype_code": r, "marks": float(m), "percent_attended": float(a)}
        for _, c, t, r, m, a, _ in _keep_latest(perf, 4) if c == "CS101"
    ]
    summary = engine.build(SPEC)
    assert (summary.rows_scanned, summary.rows_excluded) == (10, 6)
    assert summary.rows_scanned - summary.rows_excluded == len(facts)
    _assert_cube_matches(store, "student_performance", _brute_force(
        facts, SPEC.cube_attrs, ["marks", "percent_attended"]))

    latest = _keep_latest(counts, 3)
    facts = [
        {"university_key": U1.value, "department_code": d, "program_code": p,
         "year": times[t], "head_count": int(n)}
        for d, p, t, n in latest if (d, p) == ("DEP01", "PRG01")
    ]
    spec = builtin_cube_specs()["student_counts"]
    summary = engine.build(spec)
    assert (summary.rows_scanned, summary.rows_excluded) == (len(latest), 3) == (5, 3)
    # both terms fold into one year: two raw groups, one finest group
    oracle = _brute_force(facts, spec.cube_attrs, ["head_count"])
    assert oracle[(7, U1.value, "DEP01", "PRG01", "2016")] == [2, 260, 2]
    _assert_cube_matches(store, "student_counts", oracle)


def test_rebuild_of_same_facts_is_byte_identical(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    first = engine.build(SPEC).version
    one = store.segments(SPEC.table_name)[-1].path.read_bytes()
    second = engine.build(SPEC).version
    two = store.segments(SPEC.table_name)[-1].path.read_bytes()
    assert second == first + 1
    assert one and one == two


def test_rollup_members_sum_to_super_aggregate(store, pipeline, tmp_path):
    rng = random.Random(21)
    rows = [(f"s{i}", f"C{rng.randrange(5)}", f"T{rng.randrange(3)}",
             f"R{rng.randrange(2)}", str(rng.randrange(100)), str(rng.randrange(100)), "A")
            for i in range(300)]
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text)
    ingest_text(pipeline, tmp_path, "StudentPerformance",
                PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows))
    spec = CubeSpec(
        name="generic", fact="StudentPerformance",
        mandatory_keys=("university_key",),
        cube_attrs=("course_code", "time_code", "regtype_code"),
        aggregates=(AggregateSpec("avg_marks", "marks"),),
    )
    CubeEngine(store).build(spec)
    rows_all = QueryEngine(store, specs={"generic": spec}, catalog={}).query_cube(
        TenantContext(U1, "t"), "generic", set(range(8))
    )
    finest = [r for r in rows_all if r.grouping_id == 7]
    for mask in range(8):
        members = defaultdict(lambda: [0.0, 0])
        for r in finest:
            key = tuple(v if (mask >> j) & 1 else None for j, v in enumerate(r.attrs))
            members[key][0] += r.sums[0]
            members[key][1] += r.counts[0]
        got = {r.attrs: (r.sums[0], r.counts[0]) for r in rows_all if r.grouping_id == mask}
        assert got == {k: (v[0], v[1]) for k, v in members.items()}


def test_build_reads_and_names_only_its_own_fact_listing(
    store, pipeline, tmp_path, monkeypatch
):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    _commit_after_first_listing(
        monkeypatch, store, "StudentPerformance",
        lambda: ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT),
    )
    summary = engine.build(SPEC)
    # batch 2 landed after the build's listing: neither aggregated nor named
    assert _total_marks(store) == (424, 6)
    assert "fact_batches: 1\n" in summary.to_report()
    summary = engine.build(SPEC)
    assert _total_marks(store) == (484, 6)
    assert "fact_batches: 1,2\n" in summary.to_report()
    assert [b for b, _ in summary.fact_batches] == [1, 2]


def test_unresolved_dimension_reference_is_excluded(store, pipeline, tmp_path):
    facts = [("s1", "CS101", "2016-17-SPR", "FT", "80", "95", "A"),
             ("s2", "NOPE999", "2016-17-SPR", "FT", "70", "95", "A")]
    ingest_demo_fixture(pipeline, tmp_path, facts=facts)
    summary = CubeEngine(store).build(SPEC)
    assert summary.rows_scanned == 2
    assert summary.rows_excluded == 1
    rows = QueryEngine(store).query_cube(TenantContext(U1, "t"), "student_performance", {0})
    assert rows[0].support_count == 1


def test_integer_measures_accumulate_exactly(store, pipeline, tmp_path):
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text)
    ingest_text(pipeline, tmp_path, "Programs", "program_code,program_name\nPRG01,CS\n")
    counts = "department_code,program_code,time_code,head_count\n" \
             "DEP01,PRG01,2016-17-SPR,100\nDEP01,PRG01,2016-17-AUT,151\n"
    ingest_text(pipeline, tmp_path, "StudentCounts", counts)
    spec = builtin_cube_specs()["student_counts"]
    CubeEngine(store).build(spec)
    rows = QueryEngine(store).query_cube(TenantContext(U1, "t"), "student_counts", {0})
    assert rows[0].sums == (251,)
    assert rows[0].means == (125.5,)
    # integer measures accumulate in int arithmetic and render without a
    # decimal point, so huge head counts cannot drift
    stored = store.segments("cube_student_counts")[-1].path.read_text()
    assert ",251,2\n" in stored


def test_text_measure_rejected():
    spec = CubeSpec(
        name="bad", fact="StudentPerformance",
        mandatory_keys=("university_key",),
        cube_attrs=("course_code",),
        aggregates=(AggregateSpec("avg_grade", "grade"),),
    )
    store = None  # build must fail before touching storage

    from eduwarehouse.schema import builtin_schema
    from eduwarehouse.store import SegmentStore
    import tempfile
    store = SegmentStore(tempfile.mkdtemp(), builtin_schema())
    with pytest.raises(ValidationError):
        CubeEngine(store).build(spec)


def test_rebuild_prunes_previous_versions(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    s1 = engine.build(SPEC)
    s2 = engine.build(SPEC)
    assert (s1.version, s2.version) == (1, 2)
    segments = store.segments(SPEC.table_name)
    assert [s.batch_id for s in segments] == [2], "old cube versions are pruned"


def test_overlapping_build_keeps_the_newer_version(store, pipeline, tmp_path, monkeypatch):
    # build A commits v2, build B runs whole (v3), then A drops its old versions
    ingest_demo_fixture(pipeline, tmp_path)
    engine_a, engine_b = CubeEngine(store), CubeEngine(store)
    engine_a.build(SPEC)
    real = store.commit_batch
    b_summaries = []

    def commit_then_build_b(table, staged, row_count=None):
        segment = real(table, staged, row_count=row_count)
        monkeypatch.setattr(store, "commit_batch", real)
        b_summaries.append(engine_b.build(SPEC))
        return segment

    monkeypatch.setattr(store, "commit_batch", commit_then_build_b)
    a = engine_a.build(SPEC)
    [b] = b_summaries
    assert (a.version, b.version) == (2, 3)
    assert [s.batch_id for s in store.segments(SPEC.table_name)] == [3]


def test_overlapping_build_tolerates_versions_already_dropped(
    store, pipeline, tmp_path, monkeypatch
):
    # build B runs whole between A's commit (v2) and A's listing of v1, v2
    ingest_demo_fixture(pipeline, tmp_path)
    engine_a, engine_b = CubeEngine(store), CubeEngine(store)
    engine_a.build(SPEC)
    _commit_after_first_listing(
        monkeypatch, store, SPEC.table_name, lambda: engine_b.build(SPEC)
    )
    assert engine_a.build(SPEC).version == 2
    assert [s.batch_id for s in store.segments(SPEC.table_name)] == [3]


def test_empty_attribute_value_is_present_not_rolled_up(store, pipeline, tmp_path):
    facts = [("s1", "CS101", DEMO_TERM, "FT", "80", "95", "A"),
             ("s2", "CS101", DEMO_TERM, "FT", "70", "95", "")]
    ingest_demo_fixture(pipeline, tmp_path, facts=facts)
    spec = CubeSpec(
        name="by_grade", fact="StudentPerformance",
        mandatory_keys=("university_key",),
        cube_attrs=("regtype_code", "grade"),
        aggregates=(AggregateSpec("avg_marks", "marks"),),
    )
    CubeEngine(store).build(spec)
    engine = QueryEngine(store, specs={"by_grade": spec}, catalog={})
    ctx = TenantContext(U1, "t")
    rows = engine.query_cube(ctx, "by_grade", set(range(4)))
    # an empty grade is a present value at the masks that keep grade
    blank = sorted((r for r in rows if r.attrs[1] == ""), key=lambda r: r.grouping_id)
    assert [r.grouping_id for r in blank] == [0b10, 0b11]
    assert all(r.sums == (70.0,) and r.support_count == 1 for r in blank)
    assert all(r.attrs[1] is None for r in rows if not r.grouping_id & 0b10)
    filtered = engine.query_cube(ctx, "by_grade", set(range(4)), [("grade", "")])
    assert sorted(filtered, key=lambda r: r.grouping_id) == blank


def test_cube_storage_row_parses_back(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    CubeEngine(store).build(SPEC)
    seg = store.segments(SPEC.table_name)[-1]
    cols = cube_columns(SPEC)
    for raw in seg.path.read_text().splitlines():
        fields = raw.split(",")
        assert len(fields) == len(cols)
        row = parse_cube_row(SPEC, fields)
        assert 0 <= row.grouping_id < 8


# ---- one grouped pass, and segments a previous build proves superseded ----

COURSE_SPEC = CubeSpec(
    name="by_course_code", fact="StudentPerformance",
    mandatory_keys=("university_key",),
    cube_attrs=("course_code", "time_code", "regtype_code"),
    aggregates=(AggregateSpec("avg_marks", "marks"),
                AggregateSpec("avg_per_att", "percent_attended")),
)
GRADE_SPEC = CubeSpec(
    name="by_grade", fact="StudentPerformance",
    mandatory_keys=("university_key",),
    cube_attrs=("regtype_code", "grade"),
    aggregates=(AggregateSpec("avg_marks", "marks"),),
)
SPR, AUT = "2016-17-SPR", "2016-17-AUT"


def _fact_reads(monkeypatch, table="StudentPerformance"):
    """Batch ids of ``table``'s segments opened from now on, in open order."""
    opened = []
    real = open

    def recording_open(path, *args, **kwargs):
        path = Path(path)
        if path.parent.name == table and path.stem.isdigit():  # not the commit lock
            opened.append(int(path.stem))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", recording_open, raising=False)
    return opened


def _cube_bytes(store, spec=SPEC):
    return store.segments(spec.table_name)[-1].path.read_bytes()


def _fresh_build_bytes(store, spec=SPEC):
    """The cube file a new engine, which reads every segment, writes."""
    CubeEngine(store).build(spec)
    return _cube_bytes(store, spec)


def _commit_rows(store, table, rows):
    """Commit stored rows verbatim, as one segment of ``table``."""
    staged = store.staging_path(f"rows_{len(store.segments(table))}.csv")
    staged.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    return store.commit_batch(table, staged).batch_id


def _perf(tenant, sid, course, term, reg, marks, att="90", grade="A"):
    t = tenant.value
    return (f"{t},{sid},{t}_{sid},{course},{t}_{course},{term},{t}_{term},"
            f"{reg},{t}_{reg},{marks},{att},{grade}")


def _counts(tenant, dept, prog, term, heads):
    t = tenant.value
    return f"{t},{dept},{t}_{dept},{prog},{t}_{prog},{term},{t}_{term},{heads}"


def _scan_oracle(store, spec):
    """Every grouping of ``spec`` summed row by row from ``store.scan``.

    Returns ({(mask, *mandatory, *attrs): [support, *sums]}, scanned,
    excluded).  Measures are whole numbers, so sums are exact in any order.
    """
    fact = store.schema.tables[spec.fact]
    col = fact.storage_columns.index
    joins = {j.attribute: j for j in spec.dimension_joins}
    maps = {}
    for attr, join in joins.items():
        dim = store.schema.tables[join.dimension]
        key, value = dim.storage_index(dim.natural_key[0]), dim.storage_index(attr)
        maps[attr] = {r[key]: r[value]
                      for r in store.scan(join.dimension, store.segments(join.dimension))}
    parses = [(col(a.source), int if fact.attribute(a.source).value_class == INTEGER
               else float) for a in spec.aggregates]
    out = {}
    scanned = excluded = 0
    for fields in store.scan(spec.fact, store.segments(spec.fact)):
        scanned += 1
        try:
            values = [parse(fields[i]) for i, parse in parses]
        except ValueError:
            excluded += 1
            continue
        attrs = [maps[a].get(fields[col(joins[a].reference)]) if a in joins
                 else fields[col(a)] for a in spec.cube_attrs]
        if None in attrs:
            excluded += 1
            continue
        mandatory = tuple(fields[col(c)] for c in spec.mandatory_keys)
        for mask in range(1 << spec.k):
            key = (mask, *mandatory, *(v if mask >> j & 1 else None for j, v in enumerate(attrs)))
            acc = out.setdefault(key, [0] * (1 + len(values)))
            acc[0] += 1
            for a, value in enumerate(values, 1):
                acc[a] += value
    return out, scanned, excluded


def _assert_matches_scan_oracle(store, engine, spec):
    summary = engine.build(spec)
    expected, scanned, excluded = _scan_oracle(store, spec)
    got = {}
    for line in _cube_bytes(store, spec).decode().splitlines():
        row = parse_cube_row(spec, line.split(","))
        got[(row.grouping_id, *row.mandatory, *row.attrs)] = [row.support_count, *row.sums]
    assert got == expected
    assert (summary.rows_scanned, summary.rows_excluded) == (scanned, excluded)
    return summary


def _ingest_messy_dimensions(pipeline, tmp_path, tenants=(U1, U2)):
    for tenant in tenants:
        for table, text in DIM_UPLOADS.items():
            ingest_text(pipeline, tmp_path, table, text, tenant)
        ingest_text(pipeline, tmp_path, "Programs", "program_code,program_name\nPRG01,CS\n",
                    tenant)


MESSY_SPECS = [SPEC, COURSE_SPEC, GRADE_SPEC, builtin_cube_specs()["student_counts"]]

# three rounds of (table, stored rows) commits: duplicates within and across
# segments, unresolved joins, a bad measure, full and partial re-uploads
MESSY_ROUNDS = [
    [
        ("StudentPerformance", [  # U1: a duplicate key, an unresolved course, a bad measure
            _perf(U1, "s1", "CS101", SPR, "FT", "80"),
            _perf(U1, "s1", "CS101", SPR, "FT", "81"),
            _perf(U1, "s2", "CS101", SPR, "PT", "70", grade="B"),
            _perf(U1, "s3", "NOPE9", SPR, "FT", "60"),
            _perf(U1, "s4", "CS101", AUT, "DL", "x"),
            _perf(U1, "s5", "CS101", AUT, "FT", "55", grade="B")]),
        ("StudentPerformance", [  # U2
            _perf(U2, "s1", "CS101", SPR, "FT", "40"),
            _perf(U2, "s2", "CS101", AUT, "PT", "45", grade="C")]),
        ("StudentCounts", [
            _counts(U1, "DEP01", "PRG01", SPR, "100"),
            _counts(U1, "DEP01", "PRG01", SPR, "101"),
            _counts(U1, "DEP01", "PRG01", AUT, "150"),
            _counts(U1, "DEP99", "PRG01", AUT, "12")]),
        ("StudentPerformance", [  # U1, partial: supersedes s1 and the bad s4
            _perf(U1, "s1", "CS101", SPR, "FT", "90"),
            _perf(U1, "s4", "CS101", AUT, "DL", "65"),
            _perf(U1, "s6", "CS101", SPR, "DL", "77", grade=""),
            _perf(U1, "s6", "CS101", SPR, "DL", "78")]),
    ],
    # U1 again, every key: a bad measure now supersedes s4, s5's grade moves,
    # s7 is new; U1's earlier segments are superseded whole
    [
        ("StudentPerformance", [
            _perf(U1, "s1", "CS101", SPR, "FT", "95"),
            _perf(U1, "s2", "CS101", SPR, "PT", "71", grade="B"),
            _perf(U1, "s3", "NOPE9", SPR, "FT", "61"),
            _perf(U1, "s4", "CS101", AUT, "DL", "y"),
            _perf(U1, "s5", "CS101", AUT, "FT", "56", grade="C"),
            _perf(U1, "s6", "CS101", SPR, "DL", "79"),
            _perf(U1, "s7", "CS101", AUT, "PT", "88")]),
        ("StudentCounts", [_counts(U1, "DEP01", "PRG01", SPR, "103")]),
    ],
    # U2 in part, and every StudentCounts key again
    [
        ("StudentPerformance", [_perf(U2, "s2", "CS101", AUT, "FT", "47")]),
        ("StudentCounts", [
            _counts(U1, "DEP01", "PRG01", SPR, "104"),
            _counts(U1, "DEP01", "PRG01", AUT, "151"),
            _counts(U1, "DEP99", "PRG01", AUT, "13")]),
    ],
]


def test_grouped_pass_matches_a_scan_oracle_on_messy_input(store, pipeline, tmp_path):
    _ingest_messy_dimensions(pipeline, tmp_path)
    engines = {spec.name: CubeEngine(store) for spec in MESSY_SPECS}
    for batches in MESSY_ROUNDS:
        for table, rows in batches:
            _commit_rows(store, table, rows)
        for spec in MESSY_SPECS:
            _assert_matches_scan_oracle(store, engines[spec.name], spec)
            kept = _cube_bytes(store, spec)
            assert _fresh_build_bytes(store, spec) == kept


# ---- tenant-disjoint build units ----

U3 = TenantKey("University3")


def _summary_text(summary):
    """A build's report less the lines that differ between two equal builds."""
    return "".join(line for line in summary.to_report().splitlines(keepends=True)
                   if not line.startswith(("build_seconds:", "units:")))


def _twin_stores(tmp_path, tenants):
    """Two warehouses with the same dimension uploads, one per engine."""
    twins = []
    for name in ("inline", "units"):
        store = SegmentStore(tmp_path / name, builtin_schema())
        pipeline = EtlPipeline(store, SplitConfig(1, 256 * 1024 * 1024, 1024 * 1024), 1)
        _ingest_messy_dimensions(pipeline, tmp_path / name, tenants)
        twins.append(store)
    return twins


def _assert_units_match_inline(stores, engines, spec, units):
    summaries = [engine.build(spec) for engine in engines]
    assert multiprocessing.active_children() == []
    assert _cube_bytes(stores[1], spec) == _cube_bytes(stores[0], spec)
    assert _summary_text(summaries[1]) == _summary_text(summaries[0])
    assert (summaries[0].units, summaries[1].units) == (1, units)
    return summaries[1]


@pytest.mark.parametrize("listing_bytes, tenants, pool, units", [
    (2 * 100 - 1, 16, 2, 1),  # under 2 x s_b: inline, as a one-split upload
    (2 * 100, 16, 2, 2),
    (10**9, 16, 2, 2),  # no more units than workers
    (10**9, 1, 2, 1),  # one tenant builds inline
    (10**9, 3, 8, 3),
    (10**9, 16, 1, 1),
    (0, 0, 2, 1),
])
def test_unit_count(listing_bytes, tenants, pool, units):
    assert unit_count(listing_bytes, tenants, pool, 100) == units


def test_units_match_an_inline_build_on_messy_input(tmp_path):
    stores = _twin_stores(tmp_path, (U1, U2, U3))
    specs = {spec.name: spec for spec in MESSY_SPECS}
    engines = {name: (CubeEngine(stores[0]), CubeEngine(stores[1], 3, 1)) for name in specs}
    # U2 has StudentCounts too, and U3 re-uploads every key each round
    rounds = [list(batches) for batches in MESSY_ROUNDS]
    rounds[0].append(("StudentCounts", [_counts(U2, "DEP01", "PRG01", AUT, "70")]))
    for step, batches in enumerate(rounds):
        batches.append(("StudentPerformance", [
            _perf(U3, "s1", "CS101", SPR, "FT", str(60 + step)),
            _perf(U3, "s2", "CS101", AUT, "DL", str(30 + step), grade="B")]))
    skipped = 0
    for batches in rounds:
        for table, rows in batches:
            for store in stores:
                _commit_rows(store, table, rows)
        for name, spec in specs.items():
            units = 3 if spec.fact == "StudentPerformance" else 2
            skipped += _assert_units_match_inline(stores, engines[name], spec,
                                                  units).segments_skipped
    assert skipped > 0  # the units carried their proofs from round to round


def test_a_segment_of_two_tenants_builds_as_one_unit(tmp_path, caplog):
    stores = _twin_stores(tmp_path, (U1, U2, U3))
    batches = [[_perf(U1, "s1", "CS101", SPR, "FT", "80"),  # first row U1, then U2
                _perf(U2, "s1", "CS101", SPR, "FT", "40")],
               [_perf(U2, "s1", "CS101", SPR, "FT", "41"),
                _perf(U2, "s2", "CS101", AUT, "PT", "45")],
               [_perf(U3, "s1", "CS101", AUT, "DL", "33")]]
    for store in stores:
        for rows in batches:
            _commit_rows(store, "StudentPerformance", rows)
    engines = CubeEngine(stores[0]), CubeEngine(stores[1], 3, 1)
    summary = _assert_units_match_inline(stores, engines, SPEC, 1)
    assert summary.segments_read == 3
    assert "holds several tenants" in caplog.text


def test_torn_segment_in_a_worker_unit_fails_the_build(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path, U1)
    small = ingest_demo_fixture(pipeline, tmp_path, U2, DEMO_FACTS[:2]).segment
    engine = CubeEngine(store, 2, 1)
    assert engine.build(SPEC).units == 2
    proof = engine._proofs[SPEC]
    versions = store.segments(SPEC.table_name)
    # U2's segment is the lighter one, so a forked worker reads it
    small.path.write_bytes(small.path.read_bytes()[:-30])
    with pytest.raises(StorageError, match=rf"{small.path} line 2: expected 12 fields") as err:
        engine.build(SPEC)
    assert "_build_adopted_unit" in str(err.value.__cause__)  # the worker's traceback
    assert engine._proofs[SPEC] is proof
    assert [s.batch_id for s in store.segments(SPEC.table_name)] == [
        s.batch_id for s in versions]
    assert multiprocessing.active_children() == []


def test_full_reupload_skips_the_batch_it_replaces(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    engine.build(SPEC)
    # the first re-upload is read whole: a tenant uploaded once keeps no keys
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT)
    opened = _fact_reads(monkeypatch)
    summary = engine.build(SPEC)
    assert opened == [2, 1]
    assert (summary.segments_read, summary.segments_skipped) == (2, 0)
    ingest_text(pipeline, tmp_path, "StudentPerformance", _remarked(20))
    summary = engine.build(SPEC)
    assert opened == [2, 1, 3]
    assert (summary.segments_read, summary.segments_skipped) == (1, 2)
    assert [b for b, _ in summary.fact_batches] == [1, 2, 3]
    assert (summary.rows_scanned, _total_marks(store)) == (6, (544, 6))
    skipped = _cube_bytes(store)
    assert _fresh_build_bytes(store) == skipped
    assert opened == [2, 1, 3, 3, 2, 1]


def test_only_a_reuploaded_tenant_keeps_its_keys(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path, U1)
    ingest_demo_fixture(pipeline, tmp_path, U2)
    engine = CubeEngine(store)
    engine.build(SPEC)
    assert engine._proofs[SPEC].keys == {}
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT, U1)
    engine.build(SPEC)
    assert set(engine._proofs[SPEC].keys) == {U1.value}


def test_partial_reupload_still_reads_the_older_batch(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    engine.build(SPEC)
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT)
    engine.build(SPEC)
    # one row of every raw group, but sFT1 and sPT1 only in batches 1 and 2
    ingest_text(pipeline, tmp_path, "StudentPerformance",
                _remarked(20, [*DEMO_FACTS[0::2], DEMO_FACTS[5]]))
    opened = _fact_reads(monkeypatch)
    summary = engine.build(SPEC)
    assert opened == [3, 2]  # batch 2 holds every key batch 1 had
    assert (summary.segments_read, summary.segments_skipped) == (2, 1)
    assert _total_marks(store) == (524, 6)
    assert _fresh_build_bytes(store) == _cube_bytes(store)


def test_dropping_the_newest_batch_shows_the_older_rows_again(
    store, pipeline, tmp_path, monkeypatch
):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    engine.build(SPEC)
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT)
    engine.build(SPEC)
    assert _total_marks(store) == (484, 6)
    store.drop_batch("StudentPerformance", 2)
    opened = _fact_reads(monkeypatch)
    engine.build(SPEC)
    assert opened == [1]
    assert _total_marks(store) == (424, 6)


def test_reused_batch_id_is_read_not_skipped(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    engine.build(SPEC)
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT)
    engine.build(SPEC)
    store.drop_batch("StudentPerformance", 2)
    time.sleep(0.02)  # file ctimes tick every few ms; let the new one differ
    segment = ingest_text(pipeline, tmp_path, "StudentPerformance", _remarked(20)).segment
    assert segment.batch_id == 2
    opened = _fact_reads(monkeypatch)
    engine.build(SPEC)
    assert 2 in opened
    assert _total_marks(store) == (544, 6)
    assert _fresh_build_bytes(store) == _cube_bytes(store)


def test_one_tenants_reupload_skips_only_its_own_batch(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path, U1)
    ingest_demo_fixture(pipeline, tmp_path, U2)
    engine = CubeEngine(store)
    engine.build(SPEC)
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT, U1)
    engine.build(SPEC)
    ingest_text(pipeline, tmp_path, "StudentPerformance", _remarked(20), U1)
    opened = _fact_reads(monkeypatch)
    summary = engine.build(SPEC)
    assert opened == [4, 2]
    assert (summary.segments_read, summary.segments_skipped) == (2, 2)
    assert _total_marks(store) == (544, 6)
    u2 = QueryEngine(store).query_cube(TenantContext(U2, "t"), "student_performance", {0})
    assert (u2[0].sums[0], u2[0].support_count) == (424, 6)
    skipped = _cube_bytes(store)
    assert _fresh_build_bytes(store) == skipped


def test_overlapping_builds_through_one_engine_stay_exact(store, pipeline, tmp_path):
    # four threads rebuild through one engine while re-uploads land; a lost
    # or stale proof would let a later build skip rows it must keep
    ingest_demo_fixture(pipeline, tmp_path, U1)
    ingest_demo_fixture(pipeline, tmp_path, U2)
    engine = CubeEngine(store)
    errors, stop = [], threading.Event()

    def rebuild():
        try:
            while not stop.is_set():
                engine.build(SPEC)
        except Exception as exc:  # the test reports it below
            errors.append(exc)

    threads = [threading.Thread(target=rebuild) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for step in range(6):
            tenant = (U1, U2)[step % 2]
            facts = DEMO_FACTS if step < 4 else DEMO_FACTS[::2]  # then partial
            _commit_rows(store, "StudentPerformance", [
                _perf(tenant, sid, course, term, reg, int(marks) + step, att, grade)
                for sid, course, term, reg, marks, att, grade in facts])
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    engine.build(SPEC)
    assert _total_marks(store) == (424 + 3 * 4 + 3 * 2, 6)  # U1: steps 4 (partial) and 2
    assert _fresh_build_bytes(store) == _cube_bytes(store)


def test_torn_fact_segment_is_a_storage_error(store, pipeline, tmp_path):
    seg = ingest_demo_fixture(pipeline, tmp_path).segment
    seg.path.write_bytes(seg.path.read_bytes()[:-30])
    with pytest.raises(StorageError, match=rf"{seg.path} line 6: expected 12 fields"):
        CubeEngine(store).build(SPEC)
    assert store.segments(SPEC.table_name) == []


# ---- refresher ----

def test_refresher_records_visibility_lag(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    refresher = CubeRefresher(CubeEngine(store), [SPEC], interval=3600)
    refresher.run_once()
    assert [s.cube for s in refresher.lag_samples] == ["student_performance"]
    assert refresher.lag_samples[0].lag_seconds >= 0
    # a second pass with no new batches records nothing new
    refresher.run_once()
    assert len(refresher.lag_samples) == 1


def test_refresher_samples_a_reused_batch_id(store, pipeline, tmp_path):
    first = ingest_demo_fixture(pipeline, tmp_path)
    refresher = CubeRefresher(CubeEngine(store), [SPEC], interval=3600)
    refresher.run_once()
    store.drop_batch("StudentPerformance", first.segment.batch_id)
    refresher.run_once()
    again = ingest_demo_fixture(pipeline, tmp_path)
    assert again.segment.batch_id == first.segment.batch_id
    refresher.run_once()
    assert [s.fact_batch for s in refresher.lag_samples] == [1, 1]


def test_refresher_samples_a_batch_replaced_between_refreshes(store, pipeline, tmp_path):
    first = ingest_demo_fixture(pipeline, tmp_path)
    refresher = CubeRefresher(CubeEngine(store), [SPEC], interval=3600)
    refresher.run_once()
    store.drop_batch("StudentPerformance", first.segment.batch_id)
    time.sleep(0.02)  # file ctimes tick every few ms; let the new one differ
    again = ingest_demo_fixture(pipeline, tmp_path)
    assert again.segment.batch_id == first.segment.batch_id
    refresher.run_once()
    assert [s.fact_batch for s in refresher.lag_samples] == [1, 1]
    refresher.run_once()
    assert len(refresher.lag_samples) == 2


def test_refresher_samples_every_batch_of_the_build_it_ran(
    store, pipeline, tmp_path, monkeypatch
):
    ingest_demo_fixture(pipeline, tmp_path)
    refresher = CubeRefresher(CubeEngine(store), [SPEC], interval=3600)
    _commit_after_first_listing(
        monkeypatch, store, "StudentPerformance",
        lambda: ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT),
    )
    for expected in ("1", "1,2"):
        [summary] = refresher.run_once()
        named = summary.to_report().split("fact_batches: ", 1)[1].split("\n", 1)[0]
        # each batch the pass's build read has its sample by the pass's end
        assert ",".join(str(s.fact_batch) for s in refresher.lag_samples) == named
        assert named == expected


def test_refresher_skips_a_cube_whose_inputs_are_unchanged(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    specs = builtin_cube_specs().values()  # two of them have no facts at all
    engine = CubeEngine(store)
    refresher = CubeRefresher(engine, specs, interval=3600)
    assert len(refresher.run_once()) == 3
    def versions():
        return {s.name: [v.batch_id for v in store.segments(s.table_name)] for s in specs}

    before, samples = versions(), list(refresher.lag_samples)
    assert refresher.run_once() == []
    assert versions() == before
    assert list(refresher.lag_samples) == samples
    # a build asked for directly (eduwh build-cube) always builds
    assert engine.build(SPEC).version > before[SPEC.name][-1]


@pytest.mark.parametrize("change", ["dimension re-upload", "fact batch dropped",
                                    "cube version dropped"])
def test_refresher_rebuilds_a_cube_whose_inputs_changed(store, pipeline, tmp_path, change):
    first = ingest_demo_fixture(pipeline, tmp_path)
    ingest_text(pipeline, tmp_path, "StudentPerformance", REMARKED_TEXT)
    refresher = CubeRefresher(CubeEngine(store), [SPEC], interval=3600)
    refresher.run_once()
    assert refresher.run_once() == []
    time.sleep(0.02)  # file ctimes tick every few ms; let a new one differ
    if change == "dimension re-upload":
        ingest_text(pipeline, tmp_path, "Regtypes", DIM_UPLOADS["Regtypes"])
    elif change == "fact batch dropped":
        store.drop_batch("StudentPerformance", first.segment.batch_id)
    else:
        store.drop_batch(SPEC.table_name, store.segments(SPEC.table_name)[-1].batch_id)
    [summary] = refresher.run_once()
    assert store.segments(SPEC.table_name)[-1].batch_id == summary.version
    assert refresher.run_once() == []


def test_refresher_failure_keeps_previous_version(store, pipeline, tmp_path, monkeypatch):
    ingest_demo_fixture(pipeline, tmp_path)
    engine = CubeEngine(store)
    refresher = CubeRefresher(engine, [SPEC], interval=3600)
    refresher.run_once()
    before = store.segments(SPEC.table_name)[-1].path.read_bytes()

    def boom(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine, "build", boom)
    refresher.run_once()  # must not raise
    after = store.segments(SPEC.table_name)[-1].path.read_bytes()
    assert after == before


def test_query_before_build_is_an_error(store):
    with pytest.raises(StorageError):
        QueryEngine(store).query_cube(TenantContext(U1, "t"), "student_performance", {0})
