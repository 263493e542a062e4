"""Split planning, the split worker's validation and storage rows, and
all-or-nothing loads."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from eduwarehouse.errors import ValidationError
from eduwarehouse.etl import (
    CASE1,
    CASE2,
    EtlErrorReport,
    EtlPipeline,
    SplitConfig,
    mapper_count,
    plan_splits,
    split_size,
)
from eduwarehouse.schema import (
    DECIMAL,
    DIMENSION_KEY,
    INTEGER,
    NATURAL_KEY,
    REFERENCE,
    TENANT_KEY,
    TenantKey,
    builtin_schema,
)

from conftest import DEMO_FACTS, PERF_HEADER, U1, process_whole_file

KIB = 1024
MIB = 1024 * KIB

SCHEMA = builtin_schema()
PERF = SCHEMA.tables["StudentPerformance"]


def _perf_csv(rows) -> str:
    return PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)


# ---- split math ----

@pytest.mark.parametrize(
    "s_min,s_max,s_b,expected",
    [
        (1, 256 * MIB, MIB, MIB),          # block size inside the band
        (4 * MIB, 256 * MIB, MIB, 4 * MIB),  # floor wins over small blocks
        (1, 2 * MIB, 8 * MIB, 2 * MIB),    # ceiling wins over big blocks
        (5, 5, 1, 5),                       # degenerate band pins the size
    ],
)
def test_split_size_equation(s_min, s_max, s_b, expected):
    assert split_size(SplitConfig(s_min, s_max, s_b)) == expected


@pytest.mark.parametrize(
    "s_ip,s_split,expected",
    [
        (100, MIB, 1),
        (MIB, MIB, 1),
        (MIB + 1, MIB, 2),
        (10 * MIB, 4 * MIB, 3),
    ],
)
def test_mapper_count_is_a_ceiling(s_ip, s_split, expected):
    assert mapper_count(s_ip, s_split) == expected


def test_mapper_count_rejects_nonpositive():
    with pytest.raises(ValidationError):
        mapper_count(0, 10)
    with pytest.raises(ValidationError):
        mapper_count(10, 0)


def test_split_config_validation():
    with pytest.raises(ValidationError):
        SplitConfig(0, 10, 5)
    with pytest.raises(ValidationError):
        SplitConfig(10, 5, 7)  # s_min > s_max


# ---- split planning ----

def _random_lines_file(tmp_path, rng, n_lines, max_len=120):
    rows = [
        "".join(rng.choice("abcdefgh,") for _ in range(rng.randint(0, max_len)))
        for _ in range(n_lines)
    ]
    text = "".join(r + "\n" for r in rows)
    p = tmp_path / f"random_{n_lines}.txt"
    p.write_bytes(text.encode())
    return p, text


def test_plan_splits_case1_always_two(tmp_path):
    rng = random.Random(1)
    p, _ = _random_lines_file(tmp_path, rng, 2000)
    plan = plan_splits(p, SplitConfig(1, 256 * MIB, MIB), CASE1)
    assert plan.n_m == 2


def test_plan_splits_cover_file_exactly(tmp_path):
    rng = random.Random(2)
    for trial in range(10):
        p, text = _random_lines_file(tmp_path, rng, rng.randint(1, 400))
        data = p.read_bytes()
        cfg = SplitConfig(1, 256 * MIB, rng.choice([64, 256, 1024, 4096]))
        for mode in (CASE1, CASE2):
            plan = plan_splits(p, cfg, mode)
            pos = 0
            rebuilt = b""
            for s in plan.splits:
                assert s.offset == pos, "splits must be contiguous"
                # the boundary must start a record
                assert pos == 0 or data[pos - 1] == 0x0A
                rebuilt += data[s.offset:s.offset + s.length]
                pos += s.length
            assert pos == len(data) and rebuilt == data


def test_plan_splits_long_record_swallows_boundary(tmp_path):
    # one record longer than the split size: the boundary moves forward and
    # the plan simply has fewer splits
    p = tmp_path / "long.txt"
    p.write_bytes(b"x" * 5000 + b"\n" + b"y" * 100 + b"\n")
    plan = plan_splits(p, SplitConfig(1, 256 * MIB, 1024), CASE2)
    assert plan.n_m < mapper_count(p.stat().st_size, 1024)
    assert sum(s.length for s in plan.splits) == p.stat().st_size


# ---- the split worker: validation and dual-key storage rows ----

def test_extract_header_mismatch(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("wrong,header\ns1,CS101,T,R,1,2,A\n")
    rows, errors, _ = process_whole_file(p, PERF)
    assert rows == []
    assert errors[0].line_number == 1
    assert errors[0].reason.startswith("header-mismatch")


def test_extract_validation_reasons(tmp_path):
    rows = [
        ("s1", "CS101", "T1", "FT", "50", "60", "A"),      # fine
        ("s2", "CS101", "T1"),                             # arity
        ("s3", "CS101", "T1", "FT", "oops", "60", "A"),    # numeric
        ("s4", "ALL", "T1", "FT", "50", "60", "A"),        # reserved
    ]
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv(rows))
    stored, errors, _ = process_whole_file(p, PERF)
    assert [r[PERF.storage_index("student_id")] for r in stored] == ["s1"]
    got = {(e.line_number, e.reason) for e in errors}
    assert got == {
        (3, "arity: expected 7 fields, found 3"),
        (4, "not-numeric:marks"),
        (5, "reserved-value:course_code"),
    }
    # tenant key context is the first non-empty key field of the bad row
    ctx = {e.line_number: e.tenant_key_value for e in errors}
    assert ctx[4] == "s3"


def test_extract_rejects_bad_encoding(tmp_path):
    p = tmp_path / "f.csv"
    p.write_bytes(PERF_HEADER.encode() + b"\ns1,CS101,T,FT,1,2,A\n\xff\xfe broken\n")
    _, errors, _ = process_whole_file(p, PERF)
    assert any("encoding" in e.reason for e in errors)


def test_transform_dual_key_storage(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv([("s1", "CS101", "T1", "FT", "50", "60", "A")]))
    rows, errors, _ = process_whole_file(p, PERF)
    assert errors == []
    row = dict(zip(PERF.storage_columns, rows[0]))
    assert row == {
        "university_key": "University1",
        "student_id": "s1",
        "student_key": "University1_s1",
        "course_code": "CS101",
        "course_key": "University1_CS101",
        "time_code": "T1",
        "time_key": "University1_T1",
        "regtype_code": "FT",
        "regtype_key": "University1_FT",
        "marks": "50",
        "percent_attended": "60",
        "grade": "A",
    }


def test_transform_rejects_empty_keys(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv([("", "CS101", "T1", "FT", "50", "60", "A"),
                            ("s2", "", "T1", "FT", "50", "60", "A")]))
    rows, errors, _ = process_whole_file(p, PERF)
    assert rows == []
    assert {(e.line_number, e.reason) for e in errors} == {
        (2, "empty-key:student_id"),
        (3, "empty-key:course_code"),
    }


def _messy_rows(rng, n):
    """(upload line, expected) pairs; expected is the stored row, or the
    (key context, reason) the row's fault must be reported with."""
    cases = []
    for i in range(n):
        kind = rng.randrange(6)
        s, c, t, r = f"s{i}", f"CS{i % 7}", f"T{i % 3}", f"R{i % 2}"
        if kind == 0:
            cases.append((f"{s},{c},{t},{r},bad,{i}.5,A", (s, "not-numeric:marks")))
        elif kind == 1:
            cases.append((f"{s},{c},{t}", (None, "arity: expected 7 fields, found 3")))
        elif kind == 2:
            cases.append((f",{c},{t},{r},{i},{i}.5,A", (c, "empty-key:student_id")))
        elif kind == 3:
            cases.append((f"{s},ALL,{t},{r},{i},{i}.5,A", (s, "reserved-value:course_code")))
        else:
            stored = ["University1"]
            for raw in (s, c, t, r):
                stored += [raw, f"University1_{raw}"]
            stored += [str(i), f"{i}.5", "B+"]
            cases.append((f"{s},{c},{t},{r},{i},{i}.5,B+", stored))
    return cases


def test_worker_sorts_messy_rows_into_stored_rows_and_reasons(tmp_path):
    rng = random.Random(9)

    for trial in range(8):
        cases = _messy_rows(rng, 60)
        p = tmp_path / f"m{trial}.csv"
        p.write_text(PERF_HEADER + "\n" + "".join(line + "\n" for line, _ in cases))
        expected_rows = [want for _, want in cases if isinstance(want, list)]
        expected_errors = [
            (line_number, *want)
            for line_number, (_, want) in enumerate(cases, start=2)
            if isinstance(want, tuple)
        ]

        rows, errors, line_count = process_whole_file(p, PERF)
        assert rows == expected_rows
        assert [(e.line_number, e.tenant_key_value, e.reason) for e in errors] == expected_errors
        assert line_count == 1 + len(cases)


# ---- the worker's storage rows against an oracle read off the catalog ----

# no "A" or "L", so no field can be the reserved roll-up text "ALL"
_TEXT_ALPHABET = "abcXYZ019 -.'%s%%\"\\\tüé_"


def _oracle_storage_row(table, tenant, fields):
    """Expected storage row of one valid upload row, built from the
    catalog's attribute kinds alone: the tenant-key column holds the
    tenant, a dimension key is the tenant-qualified natural key, a
    reference is stored as its raw value then its qualified key, and every
    other attribute is copied as uploaded."""
    uploaded = dict(zip(table.upload_columns, fields))
    row = []
    for attr in table.attributes:
        if attr.kind == TENANT_KEY:
            row.append(tenant.value)
        elif attr.kind == DIMENSION_KEY:
            natural = next(a for a in table.attributes if a.kind == NATURAL_KEY)
            row.append(f"{tenant.value}_{uploaded[natural.name]}")
        elif attr.kind == REFERENCE:
            raw = uploaded[attr.raw_name]
            row += [raw, f"{tenant.value}_{raw}"]
        else:
            row.append(uploaded[attr.name])
    return row


def _valid_upload_row(table, rng):
    fields = []
    for attr in table.attributes:
        if attr.kind in (TENANT_KEY, DIMENSION_KEY):
            continue
        if attr.value_class == INTEGER:
            fields.append(str(rng.randint(-10**6, 10**6)))
        elif attr.value_class == DECIMAL:
            fields.append(f"{rng.uniform(-1e4, 1e4):.{rng.randrange(4)}f}")
        else:
            is_key = attr.kind in (NATURAL_KEY, REFERENCE)
            fields.append("".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(int(is_key), 8))))
    return fields


@pytest.mark.parametrize("tenant", [U1, TenantKey("U%s1")], ids=lambda t: t.value)
@pytest.mark.parametrize("table_name", sorted(SCHEMA.tables))
def test_stored_rows_match_catalog_oracle(tmp_path, table_name, tenant):
    table = SCHEMA.tables[table_name]
    rng = random.Random(table_name)
    uploads = [_valid_upload_row(table, rng) for _ in range(200)]
    p = tmp_path / "upload.csv"
    p.write_text(
        table.upload_header + "\n" + "".join(",".join(f) + "\n" for f in uploads),
        encoding="utf-8",
    )
    rows, errors, line_count = process_whole_file(p, table, tenant)
    assert errors == []
    assert line_count == 1 + len(uploads)
    assert rows == [_oracle_storage_row(table, tenant, f) for f in uploads]


# field values that survive a CSV round trip unchanged
_field = st.text(
    alphabet=st.characters(blacklist_characters=",\n\r", codec="utf-8"),
    min_size=1, max_size=12,
).filter(lambda s: s.strip() == s and s != "ALL")


@settings(max_examples=60, deadline=None)
@given(
    key=_field, course=_field, time=_field, reg=_field,
    marks=st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: f"{f:.3f}"),
    att=st.integers(0, 100).map(str),
    grade=_field,
)
def test_storage_row_roundtrip(tmp_path_factory, key, course, time, reg, marks, att, grade):
    """Any shape-valid upload row becomes exactly one storage row whose raw
    columns echo the input."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    p = tmp / "f.csv"
    p.write_text(_perf_csv([(key, course, time, reg, marks, att, grade)]))
    rows, errors, _ = process_whole_file(p, PERF)
    assert [e.reason for e in errors] == []
    assert len(rows) == 1
    row = dict(zip(PERF.storage_columns, rows[0]))
    assert (row["student_id"], row["course_code"], row["time_code"],
            row["regtype_code"], row["marks"], row["percent_attended"],
            row["grade"]) == (key, course, time, reg, marks, att, grade)
    assert row["student_key"] == f"University1_{key}"


# ---- pipeline: all-or-nothing and global line numbers ----

def test_rejected_batch_reports_global_line_numbers(store, tmp_path):
    rows = []
    for i in range(400):
        rows.append((f"s{i}", "CS101", "T1", "FT", str(i), "50", "A"))
    planted = {3: "not-numeric:marks", 150: "arity: expected 7 fields, found 2",
               399: "empty-key:course_code"}
    rows[3 - 2] = ("sX", "CS101", "T1", "FT", "oops", "50", "A")
    rows[150 - 2] = ("sY", "junk")
    rows[399 - 2] = ("sZ", "", "T1", "FT", "1", "50", "A")
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv(rows))

    # small splits so the errors land in different splits
    pipeline = EtlPipeline(store, SplitConfig(1, 256 * MIB, 2 * KIB), 1)
    result = pipeline.run(p, "StudentPerformance", U1, CASE2)
    assert not result.committed
    assert result.rows_out == 0
    assert store.segments("StudentPerformance") == []
    assert not list((store.root / ".staging").iterdir()), "no leftover staging files"
    got = {e.line_number: e.reason for e in result.report.entries}
    assert got == planted
    assert result.rows_in == 400


def test_committed_batch_row_count_and_timing(store, tmp_path):
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv(DEMO_FACTS))
    result = EtlPipeline(store, SplitConfig(1, 256 * MIB, MIB), 1).run(
        p, "StudentPerformance", U1, CASE2
    )
    assert result.committed
    assert result.rows_in == len(DEMO_FACTS) == result.rows_out
    assert result.segment.row_count == len(DEMO_FACTS)
    assert result.effective_time > 0 and result.cumulative_time > 0
    assert result.wall_time >= result.effective_time * 0.5


def test_case1_and_case2_commit_identical_bytes(store, tmp_path):
    rng = random.Random(5)
    rows = [(f"s{i}", f"CS{rng.randrange(9)}", f"T{rng.randrange(4)}",
             f"R{rng.randrange(3)}", str(rng.randrange(100)), "50", "A")
            for i in range(3000)]
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv(rows))
    pipeline = EtlPipeline(store, SplitConfig(1, 256 * MIB, 4 * KIB), 1)
    r1 = pipeline.run(p, "StudentPerformance", U1, CASE1)
    r2 = pipeline.run(p, "StudentPerformance", U1, CASE2)
    assert r1.n_m == 2 and r2.n_m > 2
    b1 = r1.segment.path.read_bytes()
    b2 = r2.segment.path.read_bytes()
    assert b1 == b2


def test_multiprocess_pool_matches_inline(store, tmp_path):
    rows = [(f"s{i}", "CS1", "T1", "FT", str(i), "50", "A") for i in range(2000)]
    p = tmp_path / "f.csv"
    p.write_text(_perf_csv(rows))
    inline = EtlPipeline(store, SplitConfig(1, 256 * MIB, 4 * KIB), 1).run(
        p, "StudentPerformance", U1, CASE2
    )
    pooled = EtlPipeline(store, SplitConfig(1, 256 * MIB, 4 * KIB), 4).run(
        p, "StudentPerformance", U1, CASE2
    )
    assert inline.segment.path.read_bytes() == pooled.segment.path.read_bytes()
    assert inline.n_m == pooled.n_m


def test_error_report_csv_format():
    from eduwarehouse.etl import EtlError
    report = EtlErrorReport((EtlError(3, "s1", "not-numeric:marks"),
                             EtlError(9, None, "arity: expected 7 fields, found 2")))
    assert report.to_csv() == (
        "line_number,tenant_key_value,reason\n"
        "3,s1,not-numeric:marks\n"
        "9,,arity: expected 7 fields, found 2\n"
    )


def test_crlf_upload_accepted(store, tmp_path):
    p = tmp_path / "f.csv"
    p.write_bytes(_perf_csv(DEMO_FACTS).replace("\n", "\r\n").encode())
    result = EtlPipeline(store, SplitConfig(1, 256 * MIB, MIB), 1).run(
        p, "StudentPerformance", U1, CASE2
    )
    assert result.committed and result.rows_out == len(DEMO_FACTS)
    # stored rows are LF-terminated and carry no CR
    assert b"\r" not in result.segment.path.read_bytes()
