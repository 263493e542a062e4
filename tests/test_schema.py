"""Catalog shape, tenant key qualification, and row shape validation."""

import pytest

from eduwarehouse.errors import ValidationError
from eduwarehouse.schema import (
    RESERVED_ROLLUP_TEXT,
    TenantKey,
    builtin_schema,
    render_schema_reference,
    upload_rules,
)

from conftest import process_whole_file

DIMENSIONS = [
    "Universities", "Students", "Teachers", "Courses",
    "Departments", "Programs", "Times", "Regtypes",
]
FACTS = ["StudentPerformance", "TeachingQuality", "StudentCounts"]


def test_catalog_tables():
    schema = builtin_schema()
    assert sorted(schema.tables) == sorted(DIMENSIONS + FACTS)
    for name in DIMENSIONS:
        assert schema.tables[name].table_class == "dimension", name
    for name in FACTS:
        assert schema.tables[name].table_class == "fact", name


def test_snowflake_chain():
    # Courses is the one normalized dimension: it references Departments
    courses = builtin_schema().tables["Courses"]
    refs = [a for a in courses.attributes if a.referenced_table]
    assert [r.referenced_table for r in refs] == ["Departments"]


def test_qualify_key(tmp_path):
    # the ETL worker prefixes each natural key with the tenant key
    students = builtin_schema().tables["Students"]
    path = tmp_path / "students.csv"
    path.write_text(students.upload_header + "\nstudent1,Ann\n")
    rows, errors, _ = process_whole_file(path, students, TenantKey("university1"))
    assert errors == []
    assert rows[0] == ["university1_student1", "student1", "Ann"]


def test_tenant_key_rejects_bad_values():
    with pytest.raises(ValidationError):
        TenantKey("")
    with pytest.raises(ValidationError):
        TenantKey("has_separator")
    with pytest.raises(ValidationError):
        TenantKey("has,comma")


def test_dual_key_storage_layout():
    # every reference column is stored twice: raw value then qualified key
    perf = builtin_schema().tables["StudentPerformance"]
    cols = perf.storage_columns
    assert cols[0] == "university_key"
    for raw, qualified in [("course_code", "course_key"), ("time_code", "time_key"),
                           ("regtype_code", "regtype_key"), ("student_id", "student_key")]:
        assert cols.index(raw) + 1 == cols.index(qualified), (raw, qualified)


def test_upload_header_excludes_tenant_key():
    for name in DIMENSIONS + FACTS:
        table = builtin_schema().tables[name]
        assert "university_key" not in table.upload_columns, name


def _shape(table_name, row):
    return upload_rules(builtin_schema().tables[table_name]).shape(row)


def test_validate_row_shape_accepts_valid_row():
    row = ["s1", "CS101", "2016-17-SPR", "FT", "78.5", "90", "A"]
    assert _shape("StudentPerformance", row) is None


def test_validate_row_shape_arity():
    assert _shape("StudentPerformance", ["s1", "CS101"]) == (
        "arity: expected 7 fields, found 2", None
    )


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "1e999", ""])
def test_validate_row_shape_numeric(bad):
    row = ["s1", "CS101", "2016-17-SPR", "FT", bad, "90", "A"]
    assert _shape("StudentPerformance", row) == ("not-numeric:marks", "s1")


def test_validate_row_shape_integer_column():
    assert _shape("StudentCounts", ["DEP01", "PRG01", "2016-17-SPR", "120"]) is None
    err = _shape("StudentCounts", ["DEP01", "PRG01", "2016-17-SPR", "120.5"])
    assert err == ("not-numeric:head_count", "DEP01")


def test_validate_row_shape_reserved_rollup_text():
    # "ALL" is reserved for rolled-up cube cells, so key and code fields
    # may never carry it as data
    assert RESERVED_ROLLUP_TEXT == "ALL"
    err = _shape("StudentPerformance", ["s1", "ALL", "2016-17-SPR", "FT", "78", "90", "A"])
    assert err == ("reserved-value:course_code", "s1")
    # free-text name fields may contain it
    assert _shape("Departments", ["DEP01", "ALL"]) is None


def test_schema_reference_covers_every_table():
    text = render_schema_reference(builtin_schema())
    for name in DIMENSIONS + FACTS:
        assert name in text, name
        assert builtin_schema().tables[name].upload_header in text, name
