"""One set of upload-row rules: the shape rule and the pipeline's split
worker agree on every table."""

import pytest

from eduwarehouse.etl import EtlPipeline, SplitConfig
from eduwarehouse.schema import (
    CODE,
    DECIMAL,
    DESCRIPTIVE,
    DIMENSION_KEY,
    INTEGER,
    NATURAL_KEY,
    REFERENCE,
    TENANT_KEY,
    TEXT,
    TenantKey,
    builtin_schema,
    upload_rules,
)

from conftest import U1

SCHEMA = builtin_schema()


def _fault_rows(table):
    """(fields, expected first reason or None) for one valid row and rows
    carrying each single fault, plus a numeric fault behind a reserved value
    (numeric checks come first)."""
    uploaded = [a for a in table.attributes if a.kind not in (TENANT_KEY, DIMENSION_KEY)]
    columns = table.upload_columns
    valid = [
        "7" if a.value_class == INTEGER else "2.5" if a.value_class == DECIMAL else f"v{i}"
        for i, a in enumerate(uploaded)
    ]

    def with_value(i, value):
        row = list(valid)
        row[i] = value
        return row

    n = len(columns)
    cases = [
        (valid, None),
        (valid + ["extra"], f"arity: expected {n} fields, found {n + 1}"),
        (valid[:-1], f"arity: expected {n} fields, found {n - 1}"),
    ]
    numeric = [i for i, a in enumerate(uploaded) if a.value_class != TEXT]
    reserved = [
        i for i, a in enumerate(uploaded)
        if a.value_class == TEXT and a.kind in (NATURAL_KEY, REFERENCE, CODE)
    ]
    keys = [i for i, a in enumerate(uploaded) if a.kind in (NATURAL_KEY, REFERENCE)]
    for i in numeric:
        for bad in ("nan", "inf", "-inf", "1e999", "oops", ""):
            cases.append((with_value(i, bad), f"not-numeric:{columns[i]}"))
    for i in reserved:
        cases.append((with_value(i, "ALL"), f"reserved-value:{columns[i]}"))
        for j in numeric:
            row = with_value(i, "ALL")
            row[j] = "oops"
            cases.append((row, f"not-numeric:{columns[j]}"))
    for i in keys:
        cases.append((with_value(i, ""), f"empty-key:{columns[i]}"))
    for i, a in enumerate(uploaded):
        if a.kind == DESCRIPTIVE:
            cases.append((with_value(i, "ALL"), None))  # free text may say ALL
    if table.name == "StudentPerformance":
        cases.append(("s1,ALL,T1,FT,oops,60,A".split(","), "not-numeric:marks"))
        cases.append((",CS1,T1,FT,5,6,A".split(","), "empty-key:student_id"))
    return cases


@pytest.mark.parametrize("table_name", sorted(SCHEMA.tables))
def test_every_caller_reports_the_same_first_fault(table_name, store, tmp_path):
    table = SCHEMA.tables[table_name]
    cases = _fault_rows(table)
    path = tmp_path / "upload.csv"
    path.write_text(
        table.upload_header + "\n" + "".join(",".join(f) + "\n" for f, _ in cases)
    )

    # the whole pipeline; data rows start at line 2
    result = EtlPipeline(store, SplitConfig(1, 1 << 28, 1 << 20), 1).run(path, table_name, U1)
    reported = {e.line_number: e.reason for e in result.report.entries}

    for line, (fields, expected) in enumerate(cases, start=2):
        assert reported.get(line) == expected, (line, fields)
        shape = upload_rules(table).shape(fields)
        # empty keys are the empty_key rule's, checked after shape
        if expected is None or expected.startswith("empty-key:"):
            assert shape is None, (fields, shape)
        else:
            assert shape is not None and shape[0] == expected, (fields, shape)


def _stored_row(table, tenant, fields):
    """The storage row of a conforming upload row: the tenant key, then
    each attribute's field, a dimension key or a reference also qualified."""
    by_column = dict(zip(table.upload_columns, fields))
    natural = table.attrs_of_kind(NATURAL_KEY)
    cells = []
    for attr in table.attributes:
        if attr.kind == TENANT_KEY:
            cells.append(tenant)
        elif attr.kind == DIMENSION_KEY:
            cells.append(f"{tenant}_{by_column[natural[0].name]}")
        elif attr.kind == REFERENCE:
            cells += [by_column[attr.raw_name], f"{tenant}_{by_column[attr.raw_name]}"]
        else:
            cells.append(by_column[attr.name])
    return ",".join(cells)


@pytest.mark.parametrize("end", ["", "\r"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("table_name", sorted(SCHEMA.tables))
def test_generated_loop_agrees_with_the_rules_row_by_row(table_name, end):
    table = SCHEMA.tables[table_name]
    tenant = TenantKey("U%s%d%%").value
    rules = upload_rules(table)
    cases = _fault_rows(table)
    faults = []
    rows, last = rules.rows([",".join(f) + end for f, _ in cases], 1, tenant, faults)

    expected_rows, expected_faults = [], []
    for line, (fields, _) in enumerate(cases, start=2):
        bad = rules.shape(fields) or rules.empty_key(fields)
        if bad is None:
            expected_rows.append(_stored_row(table, tenant, fields))
        else:
            expected_faults.append((line, bad))
    assert rows == expected_rows
    assert faults == expected_faults  # (line, (reason, key context)) each
    assert last == len(cases) + 1
