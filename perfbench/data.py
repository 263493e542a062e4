"""Benchmark inputs, generated with eduwarehouse.datagen, and the report oracle.

Inputs depend only on the seed and the sizes.  Fact rows are made unique per
natural key before upload, so the expected reports follow from the rows
alone: within one upload no row supersedes another, and a later upload of
the same keys replaces the earlier one as a whole.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from pathlib import Path

from eduwarehouse.datagen import DimensionUniverse, gen_dataset_rows
from eduwarehouse.schema import TenantKey, builtin_schema

UNIVERSE = DimensionUniverse.default()
SCHEMA = builtin_schema()

PERFORMANCE = "StudentPerformance"
COUNTS = "StudentCounts"
DIMENSIONS = ("Times", "Regtypes", "Departments", "Programs", "Courses")

# leading upload columns that hold the natural key
_KEY_WIDTH = {PERFORMANCE: 4, COUNTS: 3}
MARKS = 4  # upload column of StudentPerformance.marks

TERMS = tuple(code for code, _, _ in UNIVERSE.times)
YEARS = tuple(sorted({str(year) for _, year, _ in UNIVERSE.times}))
_YEAR_OF = {code: str(year) for code, year, _ in UNIVERSE.times}

MARKS_REPORT = "avg_marks_by_regtype"
ATTENDANCE_REPORT = "avg_attendance_by_course"
COUNTS_REPORT = "student_counts_by_department"
# report id -> (query parameter, the values a client cycles through)
REPORT_PARAMS = {
    MARKS_REPORT: ("time_code", TERMS),
    ATTENDANCE_REPORT: ("time_code", TERMS),
    COUNTS_REPORT: ("year", YEARS),
}

REL_TOL = 1e-9


def tenant_key(i: int) -> TenantKey:
    return TenantKey(f"University{i + 1}")


def dimension_uploads() -> dict[str, bytes]:
    """One tenant's dimension uploads; keys are qualified on ingest."""
    return {t: UNIVERSE.dimension_upload(t, SCHEMA).encode("utf-8") for t in DIMENSIONS}


def unique_fact_rows(workdir: Path, table: str, tenant: TenantKey, n_rows: int,
                     seed: int) -> list[list[str]]:
    """Generate ``n_rows`` fact rows and keep the first row of each natural key."""
    path = gen_dataset_rows(workdir / f"gen_{table}_{tenant.value}.csv", n_rows,
                            table, tenant, seed, UNIVERSE)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    path.unlink()
    width = _KEY_WIDTH[table]
    seen: set[tuple[str, ...]] = set()
    rows = []
    for line in lines:
        fields = line.split(",")
        key = tuple(fields[:width])
        if key not in seen:
            seen.add(key)
            rows.append(fields)
    return rows


def to_csv(table: str, rows: list[list[str]]) -> bytes:
    header = SCHEMA.tables[table].upload_header
    return (header + "\n" + "".join(",".join(r) + "\n" for r in rows)).encode("utf-8")


def remark(rows: list[list[str]], rng: random.Random) -> list[list[str]]:
    """A corrected re-upload: same natural keys, new marks."""
    out = []
    for row in rows:
        new = list(row)
        new[MARKS] = f"{rng.uniform(0, 100):.2f}"
        out.append(new)
    return out


def _mean_rows(param: str, groups: dict, total: list) -> list[tuple]:
    rows = [(param, label, s / n) for label, (s, n) in sorted(groups.items())]
    rows.append((param, "ALL", total[0] / total[1]))
    return rows


def expected_reports(performance: list[list[str]], counts: list[list[str]]) -> dict:
    """(report id, parameter value) -> expected rows for one tenant.

    Rows are (parameter, label, value) in report order: labels ascending,
    then the ALL summary row.  Parameter values with no facts give no rows.
    """
    marks = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    attendance = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for student, course, term, regtype, mark, attended, _grade in performance:
        acc = marks[term][regtype]
        acc[0] += float(mark)
        acc[1] += 1
        acc = attendance[term][course]
        acc[0] += float(attended)
        acc[1] += 1
    heads = defaultdict(lambda: defaultdict(int))
    for department, _program, term, head_count in counts:
        heads[_YEAR_OF[term]][department] += int(head_count)

    expected = {}
    for report, source in ((MARKS_REPORT, marks), (ATTENDANCE_REPORT, attendance)):
        for term in TERMS:
            groups = source.get(term, {})
            if not groups:
                expected[report, term] = []
                continue
            total = [sum(s for s, _ in groups.values()), sum(n for _, n in groups.values())]
            expected[report, term] = _mean_rows(term, groups, total)
    for year in YEARS:
        groups = heads.get(year, {})
        rows = [(year, dep, n) for dep, n in sorted(groups.items())]
        if rows:
            rows.append((year, "ALL", sum(groups.values())))
        expected[COUNTS_REPORT, year] = rows
    return expected


def rows_match(expected: list[tuple], got: list[list[str]]) -> bool:
    """Labels equal; means within REL_TOL; integer sums exactly equal."""
    if len(expected) != len(got):
        return False
    for (param, label, value), row in zip(expected, got):
        if len(row) != 3 or row[0] != param or row[1] != label:
            return False
        if isinstance(value, int):
            if row[2] != str(value):
                return False
        else:
            try:
                cell = float(row[2])
            except ValueError:
                return False
            if not math.isclose(cell, value, rel_tol=REL_TOL):
                return False
    return True
