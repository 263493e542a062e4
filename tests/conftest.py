"""Shared fixtures plus the acceptance-line reporter.

Tests marked ``@pytest.mark.acceptance(n, label)`` get one extra
``acceptance criterion n (label): PASS|FAIL`` line written straight to the
terminal (and a summary block at the end), so the acceptance status is
readable even inside a long -v run.
"""

from __future__ import annotations

import pytest
from pathlib import Path

from eduwarehouse.schema import TenantKey, builtin_schema
from eduwarehouse.store import SegmentStore
from eduwarehouse.etl import CASE2, EtlPipeline, SplitConfig, SplitRange, _process_split

_config = None
_acceptance_lines: list[str] = []


def pytest_configure(config):
    global _config
    _config = config
    config.addinivalue_line(
        "markers", "acceptance(num, label): marks a test as one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        report.acceptance_info = (marker.args[0], marker.args[1])


def pytest_runtest_logreport(report):
    info = getattr(report, "acceptance_info", None)
    if info is None:
        return
    num, label = info
    status = "PASS" if report.passed else "FAIL"
    line = f"acceptance criterion {num} ({label}): {status}"
    _acceptance_lines.append(line)
    tr = _config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.write_line("")
        tr.write_line(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_acceptance_lines, key=_criterion_order):
        terminalreporter.write_line(line)


def _criterion_order(line: str) -> int:
    try:
        return int(line.split("(", 1)[0].split()[-1])
    except ValueError:
        return 0


# ---- shared fixtures ----

U1 = TenantKey("University1")
U2 = TenantKey("University2")

PERF_HEADER = "student_id,course_code,time_code,regtype_code,marks,percent_attended,grade"

# the worked report fixture: three registration types in one term, means
# 85 (FT), 72 (PT), 60 (DL), overall 74.8
DEMO_TERM = "2016-17-SPR"
DEMO_FACTS = [
    ("sFT0", "CS101", DEMO_TERM, "FT", "80", "95", "A"),
    ("sFT1", "CS101", DEMO_TERM, "FT", "90", "95", "A"),
    ("sPT0", "CS101", DEMO_TERM, "PT", "70", "95", "B"),
    ("sPT1", "CS101", DEMO_TERM, "PT", "74", "95", "B"),
    ("sDL0", "CS101", DEMO_TERM, "DL", "60", "95", "C"),
    ("sX", "CS101", "2016-17-AUT", "FT", "50", "80", "C"),
]

DIM_UPLOADS = {
    "Times": "time_code,year,term\n2016-17-SPR,2016,SPR\n2016-17-AUT,2016,AUT\n",
    "Regtypes": "regtype_code,regtype_name\nFT,Full time\nPT,Part time\nDL,Distance\n",
    "Courses": "course_code,course_name,department_code\nCS101,Intro,DEP01\n",
    "Departments": "department_code,department_name\nDEP01,Computing\n",
}


@pytest.fixture
def store(tmp_path) -> SegmentStore:
    return SegmentStore(tmp_path / "wh", builtin_schema())


@pytest.fixture
def pipeline(store) -> EtlPipeline:
    return EtlPipeline(store, SplitConfig(1, 256 * 1024 * 1024, 1024 * 1024), 1)


def ingest_text(pipeline: EtlPipeline, tmp_path: Path, table: str, text: str,
                tenant: TenantKey = U1, mode: str = CASE2):
    path = tmp_path / f"up_{table}_{tenant.value}_{abs(hash(text)) % 10**8}.csv"
    path.write_text(text, encoding="utf-8")
    result = pipeline.run(path, table, tenant, mode)
    assert result.committed, (
        table,
        [(e.line_number, e.reason) for e in result.report.entries[:5]],
    )
    return result


def ingest_demo_fixture(pipeline: EtlPipeline, tmp_path: Path,
                         tenant: TenantKey = U1, facts=None):
    """Load the worked dimensional fixture plus its fact rows for a tenant."""
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text, tenant)
    rows = facts if facts is not None else DEMO_FACTS
    text = PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in rows)
    return ingest_text(pipeline, tmp_path, "StudentPerformance", text, tenant)


# cube_student_performance rows for University1 in the layout of earlier
# releases: a 0/1 presence flag after each attribute, then sum, count and
# mean per aggregate, then the support
EARLIER_LAYOUT_CUBE = (
    "6,University1,,0,2016-17-SPR,1,FT,1,170,2,85.0,190,2,95.0,2\n"
    "2,University1,,0,2016-17-SPR,1,,0,374,5,74.8,475,5,95.0,5\n"
)


def commit_earlier_layout_cube(store: SegmentStore) -> None:
    """Commit EARLIER_LAYOUT_CUBE as the newest cube_student_performance."""
    staged = store.staging_path("earlier_layout.cube")
    staged.write_text(EARLIER_LAYOUT_CUBE, encoding="utf-8")
    store.commit_batch("cube_student_performance", staged, row_count=2)


def process_whole_file(path: Path, table, tenant: TenantKey = U1):
    """Run the ETL split worker on all of ``path`` as one split.

    Returns (stored rows as field lists, errors, line_count).
    """
    out = path.with_name(path.name + ".out")
    whole = SplitRange(str(path), 0, path.stat().st_size, 0)
    outcome = _process_split(whole, table, tenant, str(out))
    lines = out.read_bytes().decode("utf-8").split("\n")[:-1]  # LF-terminated
    rows = [line.split(",") for line in lines]
    return rows, list(outcome.errors), outcome.line_count
