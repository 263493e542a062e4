"""Acceptance gate: one test per shipped criterion.

Each test carries ``@pytest.mark.acceptance(n, label)`` so the run prints one
``acceptance criterion n (label): PASS|FAIL`` line per criterion.  Every
numeric expectation is checked against an oracle computed independently
inside this file (closed-form re-expressions, brute-force group-bys, numpy
statistics), never against the implementation's own helpers.
"""

import math
import random
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from eduwarehouse.auth import hash_secret  # noqa: F401  (import sanity)
from eduwarehouse.bench import BenchPlan, remove_outliers, run_etl_bench, run_olap_bench
from eduwarehouse.cli import main as cli_main
from eduwarehouse.cube import (
    AggregateSpec,
    CubeEngine,
    CubeSpec,
    builtin_cube_specs,
    grouping_id,
    presence_from_id,
)
from eduwarehouse.errors import ValidationError
from eduwarehouse.etl import CASE2, EtlPipeline, SplitConfig, mapper_count, split_size
from eduwarehouse.olap import QueryEngine, TenantContext, report_catalog
from eduwarehouse.schema import TenantKey, builtin_schema
from eduwarehouse.store import SegmentStore

from conftest import (
    DIM_UPLOADS,
    DEMO_FACTS,
    DEMO_TERM,
    PERF_HEADER,
    U1,
    U2,
    ingest_demo_fixture,
    ingest_text,
)

KIB = 1024
MIB = 1024 * KIB


def _fresh(tmp_path, name="wh"):
    store = SegmentStore(tmp_path / name, builtin_schema())
    pipeline = EtlPipeline(store, SplitConfig(1, 256 * MIB, MIB), 1)
    return store, pipeline


# criterion 1 -----------------------------------------------------------------

@pytest.mark.acceptance(1, "split math matches the closed form")
def test_split_math_exhaustive_grid():
    started = time.monotonic()
    grid = [KIB << i for i in range(11)]  # 1 KiB .. 1024 KiB
    sip_values = (1, 1000, KIB, 777 * KIB, MIB + 1, 5 * MIB)
    checked = 0
    for s_min in grid:
        for s_max in grid:
            for s_b in grid:
                if s_min > s_max:
                    with pytest.raises(ValidationError):
                        SplitConfig(s_min, s_max, s_b)
                    continue
                cfg = SplitConfig(s_min, s_max, s_b)
                expected_split = max(s_min, min(s_max, s_b))
                assert split_size(cfg) == expected_split
                for s_ip in sip_values:
                    expected_n_m = -(-s_ip // expected_split)  # ceil
                    assert mapper_count(s_ip, expected_split) == expected_n_m
                    checked += 1
    assert checked == 726 * len(sip_values)
    assert time.monotonic() - started < 1.0


# criterion 2 -----------------------------------------------------------------

@pytest.mark.acceptance(2, "grouping_id worked examples and bijection")
def test_grouping_id_examples_and_bijection():
    attrs = ("university_key", "course_key", "time_key", "regtype_key")
    # course and regtype rolled up -> 0101; time rolled up -> 1011
    assert grouping_id(attrs, (True, False, True, False)) == int("0101", 2) == 5
    assert grouping_id(attrs, (True, True, False, True)) == int("1011", 2) == 11

    for k in range(1, 9):
        names = tuple(f"a{i}" for i in range(k))
        seen = set()
        for mask in range(1 << k):
            present = presence_from_id(mask, k)
            # independent re-expression: bit j of the mask is flag j
            assert present == tuple(bool(mask & (1 << j)) for j in range(k))
            assert grouping_id(names, present) == mask
            seen.add(present)
        assert len(seen) == 1 << k


# criterion 3 -----------------------------------------------------------------

def _brute_force_cube(rows, attrs, measures):
    """Naive group-by over every mask; rows are upload-field dicts."""
    groups = defaultdict(lambda: [0] + [0.0] * len(measures))
    k = len(attrs)
    for mask in range(1 << k):
        for row in rows:
            key = tuple(row[a] if mask & (1 << j) else None for j, a in enumerate(attrs))
            acc = groups[(mask, row["tenant"]) + key]
            acc[0] += 1
            for mi, m in enumerate(measures):
                acc[1 + mi] += float(row[m])
    return groups


@pytest.mark.acceptance(3, "cube aggregates equal a brute-force oracle")
def test_cube_matches_brute_force_oracle(tmp_path):
    started = time.monotonic()
    upload_cols = ("student_id", "course_code", "time_code", "regtype_code",
                   "marks", "percent_attended", "grade")
    attr_pool = ("course_code", "time_code", "regtype_code", "grade")
    measure_pool = ("marks", "percent_attended")
    tenants = (U1, U2)

    for fixture in range(100):
        rng = random.Random(1000 + fixture)
        k = rng.randint(1, 4)
        attrs = tuple(rng.sample(attr_pool, k))
        measures = tuple(rng.sample(measure_pool, rng.randint(1, 2)))
        n_rows = rng.randint(40, 500)

        store, pipeline = _fresh(tmp_path, f"wh{fixture}")
        rows = []
        for i in range(n_rows):
            rows.append({
                "tenant": rng.choice(tenants).value,
                "student_id": f"s{i}",  # unique: no dedupe interplay
                "course_code": f"C{rng.randrange(4)}",
                "time_code": f"T{rng.randrange(3)}",
                "regtype_code": f"R{rng.randrange(3)}",
                "marks": f"{rng.uniform(0, 100):.2f}",
                "percent_attended": f"{rng.uniform(0, 100):.2f}",
                "grade": rng.choice("ABCDF"),
            })
        for tenant in tenants:
            mine = [r for r in rows if r["tenant"] == tenant.value]
            if not mine:
                continue
            text = ",".join(upload_cols) + "\n" + "".join(
                ",".join(r[c] for c in upload_cols) + "\n" for r in mine
            )
            ingest_text(pipeline, tmp_path, "StudentPerformance", text, tenant)

        spec = CubeSpec(
            name=f"fixture{fixture}", fact="StudentPerformance",
            mandatory_keys=("university_key",), cube_attrs=attrs,
            aggregates=tuple(AggregateSpec(f"avg_{m}", m) for m in measures),
        )
        CubeEngine(store).build(spec)
        oracle = _brute_force_cube(rows, attrs, measures)

        engine = QueryEngine(store, specs={spec.name: spec}, catalog={})
        got_keys = set()
        for tenant in tenants:
            ctx = TenantContext(tenant, "acceptance")
            for row in engine.query_cube(ctx, spec.name, set(range(1 << k))):
                key = (row.grouping_id, tenant.value) + row.attrs
                got_keys.add(key)
                acc = oracle[key]
                assert row.support_count == acc[0]
                for mi in range(len(measures)):
                    expected_sum = acc[1 + mi]
                    expected_mean = expected_sum / acc[0]
                    assert row.counts[mi] == acc[0]
                    assert math.isclose(row.sums[mi], expected_sum, rel_tol=1e-9)
                    assert math.isclose(row.means[mi], expected_mean, rel_tol=1e-9)
        assert got_keys == set(oracle), "same groups, no extras or gaps"
    assert time.monotonic() - started < 60.0


# criterion 4 -----------------------------------------------------------------

@pytest.mark.acceptance(4, "worked-example query reproduced")
def test_worked_example_query(store, pipeline, tmp_path):
    ingest_demo_fixture(pipeline, tmp_path)
    CubeEngine(store).build(builtin_cube_specs()["student_performance"])

    report = report_catalog()["avg_marks_by_regtype"]
    assert report.masks == {int("110", 2), int("010", 2)} == {6, 2}

    result = QueryEngine(store).generate_report(
        TenantContext(U1, "acceptance"), "avg_marks_by_regtype",
        {"time_code": DEMO_TERM},
    )
    # hand-computed: FT (80+90)/2=85, PT (70+74)/2=72, DL 60/1=60,
    # summary (80+90+70+74+60)/5=74.8
    assert result.rows == (
        (DEMO_TERM, "DL", "60"),
        (DEMO_TERM, "FT", "85"),
        (DEMO_TERM, "PT", "72"),
        (DEMO_TERM, "ALL", "74.8"),
    )
    per_regtype = [r for r in result.rows if r[1] != "ALL"]
    assert len(per_regtype) == 3 and len(result.rows) == 4


# criterion 5 -----------------------------------------------------------------

def _random_facts(rng, n):
    rows = []
    for i in range(n):
        rows.append((
            f"s{i}", "CS101",
            rng.choice((DEMO_TERM, "2016-17-AUT")),
            rng.choice(("FT", "PT", "DL")),
            str(rng.randrange(100)), str(rng.randrange(100)),
            rng.choice("ABCDF"),
        ))
    return rows


@pytest.mark.acceptance(5, "tenant deletion leaves other tenants byte-identical")
def test_tenant_isolation_under_deletion(tmp_path):
    spec = builtin_cube_specs()["student_performance"]
    for fixture in range(20):
        rng = random.Random(5000 + fixture)
        store, pipeline = _fresh(tmp_path, f"wh{fixture}")

        ingest_demo_fixture(pipeline, tmp_path, tenant=U1,
                             facts=_random_facts(rng, rng.randint(20, 120)))
        b_batches = []  # every segment tenant B created, any table
        for table, text in DIM_UPLOADS.items():
            result = ingest_text(pipeline, tmp_path, table, text, U2)
            b_batches.append((table, result.segment.batch_id))
        text = PERF_HEADER + "\n" + "".join(
            ",".join(r) + "\n" for r in _random_facts(rng, rng.randint(20, 120))
        )
        result = ingest_text(pipeline, tmp_path, "StudentPerformance", text, U2)
        b_batches.append(("StudentPerformance", result.segment.batch_id))

        CubeEngine(store).build(spec)
        engine = QueryEngine(store)
        ctx = TenantContext(U1, "acceptance")
        params = {"time_code": DEMO_TERM}
        before = engine.generate_report(ctx, "avg_marks_by_regtype", params).to_csv()
        a_segments = {
            seg.path: seg.path.read_bytes()
            for seg in store.segments("StudentPerformance")
            if seg.batch_id not in {b for t, b in b_batches if t == "StudentPerformance"}
        }

        for table, batch_id in b_batches:
            store.drop_batch(table, batch_id)
        CubeEngine(store).build(spec)

        after = engine.generate_report(ctx, "avg_marks_by_regtype", params).to_csv()
        assert after == before, f"fixture {fixture}: report changed"
        for path, blob in a_segments.items():
            assert path.read_bytes() == blob, f"fixture {fixture}: raw segment changed"


# criterion 6 -----------------------------------------------------------------

_PLANTS = (
    lambda row: row[:4] + ("not-a-number",) + row[5:],          # bad marks
    lambda row: row[:2],                                        # wrong arity
    lambda row: row[:1] + ("ALL",) + row[2:],                   # reserved code
    lambda row: row[:5] + ("1e999",) + row[6:],                 # non-finite
)


@pytest.mark.acceptance(6, "all-or-nothing rejection with exact line numbers")
def test_etl_all_or_nothing_planted_errors(tmp_path):
    for fixture in range(50):
        rng = random.Random(6000 + fixture)
        store = SegmentStore(tmp_path / f"wh{fixture}", builtin_schema())
        pipeline = EtlPipeline(store, SplitConfig(2 * KIB, 2 * KIB, 2 * KIB), 1)

        seeded = ingest_text(pipeline, tmp_path, "StudentPerformance",
                             PERF_HEADER + "\nseed,CS101,T1,FT,50,50,C\n")
        baseline = [(s.batch_id, s.path.read_bytes()) for s in
                    store.segments("StudentPerformance")]

        n_rows = rng.randint(50, 400)
        rows = [(f"s{i}", f"C{rng.randrange(9)}", f"T{rng.randrange(4)}",
                 f"R{rng.randrange(3)}", str(rng.randrange(100)),
                 str(rng.randrange(100)), "B") for i in range(n_rows)]
        planted = sorted(rng.sample(range(n_rows), rng.randint(1, 6)))
        for idx in planted:
            rows[idx] = _PLANTS[idx % len(_PLANTS)](rows[idx])

        upload = tmp_path / f"plant{fixture}.csv"
        upload.write_text(PERF_HEADER + "\n" +
                          "".join(",".join(r) + "\n" for r in rows))
        result = pipeline.run(upload, "StudentPerformance", U1)

        assert not result.committed
        expected_lines = [idx + 2 for idx in planted]  # header is line 1
        got_lines = [e.line_number for e in result.report.entries]
        assert got_lines == expected_lines, f"fixture {fixture}"
        assert result.rows_in == n_rows and result.rows_out == 0

        now = [(s.batch_id, s.path.read_bytes()) for s in
               store.segments("StudentPerformance")]
        assert now == baseline, f"fixture {fixture}: table state changed"
        staging = store.staging_path("probe").parent
        assert [p.name for p in staging.iterdir()] == [], "staging not clean"
        assert seeded.segment.batch_id == 1


# criterion 7 -----------------------------------------------------------------

@pytest.mark.acceptance(7, "ETL scalability shape over 2-64 MiB")
def test_etl_scalability_shape(tmp_path):
    started = time.monotonic()
    sizes = tuple(2 * MIB << i for i in range(6))  # 2,4,8,16,32,64 MiB
    store = SegmentStore(tmp_path / "wh", builtin_schema())
    series = run_etl_bench(store, BenchPlan("etl", sizes, reps=20))
    elapsed = time.monotonic() - started

    by_size = {x: (case1, case2) for x, case1, case2 in series.rows}
    assert set(by_size) == set(sizes)
    case1_64, case1_2 = by_size[64 * MIB][0], by_size[2 * MIB][0]
    assert case1_64 >= 8.0 * case1_2, (
        f"case 1 must grow linearly: 64MiB={case1_64:.1f}ms 2MiB={case1_2:.1f}ms"
    )
    case2_means = [case2 for _, case2 in by_size.values()]
    flatness = max(case2_means) / min(case2_means)
    assert flatness <= 2.0, f"case 2 must stay near-constant, got {flatness:.2f}x"
    assert elapsed <= 15 * 60, f"bench took {elapsed:.0f}s"


# criterion 8 -----------------------------------------------------------------

@pytest.mark.acceptance(8, "OLAP scalability shape over a 5x cube range")
def test_olap_scalability_shape(tmp_path):
    started = time.monotonic()
    # fact targets sized so cube rows land just under worker-count steps
    # (about 1.25 cube rows materialize per fact), keeping per-worker load
    # near-equal across the whole range
    targets = (157_500, 316_500, 475_500, 635_000, 796_000)
    series = run_olap_bench(tmp_path, BenchPlan("olap", targets, reps=20))
    elapsed = time.monotonic() - started

    xs = [x for x, _, _ in series.rows]
    cumulative = [y for _, y, _ in series.rows]
    effective = [z for _, _, z in series.rows]
    assert len(xs) == 5 and xs == sorted(xs)
    assert xs[-1] >= 5 * xs[0], f"cube sizes must span 5x, got {xs}"

    inversions = sum(1 for a, b in zip(cumulative, cumulative[1:]) if b < a)
    assert inversions <= 1, f"cumulative means not monotone: {cumulative}"
    flatness = max(effective) / min(effective)
    assert flatness <= 1.5, f"effective must stay near-constant, got {flatness:.2f}x"
    assert elapsed <= 10 * 60, f"bench took {elapsed:.0f}s"


# criterion 9 -----------------------------------------------------------------

@pytest.mark.acceptance(9, "commit_batch time independent of row count")
def test_commit_batch_constant_time(tmp_path):
    store = SegmentStore(tmp_path / "wh", builtin_schema())
    timings = {}
    for n in (10**3, 10**4, 10**5, 10**6):
        row = "University1_s1,s1,University1_x,x,University1_T,T,University1_R,R,50,50,B\n"
        best = math.inf
        for attempt in range(3):
            staged = store.staging_path(f"c9_{n}_{attempt}.rows")
            with open(staged, "w") as fh:
                fh.writelines(row for _ in range(n))
            t0 = time.perf_counter()
            store.commit_batch("StudentPerformance", staged, row_count=n)
            best = min(best, time.perf_counter() - t0)
        timings[n] = best
    spread = max(timings.values()) - min(timings.values())
    assert spread <= 0.020, f"commit spread {spread * 1000:.2f}ms over {timings}"


# criterion 10 ----------------------------------------------------------------

def _outlier_oracle(samples):
    """Independent two-stage filter in numpy terms."""
    data = np.asarray(samples, dtype=float)
    q1, q3 = np.percentile(data, 25), np.percentile(data, 75)
    stage1 = data[(data >= q1) & (data <= q3)]
    mu, sigma = np.mean(stage1), np.std(stage1)
    stage2 = stage1[(stage1 >= mu - 1.5 * sigma) & (stage1 <= mu + 1.5 * sigma)]
    survivors = stage2 if len(stage2) else stage1
    return sorted(survivors.tolist())


@pytest.mark.acceptance(10, "outlier removal matches an independent script")
def test_remove_outliers_against_oracle():
    rng = random.Random(77)
    for trial in range(50):
        n = rng.randint(4, 60)
        samples = [rng.uniform(0.5, 120.0) for _ in range(n)]
        if trial % 4 == 0:
            samples[rng.randrange(n)] *= rng.uniform(8, 40)  # inject spikes
        if trial % 7 == 0:
            samples[rng.randrange(n)] *= -1
        got = remove_outliers(samples)
        assert sorted(got) == _outlier_oracle(samples), f"trial {trial}"
        # order preservation: survivors appear in original order
        it = iter(samples)
        assert all(any(v == w for w in it) for v in got)


# criterion 11 ----------------------------------------------------------------

GOLDEN_REPORT = (
    "time_code,regtype_code,avg_marks\n"
    "2016-17-SPR,DL,60\n"
    "2016-17-SPR,FT,85\n"
    "2016-17-SPR,PT,72\n"
    "2016-17-SPR,ALL,74.8\n"
)


def _cli_round_trip(root: Path, uploads: Path, capsys) -> str:
    assert cli_main(["init", "--root", str(root)]) == 0
    for table in ("Times", "Regtypes", "Courses", "Departments", "StudentPerformance"):
        assert cli_main(["ingest", "--root", str(root), "--tenant", "University1",
                         "--table", table, "--file", str(uploads / f"{table}.csv")]) == 0
    assert cli_main(["build-cube", "--root", str(root)]) == 0
    capsys.readouterr()
    assert cli_main(["report", "--root", str(root), "--tenant", "University1",
                     "--report", "avg_marks_by_regtype",
                     "--param", f"time_code={DEMO_TERM}"]) == 0
    return capsys.readouterr().out


@pytest.mark.acceptance(11, "CLI round trip is byte-stable")
def test_cli_round_trip_byte_stable(tmp_path, capsys):
    uploads = tmp_path / "uploads"
    uploads.mkdir()
    for table, text in DIM_UPLOADS.items():
        (uploads / f"{table}.csv").write_text(text)
    (uploads / "StudentPerformance.csv").write_text(
        PERF_HEADER + "\n" + "".join(",".join(r) + "\n" for r in DEMO_FACTS)
    )

    first = _cli_round_trip(tmp_path / "run1", uploads, capsys)
    second = _cli_round_trip(tmp_path / "run2", uploads, capsys)
    assert first == second == GOLDEN_REPORT
