"""Benchmark harness: outlier removal, plans, series, and tiny end-to-end runs."""

import math
import random

import numpy as np
import pytest

from eduwarehouse.bench import (
    BenchPlan,
    BenchSeries,
    TimingSample,
    bench_lock,
    emit_gnuplot,
    remove_outliers,
    run_etl_bench,
    run_olap_bench,
)
from eduwarehouse.errors import BenchError, ValidationError
from eduwarehouse.etl import CASE1, CASE2, SplitConfig

from conftest import store  # noqa: F401


# ---- outlier removal ----

def test_worked_example():
    samples = [10, 12, 11, 13, 100, 11.5, 12.5, 9]
    # Q1=10.75, Q3=12.625 keep [12, 11, 11.5, 12.5]; stage 2 keeps all four
    assert remove_outliers(samples) == [12, 11, 11.5, 12.5]
    # Q1=11.25, Q3=13.75: the quartile band drops 10, 11 and 14 as well as 100
    assert remove_outliers([10, 11, 12, 13, 14, 100]) == [12, 13]


def test_all_equal_unchanged():
    assert remove_outliers([5.0] * 6) == [5.0] * 6


def test_order_preserved():
    samples = [30.0, 10.0, 20.0, 25.0, 15.0, 22.0]
    result = remove_outliers(samples)
    positions = [samples.index(v) for v in result]
    assert positions == sorted(positions)


def _oracle(samples):
    data = np.asarray(samples, dtype=float)
    q1, q3 = np.percentile(data, 25), np.percentile(data, 75)
    stage1 = data[(data >= q1) & (data <= q3)]
    mu, sigma = np.mean(stage1), np.std(stage1)
    stage2 = stage1[(stage1 >= mu - 1.5 * sigma) & (stage1 <= mu + 1.5 * sigma)]
    return list(stage2 if len(stage2) else stage1)


def test_matches_numpy_oracle_on_random_samples():
    rng = random.Random(42)
    for trial in range(50):
        n = rng.randint(4, 40)
        samples = [rng.uniform(0, 100) for _ in range(n)]
        if trial % 3 == 0:
            samples[rng.randrange(n)] = rng.uniform(500, 1000)  # gross outlier
        got = remove_outliers(samples)
        assert sorted(got) == sorted(_oracle(samples)), trial


def test_integer_range_against_oracle():
    samples = list(range(1, 101))
    assert remove_outliers(samples) == _oracle(samples)
    assert remove_outliers(samples) == list(range(29, 73))


def test_small_samples_and_bad_method_rejected():
    with pytest.raises(ValidationError):
        remove_outliers([1.0, 2.0, 3.0])
    # the quartile band is the only method; there is no knob to pick another
    with pytest.raises(TypeError):
        remove_outliers([1.0, 2.0, 3.0, 4.0], method="iqr")


# ---- plan and series ----

def test_plan_validation():
    BenchPlan("etl", (1, 2, 4), reps=3, mode=CASE1)
    with pytest.raises(ValidationError):
        BenchPlan("sort", (1, 2))
    with pytest.raises(ValidationError):
        BenchPlan("etl", (1, 2), reps=2)
    with pytest.raises(ValidationError):
        BenchPlan("etl", ())
    with pytest.raises(ValidationError):
        BenchPlan("etl", (4, 2))
    with pytest.raises(ValidationError):
        BenchPlan("etl", (2, 2))
    with pytest.raises(ValidationError):
        BenchPlan("olap", (1, 2), mode=CASE2)
    with pytest.raises(ValidationError):
        BenchPlan("etl", (1, 2), mode="case3")


def test_series_csv_golden():
    series = BenchSeries("etl", ((1024, None, 12.5), (2048, 50.0, 49.25)))
    assert series.to_csv() == "x,y,z\n1024,,12.50\n2048,50.00,49.25\n"


def test_gnuplot_script_references_paths():
    series = BenchSeries("olap", ((100, 1.0, 2.0),))
    script = emit_gnuplot(series, "bench_olap.csv", "bench_olap.png")
    assert 'set output "bench_olap.png"' in script
    assert script.count('"bench_olap.csv"') == 2
    assert "using 1:2" in script and "using 1:3" in script
    assert "cube rows" in script


# ---- locking ----

def test_bench_lock_is_exclusive(store):  # noqa: F811
    plan = BenchPlan("etl", (4096,), reps=3, mode=CASE2)
    with bench_lock(store.root):
        with pytest.raises(BenchError, match="another benchmark"):
            run_etl_bench(store, plan)
    # released on exit
    with bench_lock(store.root):
        pass


# ---- tiny end-to-end runs ----

def test_etl_bench_tiny(store):  # noqa: F811
    size = 64 * 1024
    plan = BenchPlan("etl", (size,), reps=4)
    series = run_etl_bench(
        store, plan, split_cfg=SplitConfig(8 * 1024, 8 * 1024, 8 * 1024),
        worker_pool_size=1,
    )
    assert series.experiment == "etl"
    ((x, case1_ms, case2_ms),) = series.rows
    assert x == size and case1_ms > 0 and case2_ms > 0

    case1 = [s for s in series.samples if s.mode == CASE1]
    case2 = [s for s in series.samples if s.mode == CASE2]
    assert len(case1) == len(case2) == 4
    assert all(s.rep_index >= 1 for s in series.samples), "warm-up rep discarded"
    assert {s.n_m for s in case1} == {2}
    assert {s.n_m for s in case2} == {8}
    # splits execute sequentially here, so busy totals dominate the critical path
    assert all(s.cumulative >= s.effective * 0.9 for s in case2)

    assert store.segments("StudentPerformance") == [], "bench batches dropped"
    assert not (store.root / ".bench").exists(), "scratch removed"
    assert any("exceeds worker pool" in note for note in series.notes)


def test_olap_bench_tiny(tmp_path):
    plan = BenchPlan("olap", (200, 500), reps=3)
    series = run_olap_bench(tmp_path, plan)
    assert series.experiment == "olap"
    assert len(series.rows) == 2
    xs = [row[0] for row in series.rows]
    assert xs[0] > 0 and xs[1] > xs[0], "x is the actual cube row count"
    for _, cum_ms, eff_ms in series.rows:
        assert cum_ms > 0 and eff_ms > 0
    assert all(s.rep_index >= 1 and s.n_m == 1 for s in series.samples)
    assert not list(tmp_path.glob(".bench-olap-*")), "throwaway warehouses removed"


def test_etl_bench_requires_matching_plan(store, tmp_path):  # noqa: F811
    with pytest.raises(ValidationError):
        run_etl_bench(store, BenchPlan("olap", (100,), reps=3))
    with pytest.raises(ValidationError):
        run_olap_bench(tmp_path, BenchPlan("etl", (100,), reps=3))
