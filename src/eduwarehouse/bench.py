"""Scalability benchmark harness.

Two experiments at desk scale: repeated ETL runs over doubling input sizes
under Case 1 (two splits regardless of size) and Case 2 (constant split
size, worker count proportional to input), and repeated OLAP report queries
over cubes of growing row counts with scan workers proportional to cube
size.

Per size, the first run is a discarded warm-up; the remaining timings go
through two-stage outlier removal (keep values inside [Q1, Q3], then keep
survivors inside mean +/- 1.5 sigma) before the mean is reported.  The
cyclic collector is paused during repetitions and collections run between
them, keeping GC scheduling noise out of the timed spans.  Series are
written as CSV with header x,y,z; absolute times are machine-dependent, so
the tested contract is curve shape, never magnitude.
"""

from __future__ import annotations

import fcntl
import gc
import logging
import math
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import BenchError, ValidationError
from .etl import CASE1, CASE2, MODES, EtlPipeline, SplitConfig
from .schema import TenantKey, builtin_schema
from .store import SegmentStore
from .cube import CubeEngine, builtin_cube_specs
from .olap import QueryEngine, TenantContext, report_catalog
from .config import MIB
from .datagen import DimensionUniverse, gen_dataset, gen_dataset_rows

logger = logging.getLogger(__name__)

ETL_EXPERIMENT = "etl"
OLAP_EXPERIMENT = "olap"

_LOCK_NAME = ".bench.lock"

BENCH_TENANT = TenantKey("BenchU1")


@dataclass(frozen=True)
class BenchPlan:
    """One experiment: which sizes, how many repetitions, which seed."""

    experiment: str
    sizes: tuple[int, ...]
    reps: int = 20
    mode: str | None = None  # etl only; None runs both cases
    seed: int = 7

    def __post_init__(self) -> None:
        if self.experiment not in (ETL_EXPERIMENT, OLAP_EXPERIMENT):
            raise ValidationError(f"unknown experiment {self.experiment!r}")
        if self.reps < 3:
            raise ValidationError("reps must be >= 3")
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValidationError("sizes must be nonempty and strictly increasing")
        if self.mode is not None:
            if self.experiment != ETL_EXPERIMENT:
                raise ValidationError("mode applies to the etl experiment only")
            if self.mode not in MODES:
                raise ValidationError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TimingSample:
    size: int
    effective: float  # seconds
    cumulative: float  # seconds
    rep_index: int
    n_m: int = 1
    mode: str = ""


@dataclass(frozen=True)
class BenchSeries:
    """Rows of (x, y, z); y/z are post-outlier-removal means in ms.

    For etl, y is the Case 1 mean and z the Case 2 mean; a single-mode run
    leaves the other column empty.  For olap, y is the cumulative mean and
    z the effective mean.
    """

    experiment: str
    rows: tuple[tuple[int, float | None, float | None], ...]
    samples: tuple[TimingSample, ...] = ()
    notes: tuple[str, ...] = ()

    def to_csv(self) -> str:
        lines = ["x,y,z"]
        for x, y, z in self.rows:
            cells = [str(x)]
            cells.append("" if y is None else f"{y:.2f}")
            cells.append("" if z is None else f"{z:.2f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Q1 and Q3 by linear interpolation over the sorted sample."""
    ordered = sorted(values)
    n = len(ordered)

    def at(q: float) -> float:
        pos = (n - 1) * q
        lo = math.floor(pos)
        frac = pos - lo
        if lo + 1 >= n:
            return ordered[lo]
        return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])

    return at(0.25), at(0.75)


def remove_outliers(samples: list[float]) -> list[float]:
    """Two-stage outlier removal, order-preserving.

    Stage 1 keeps values inside [Q1, Q3]; stage 2, computed on the stage-1
    survivors, keeps values inside mean +/- 1.5 population standard
    deviations.  An empty stage-2 result falls back to the stage-1 survivors.
    """
    if len(samples) < 4:
        raise ValidationError("outlier removal needs at least 4 samples")
    q1, q3 = _quartiles(list(samples))
    stage1 = [v for v in samples if q1 <= v <= q3]
    mu = sum(stage1) / len(stage1)
    sigma = math.sqrt(sum((v - mu) ** 2 for v in stage1) / len(stage1))
    stage2 = [v for v in stage1 if mu - 1.5 * sigma <= v <= mu + 1.5 * sigma]
    if not stage2:
        logger.warning("stage-2 outlier removal emptied the sample; keeping stage-1 survivors")
        return stage1
    return stage2


def _mean_ms(seconds: list[float]) -> float:
    """Outlier-removed mean, in milliseconds.  Fewer than 4 samples skip
    removal (degenerate small-reps path, logged)."""
    if len(seconds) >= 4:
        survivors = remove_outliers(seconds)
    else:
        logger.info("only %d samples; skipping outlier removal", len(seconds))
        survivors = seconds
    return 1000.0 * sum(survivors) / len(survivors)


@contextmanager
def bench_lock(root: Path):
    """Exclusive advisory lock: one bench at a time per warehouse root."""
    root.mkdir(parents=True, exist_ok=True)
    handle = open(root / _LOCK_NAME, "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise BenchError(f"another benchmark is running against {root}") from None
    try:
        yield
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


@contextmanager
def _quiet_gc():
    """Pause the cyclic collector so its pauses cannot land in a timed span.

    Refcounting still reclaims the bulk of each repetition's garbage;
    explicit collects between repetitions pick up any cycles.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def etl_bench_split_config() -> SplitConfig:
    """Case 2 split sizing: s_min = s_max = 1 MiB pins the split size."""
    return SplitConfig(MIB, MIB, MIB)


def run_etl_bench(
    store: SegmentStore,
    plan: BenchPlan,
    split_cfg: SplitConfig | None = None,
    worker_pool_size: int | None = None,
    table: str = "StudentPerformance",
    tenant: TenantKey = BENCH_TENANT,
    universe: DimensionUniverse | None = None,
) -> BenchSeries:
    """Timed ETL runs over doubling input sizes.

    Each dataset is generated once up front; repetitions then visit every
    (size, mode) cell round-robin, so a slow stretch of the machine lands
    on all cells alike instead of skewing whichever size it hit.  Every
    repetition ingests the dataset and drops the committed batch so the
    table finishes unchanged.  Any rejected batch aborts the bench, since
    generated datasets are valid by construction.
    """
    if plan.experiment != ETL_EXPERIMENT:
        raise ValidationError("plan is not an etl experiment")
    split_cfg = split_cfg or etl_bench_split_config()
    pipeline = EtlPipeline(store, split_cfg, worker_pool_size)
    modes = (plan.mode,) if plan.mode else (CASE1, CASE2)
    notes: list[str] = []
    samples: list[TimingSample] = []
    with bench_lock(store.root):
        data_dir = store.root / ".bench"
        data_dir.mkdir(exist_ok=True)
        try:
            datasets = {
                size: gen_dataset(
                    data_dir / f"etl_{size}.csv", size, table, tenant, plan.seed, universe
                )
                for size in plan.sizes
            }
            cells = [(size, mode) for size in plan.sizes for mode in modes]
            effectives = {cell: [] for cell in cells}
            with _quiet_gc():
                for rep in range(plan.reps + 1):
                    for size, mode in cells:
                        result = pipeline.run(datasets[size], table, tenant, mode)
                        if not result.committed:
                            raise BenchError(
                                f"generated dataset rejected at size {size}: "
                                f"{result.report.entries[0].reason}"
                            )
                        store.drop_batch(table, result.segment.batch_id)
                        gc.collect()
                        if rep == 0:
                            continue  # warm-up, discarded
                        effectives[size, mode].append(result.effective_time)
                        samples.append(
                            TimingSample(size, result.effective_time,
                                         result.cumulative_time, rep, result.n_m, mode)
                        )
                        if mode == CASE2 and result.n_m > pipeline.worker_pool_size:
                            note = (
                                f"size {size}: n_m={result.n_m} exceeds worker pool "
                                f"{pipeline.worker_pool_size} (constant-time claim "
                                f"assumes sufficient workers)"
                            )
                            if note not in notes:
                                notes.append(note)
            rows = []
            for size in plan.sizes:
                means = {mode: _mean_ms(effectives[size, mode]) for mode in modes}
                for mode in modes:
                    logger.info("etl bench size=%d mode=%s mean=%.2fms",
                                size, mode, means[mode])
                rows.append((size, means.get(CASE1), means.get(CASE2)))
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    return BenchSeries(ETL_EXPERIMENT, tuple(rows), tuple(samples), tuple(notes))


def _olap_universe(target_rows: int) -> DimensionUniverse:
    # pool of distinct (course, time, regtype) combos about 3x the target,
    # so sampled facts keep producing new cube groups across the size range
    n_regtypes = 10
    n_years = 10
    n_times = n_years * len(("SPR", "AUT", "SUM"))
    n_courses = max(10, -(-3 * target_rows // (n_times * n_regtypes)))
    return DimensionUniverse.scaled(
        n_courses=n_courses, n_years=n_years, n_regtypes=n_regtypes,
        n_students=50_000,
    )


def run_olap_bench(
    workspace: Path | str,
    plan: BenchPlan,
    rows_per_worker: int = 100_000,
    tenant: TenantKey = BENCH_TENANT,
) -> BenchSeries:
    """Timed report queries over cubes of growing row counts.

    Every target row count gets a throwaway warehouse populated with enough
    facts to materialize a cube of roughly that size.  All cubes build
    first; the shipped avg_marks_by_regtype query then visits the targets
    round-robin for ``reps`` passes with scan workers proportional to the
    actual cube row count, so machine speed drift spreads over every target
    alike.  Series x values are the actual cube row counts.
    """
    if plan.experiment != OLAP_EXPERIMENT:
        raise ValidationError("plan is not an olap experiment")
    workspace = Path(workspace)
    schema = builtin_schema()
    spec = builtin_cube_specs()["student_performance"]
    report = report_catalog()["avg_marks_by_regtype"]
    samples: list[TimingSample] = []
    rows = []
    notes: list[str] = []
    with bench_lock(workspace):
        subs = {t: workspace / f".bench-olap-{t}" for t in plan.sizes}
        try:
            prepared = []
            for target in plan.sizes:
                sub = subs[target]
                shutil.rmtree(sub, ignore_errors=True)
                store = SegmentStore(sub, schema)
                universe = _olap_universe(target)
                pipeline = EtlPipeline(store, etl_bench_split_config(), 1)
                for dim in ("Courses", "Departments", "Times", "Regtypes"):
                    upload = sub / f"dim_{dim}.csv"
                    upload.write_text(universe.dimension_upload(dim, schema), encoding="utf-8")
                    result = pipeline.run(upload, dim, tenant)
                    if not result.committed:
                        raise BenchError(f"dimension upload rejected: {dim}")
                fact_file = gen_dataset_rows(
                    sub / "facts.csv", target, spec.fact, tenant, plan.seed, universe
                )
                result = pipeline.run(fact_file, spec.fact, tenant)
                if not result.committed:
                    raise BenchError(f"fact upload rejected at target {target}")
                summary = CubeEngine(store).build(spec)
                workers = max(1, -(-summary.cube_rows // rows_per_worker))
                prepared.append((target, QueryEngine(store), workers,
                                 universe.times[0][0], summary.cube_rows))

            ctx = TenantContext(tenant, "bench")
            effectives = {t: [] for t in plan.sizes}
            cumulatives = {t: [] for t in plan.sizes}
            with _quiet_gc():
                for rep in range(plan.reps + 1):
                    for target, engine, workers, time_code, cube_rows in prepared:
                        _, timing = engine.query_cube_timed(
                            ctx, report.cube, report.masks,
                            [("time_code", time_code)], scan_workers=workers,
                        )
                        gc.collect()
                        if rep == 0:
                            continue  # warm-up, discarded
                        effectives[target].append(timing.effective)
                        cumulatives[target].append(timing.cumulative)
                        samples.append(
                            TimingSample(cube_rows, timing.effective,
                                         timing.cumulative, rep, workers)
                        )

            for target, engine, workers, time_code, cube_rows in prepared:
                rows.append((cube_rows, _mean_ms(cumulatives[target]),
                             _mean_ms(effectives[target])))
                logger.info(
                    "olap bench target=%d cube_rows=%d workers=%d cum=%.2fms eff=%.2fms",
                    target, cube_rows, workers, rows[-1][1], rows[-1][2],
                )
        finally:
            for sub in subs.values():
                shutil.rmtree(sub, ignore_errors=True)
    return BenchSeries(OLAP_EXPERIMENT, tuple(rows), tuple(samples), tuple(notes))


def emit_gnuplot(series: BenchSeries, data_path: str, output_path: str) -> str:
    """gnuplot script plotting the two series columns of a bench CSV."""
    if series.experiment == ETL_EXPERIMENT:
        title = "ETL time vs input size"
        xlabel, y_title, z_title = "input size (bytes)", "case 1", "case 2"
    else:
        title = "OLAP query time vs cube rows"
        xlabel, y_title, z_title = "cube rows", "cumulative", "effective"
    return (
        "set datafile separator \",\"\n"
        "set terminal png size 900,600\n"
        f"set output \"{output_path}\"\n"
        f"set title \"{title}\"\n"
        f"set xlabel \"{xlabel}\"\n"
        "set ylabel \"time (ms)\"\n"
        "set key left top\n"
        f"plot \"{data_path}\" every ::1 using 1:2 with linespoints title \"{y_title}\", \\\n"
        f"     \"{data_path}\" every ::1 using 1:3 with linespoints title \"{z_title}\"\n"
    )
