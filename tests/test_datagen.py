"""Synthetic upload generator: determinism, sizing, and validity."""

import pytest

from eduwarehouse.datagen import DimensionUniverse, gen_dataset, gen_dataset_rows
from eduwarehouse.errors import ValidationError
from eduwarehouse.etl import CASE2, EtlPipeline, SplitConfig
from eduwarehouse.schema import builtin_schema

from conftest import U1, U2, ingest_text, store, pipeline  # noqa: F401


def test_same_arguments_same_bytes(tmp_path):
    a = gen_dataset(tmp_path / "a.csv", 64 * 1024, "StudentPerformance", U1, seed=9)
    b = gen_dataset(tmp_path / "b.csv", 64 * 1024, "StudentPerformance", U1, seed=9)
    assert a.read_bytes() == b.read_bytes()


def test_seed_and_tenant_change_the_stream(tmp_path):
    base = gen_dataset(tmp_path / "a.csv", 8 * 1024, "StudentPerformance", U1, seed=1)
    other_seed = gen_dataset(tmp_path / "b.csv", 8 * 1024, "StudentPerformance", U1, seed=2)
    other_tenant = gen_dataset(tmp_path / "c.csv", 8 * 1024, "StudentPerformance", U2, seed=1)
    assert base.read_bytes() != other_seed.read_bytes()
    assert base.read_bytes() != other_tenant.read_bytes()


@pytest.mark.parametrize("size", [2 * 1024, 64 * 1024, 1024 * 1024])
def test_size_lands_within_one_row(tmp_path, size):
    path = gen_dataset(tmp_path / "d.csv", size, "StudentPerformance", U1, seed=3)
    actual = path.stat().st_size
    max_row = max(len(line) + 1 for line in path.read_text().splitlines())
    assert size - max_row <= actual <= size
    assert path.read_bytes().endswith(b"\n")


def test_row_count_variant_exact(tmp_path):
    path = gen_dataset_rows(tmp_path / "r.csv", 257, "StudentPerformance", U1, seed=4)
    lines = path.read_text().splitlines()
    assert len(lines) == 258  # header + rows
    assert lines[0] == builtin_schema().tables["StudentPerformance"].upload_header


def test_generated_facts_pass_etl_clean(tmp_path, store, pipeline):  # noqa: F811
    universe = DimensionUniverse.default()
    for table in ("Courses", "Departments", "Times", "Regtypes"):
        ingest_text(pipeline, tmp_path, table, universe.dimension_upload(table))
    path = gen_dataset(tmp_path / "facts.csv", 32 * 1024, "StudentPerformance", U1, seed=5)
    result = EtlPipeline(store, SplitConfig(1, 256 * 1024 * 1024, 1024 * 1024)).run(
        path, "StudentPerformance", U1, CASE2
    )
    assert result.committed and result.report is None
    assert result.rows_out == result.rows_in > 0


def test_dimension_upload_headers_match_schema():
    universe = DimensionUniverse.default()
    schema = builtin_schema()
    for table in ("Courses", "Departments", "Programs", "Times", "Regtypes"):
        text = universe.dimension_upload(table)
        assert text.splitlines()[0] == schema.tables[table].upload_header
        assert text.endswith("\n")


def test_universities_not_uploadable():
    with pytest.raises(ValidationError):
        DimensionUniverse.default().dimension_upload("Universities")


def test_scaled_universe_shapes():
    u = DimensionUniverse.scaled(n_courses=7, n_years=2, n_regtypes=3)
    assert len(u.courses) == 7
    assert len(u.times) == 6  # three terms per year
    assert len(u.regtypes) == 3
    years = {year for _, year, _ in u.times}
    assert len(years) == 2
    with pytest.raises(ValidationError):
        DimensionUniverse.scaled(n_courses=0, n_years=1, n_regtypes=1)


def test_unknown_fact_table_rejected(tmp_path):
    with pytest.raises(ValidationError):
        gen_dataset(tmp_path / "x.csv", 1024, "Universities", U1, seed=1)
