"""The generated row loops: the cube build's scan against a row-by-row
oracle, and what generated source may hold."""

import ast
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import eduwarehouse.cube as cube_module
from eduwarehouse.cube import CubeEngine
from eduwarehouse.errors import StorageError
from eduwarehouse.etl import EtlPipeline, SplitConfig
from eduwarehouse.olap import QueryEngine, TenantContext
from eduwarehouse.schema import INTEGER, TenantKey, builtin_schema, upload_rules

from conftest import DIM_UPLOADS, PERF_HEADER, U1, U2, ingest_text
from test_cube import (
    AUT, MESSY_SPECS, SPR, _commit_rows, _counts, _cube_bytes, _ingest_messy_dimensions,
    _perf,
)


def _pick(fields, col, names):
    """itemgetter's value: a bare field for one column, a tuple otherwise."""
    values = tuple(fields[col(name)] for name in names)
    return values[0] if len(values) == 1 else values


def _oracle(store, spec):
    """The cube file, counts and proof of a build of ``spec``, row by row.

    Rows are taken newest segment first, in file order; the first row of
    each natural key is kept and later ones are dropped, even when the
    kept row's measure fails to parse.  Every kept, parsed and resolved
    row is added to its group under every mask, so a group's place is
    its first such row's.  The measures are sums of quarters, exact in
    any order.  The proof files each key under its bucket, the raw
    columns (mandatory keys, plain attributes, join references) that
    belong to the natural key, tenant first; its dedupe key is the rest
    of the natural key.  It keeps the keys of a tenant of a segment that
    held a superseded row.
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
    raw = [*spec.mandatory_keys, *(a for a in spec.cube_attrs if a not in joins),
           *(joins[a].reference for a in spec.cube_attrs if a in joins)]
    bucket_cols = ["university_key",
                   *(c for c in raw if c in fact.natural_key and c != "university_key")]
    dedupe_cols = [c for c in fact.natural_key if c not in raw]
    parses = [(col(a.source), int if fact.attribute(a.source).value_class == INTEGER
               else float) for a in spec.aggregates]
    seen: dict = {}
    tenants: dict = {}
    reuploaded: set = set()
    groups: dict = {}
    scanned = excluded = 0
    for seg in reversed(store.segments(spec.fact)):
        rows = [line.split(",") for line in seg.path.read_text("utf-8").split("\n")[:-1]]
        identity = (seg.batch_id, seg.path.stat().st_ctime_ns)
        tenants[identity] = frozenset(fields[col("university_key")] for fields in rows)
        for fields in rows:
            keys = seen.setdefault(_pick(fields, col, bucket_cols), set())
            key = _pick(fields, col, dedupe_cols) if dedupe_cols else ()
            if key in keys:
                reuploaded |= tenants[identity]
                continue
            keys.add(key)
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
                cells = tuple(v if mask >> j & 1 else "" for j, v in enumerate(attrs))
                acc = groups.setdefault((mask, *mandatory, *cells), [0] * (1 + len(values)))
                acc[0] += 1
                for a, value in enumerate(values, 1):
                    acc[a] += value
    tenant_at = 1 + spec.mandatory_keys.index("university_key")
    lines = [",".join((str(key[0]), *key[1:], *map(repr, acc[1:]), str(acc[0])))
             for tenant in sorted({key[tenant_at] for key in groups})
             for key, acc in sorted(groups.items(), key=lambda item: item[0][0])
             if key[tenant_at] == tenant]
    keys = {}
    for bucket, had in seen.items():
        tenant = bucket if isinstance(bucket, str) else bucket[0]
        if tenant in reuploaded:
            keys.setdefault(tenant, {})[bucket] = had
    return "".join(line + "\n" for line in lines).encode(), scanned, excluded, tenants, keys


def _superseded(store, table, seg):
    """Whether every natural key of ``seg`` is in a newer segment of ``table``."""
    fact = store.schema.tables[table]
    key_of = [fact.storage_index(c) for c in fact.natural_key]

    def keys(s):
        return {tuple(f.split(",")[i] for i in key_of)
                for f in s.path.read_text("utf-8").split("\n")[:-1]}

    newer = set().union(*(keys(s) for s in store.segments(table) if s.batch_id > seg.batch_id))
    return keys(seg) <= newer


_TENANT = st.sampled_from([U1, U2])
_PERF_ROW = st.tuples(
    _TENANT, st.sampled_from(["s1", "s2", "s3"]), st.sampled_from(["CS101", "NOPE9"]),
    st.sampled_from([SPR, AUT]), st.sampled_from(["FT", "PT"]),
    st.sampled_from(["80", "82.5", "7.25", "2.5e1", "x"]), st.sampled_from(["90", "60.5"]),
    st.sampled_from(["A", "B", ""]),
)
_COUNTS_ROW = st.tuples(
    _TENANT, st.sampled_from(["DEP01", "DEP99"]), st.sampled_from(["PRG01"]),
    st.sampled_from([SPR, AUT]), st.sampled_from(["100", "7", "1_0", "y"]),
)
# a segment: its rows, all of one tenant or (None) as drawn, several tenants
_SEGMENT = st.one_of(
    st.tuples(st.just("StudentPerformance"), st.one_of(st.none(), _TENANT),
              st.lists(_PERF_ROW, min_size=1, max_size=8)),
    st.tuples(st.just("StudentCounts"), st.one_of(st.none(), _TENANT),
              st.lists(_COUNTS_ROW, min_size=1, max_size=6)),
)
_ROUND = st.fixed_dictionaries({
    "segments": st.lists(_SEGMENT, min_size=1, max_size=3),
    # drop an older fact segment: any one but the newest, so no id is reused
    "drop": st.one_of(st.none(), st.integers(0, 20)),
    "torn": st.one_of(st.none(), st.tuples(
        st.sampled_from(["StudentPerformance", "StudentCounts"]),
        st.sampled_from(["first", "middle", "last"]))),
})


def _stored(table, tenant, row):
    if table == "StudentPerformance":
        return _perf(tenant or row[0], *row[1:])
    return _counts(tenant or row[0], *row[1:])


def _assert_build_matches_oracle(store, engine, spec):
    reads = []
    with pytest.MonkeyPatch.context() as patch:
        real = cube_module.segment_lines
        patch.setattr(cube_module, "segment_lines", lambda seg: reads.append(seg.batch_id)
                      or real(seg))
        summary = engine.build(spec)
    cube, scanned, excluded, tenants, keys = _oracle(store, spec)
    assert _cube_bytes(store, spec) == cube
    listing = store.segments(spec.fact)
    assert summary.fact_batches == tuple(tenants)[::-1]
    assert (summary.rows_scanned, summary.rows_excluded) == (scanned, excluded)
    assert summary.cube_rows == cube.count(b"\n")
    assert (summary.segments_read, summary.segments_skipped, summary.units) == (
        len(reads), len(listing) - len(reads), 1)
    for seg in listing:
        if seg.batch_id not in reads:  # a skip is sound
            assert _superseded(store, spec.fact, seg)
    proof = engine._proofs[spec]
    assert (proof.tenants, proof.keys) == (tenants, keys)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(rounds=st.lists(_ROUND, min_size=1, max_size=3))
def test_build_matches_a_row_by_row_oracle_on_messy_segments(rounds):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store = cube_module.SegmentStore(tmp_path / "wh", builtin_schema())
        pipeline = EtlPipeline(store, SplitConfig(1, 1 << 28, 1 << 20), 1)
        _ingest_messy_dimensions(pipeline, tmp_path)
        engines = {spec.name: CubeEngine(store) for spec in MESSY_SPECS}
        for step in rounds:
            for table, tenant, rows in step["segments"]:
                _commit_rows(store, table, [_stored(table, tenant, r) for r in rows])
            older = [s for table in ("StudentPerformance", "StudentCounts")
                     for s in store.segments(table)[:-1]]
            if step["drop"] is not None and older:
                seg = older[step["drop"] % len(older)]
                store.drop_batch(seg.table, seg.batch_id)
            if step["torn"] is not None:
                _assert_torn_segment_fails(store, engines, *step["torn"])
            for spec in MESSY_SPECS:
                _assert_build_matches_oracle(store, engines[spec.name], spec)


def _assert_torn_segment_fails(store, engines, table, where):
    """A torn row fails every build over ``table`` and leaves its engine as it was."""
    if table == "StudentPerformance":
        rows = [_perf(U1, f"s{i}", "CS101", SPR, "FT", "80") for i in range(4)]
    else:
        rows = [_counts(U1, f"DEP0{i}", "PRG01", SPR, "100") for i in range(4)]
    at = {"first": 0, "middle": 2, "last": 3}[where]
    rows[at] = rows[at].rsplit(",", 1)[0]
    batch = _commit_rows(store, table, rows)
    width = len(store.schema.tables[table].storage_columns)
    for spec in MESSY_SPECS:
        if spec.fact != table:
            continue
        engine = engines[spec.name]
        before = engine._proofs.get(spec)
        with pytest.raises(StorageError,
                           match=f"line {at + 1}: expected {width} fields, found {width - 1}"):
            engine.build(spec)
        assert engine._proofs.get(spec) is before
    store.drop_batch(table, batch)


# ---- what generated source holds ----

# every name a generated loop may use: its own locals and parameters, the
# values bound into it, and builtins
_FIXED_NAMES = {
    "add_tenant", "append", "arity_fault", "bucket", "bucket_of", "buckets", "context", "cr",
    "dedupe_of", "entry", "excluded", "f", "faults", "float", "get", "groups", "in_segment",
    "int", "kept", "key", "key_sep", "len", "line", "line_no", "lines", "n", "out", "prefix",
    "raw", "raw_of", "reasons", "reserved", "seen", "seg", "sep", "set", "tenant",
    "torn_row", "ValueError",
}


def _assert_integers_and_fixed_names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) is int, (ast.unparse(node), source)
        elif isinstance(node, ast.Name):
            name = node.id
            assert (name in _FIXED_NAMES or name.rstrip("0123456789") in ("m", "parse")
                    ), (name, source)
        elif isinstance(node, ast.FunctionDef):
            assert node.name in ("empty_key", "rows", "scan", "shape"), source
        elif isinstance(node, ast.arg):
            assert node.arg in _FIXED_NAMES, source


def test_generated_source_names_no_tenant_table_column_or_file(tmp_path, monkeypatch):
    tenant = TenantKey('U%s{0}"\\')
    store = cube_module.SegmentStore(tmp_path / "wh", builtin_schema())
    pipeline = EtlPipeline(store, SplitConfig(1, 1 << 28, 1 << 20), 1)
    sources = []
    real = cube_module.compile_kernel

    def recording(source, name, bindings):
        sources.append(source)
        return real(source, name, bindings)

    monkeypatch.setattr(cube_module, "compile_kernel", recording)
    for table, text in DIM_UPLOADS.items():
        ingest_text(pipeline, tmp_path, table, text, tenant)
    ingest_text(pipeline, tmp_path, "Programs", "program_code,program_name\nPRG01,CS\n", tenant)
    ingest_text(pipeline, tmp_path, "StudentPerformance",
                PERF_HEADER + "\ns1,CS101,2016-17-SPR,FT,80,90,A\r\n", tenant)
    ingest_text(pipeline, tmp_path, "StudentCounts",
                "department_code,program_code,time_code,head_count\n"
                "DEP01,PRG01,2016-17-AUT,12\n", tenant)
    for spec in MESSY_SPECS:
        CubeEngine(store).build(spec)
    [row] = QueryEngine(store).query_cube(TenantContext(tenant, "t"), "student_performance",
                                          {0})
    assert (row.support_count, row.sums) == (1, (80.0, 90.0))
    assert len(sources) == len(MESSY_SPECS)
    schema = store.schema
    sources += [rule.__source__ for table in schema.tables.values()
                for rule in upload_rules(table)]
    words = {tenant.value, *schema.tables, str(tmp_path)}
    for table in schema.tables.values():
        words |= {*table.storage_columns, *table.upload_columns}
    for source in sources:
        _assert_integers_and_fixed_names(source)
        for word in words:
            assert word not in source, (word, source)
    for text in ("U%s", "{0}", '"', "\\"):
        assert all(text not in source for source in sources)
