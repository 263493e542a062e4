"""OLAP cube materialization with grouping_id bitmask semantics.

A cube precomputes, for every subset of its k grouping attributes, the
grouped averages of its measures.  Each cube row carries a grouping_id
bitmask telling which attributes are present (bit 1) versus rolled up
(bit 0); the most significant of the k bits corresponds to the last-listed
attribute.  Mandatory keys are grouped in every row and never rolled up; the
tenant key university_key is always one of them, so every cube row belongs
to exactly one tenant.

A cube row stores each fact once: the grouping_id says which attributes
are present, each aggregate keeps only its sum, and support_count is the
count of every aggregate, since a fact row that fails to parse any measure
is excluded whole.  Means are sum / support, derived on read.  A build
reads each fact segment whole, newest batch first, applies the store's
keep-latest rule itself, and groups each kept row once by its raw fact
columns (mandatory keys, plain attributes and join reference columns).  It
resolves the dimension joins once per raw group, merges raw groups into
the finest grouping, and rolls every coarser grouping up from those groups
by adding accumulators.  Every shipped join is 1:1 except student_counts'
Times -> year, whose measure is an INTEGER, so the result is
byte-identical to summing row by row.  An engine remembers what its last
build of a cube proves about the fact segments it listed, so the next
build skips a segment whose every key newer segments have superseded.
Built cubes are immutable and a rebuild replaces the previous version
atomically.

A cube segment holds its rows grouped by tenant, in ascending university_key
order (Python ``str`` order, which is UTF-8 byte order), so ``tenant_range``
finds one tenant's rows as a single byte range by binary search over line
starts.  The file carries no index: every line is one cube row.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import StorageError, ValidationError
from .schema import INTEGER, TEXT, TableDef
from .store import Segment, SegmentStore, segment_lines, torn_row

logger = logging.getLogger(__name__)

MAX_CUBE_ATTRS = 62

AVG = "avg"


def grouping_id(cube_attrs, present) -> int:
    """Bitmask for one roll-up pattern.

    ``present[i]`` says whether the i-th listed attribute is grouped (True)
    or rolled up (False).  The bit for the j-th attribute (1-based listing
    order) has value 2^(j-1), so the most significant of the k bits belongs
    to the last-listed attribute.
    """
    attrs = tuple(cube_attrs)
    flags = tuple(bool(p) for p in present)
    if not attrs or len(attrs) != len(flags):
        raise ValidationError("present flags must match cube_attrs one to one")
    mask = 0
    for j, flag in enumerate(flags):
        if flag:
            mask |= 1 << j
    return mask


def presence_from_id(mask: int, k: int) -> tuple[bool, ...]:
    """Inverse of grouping_id: per-attribute presence flags in listing order."""
    if k < 1 or not 0 <= mask < (1 << k):
        raise ValidationError(f"mask {mask} out of range for k={k}")
    return tuple(bool(mask >> j & 1) for j in range(k))


@dataclass(frozen=True)
class DimensionJoin:
    """Source a cube attribute from a dimension reached via a fact reference.

    ``reference`` is the fact's qualified reference attribute (e.g. time_key),
    ``attribute`` the dimension column that becomes the cube attribute value.
    """

    reference: str
    dimension: str
    attribute: str


@dataclass(frozen=True)
class AggregateSpec:
    name: str
    source: str
    function: str = AVG

    def __post_init__(self) -> None:
        if self.function != AVG:
            raise ValidationError(f"unsupported aggregate function {self.function!r}")


@dataclass(frozen=True)
class CubeSpec:
    """Definition of one materialized cube over a fact table.

    ``mandatory_keys`` must include university_key: queries scope every
    cube row to the session tenant by that column.
    """

    name: str
    fact: str
    mandatory_keys: tuple[str, ...]
    cube_attrs: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    dimension_joins: tuple[DimensionJoin, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "," in self.name or "/" in self.name:
            raise ValidationError(f"bad cube name {self.name!r}")
        if not self.cube_attrs:
            raise ValidationError("cube_attrs must be nonempty")
        if len(self.cube_attrs) > MAX_CUBE_ATTRS:
            raise ValidationError(f"at most {MAX_CUBE_ATTRS} cube attributes")
        if set(self.mandatory_keys) & set(self.cube_attrs):
            raise ValidationError("mandatory_keys and cube_attrs must be disjoint")
        if len(set(self.cube_attrs)) != len(self.cube_attrs):
            raise ValidationError("duplicate cube attribute")
        if "university_key" not in self.mandatory_keys:
            raise ValidationError("mandatory_keys must include university_key")

    @property
    def k(self) -> int:
        return len(self.cube_attrs)

    @property
    def table_name(self) -> str:
        return f"cube_{self.name}"


@dataclass(frozen=True)
class CubeRow:
    """One materialized group: attrs[i] is None iff rolled up (bit i = 0).

    ``counts`` and ``means`` are derived when read: every aggregate's count
    is the support, and its mean is sum / support.
    """

    grouping_id: int
    mandatory: tuple[str, ...]
    attrs: tuple[str | None, ...]
    sums: tuple[float, ...]
    support_count: int

    @property
    def counts(self) -> tuple[int, ...]:
        return (self.support_count,) * len(self.sums)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(total / self.support_count for total in self.sums)


def cube_columns(spec: CubeSpec) -> tuple[str, ...]:
    """Storage layout of cube_<name> segments, the one place it is defined.

    grouping_id (decimal text), the mandatory keys, one cell per cube
    attribute (empty when the mask rolls it up), ``<agg>_sum`` per
    aggregate, then support_count.
    """
    return (
        "grouping_id", *spec.mandatory_keys, *spec.cube_attrs,
        *(f"{agg.name}_sum" for agg in spec.aggregates), "support_count",
    )


def parse_cube_row(spec: CubeSpec, fields: list[str]) -> CubeRow:
    """Decode one stored cube segment row; presence comes from the grouping_id bits."""
    mask = int(fields[0])
    attrs_at = 1 + len(spec.mandatory_keys)
    sums_at = attrs_at + spec.k
    attrs = tuple(v if mask >> j & 1 else None for j, v in enumerate(fields[attrs_at:sums_at]))
    sums = tuple(float(total) for total in fields[sums_at:-1])
    return CubeRow(mask, tuple(fields[1:attrs_at]), attrs, sums, int(fields[-1]))


def tenant_range(fh, spec: CubeSpec, tenant: str) -> tuple[int, int]:
    """The ``[start, end)`` byte range of ``tenant``'s rows in a cube segment.

    ``fh`` is the segment open in binary mode.  CubeEngine writes the rows
    sorted by university_key in ``str`` order, which is the UTF-8 byte order
    compared here; each bound is found by binary search over line starts.
    """
    col = cube_columns(spec).index("university_key")
    key = tenant.encode("utf-8")
    size = fh.seek(0, 2)

    def first_line(lo: int, past: bool) -> int:
        # first line start whose tenant is >= key (> key when past)
        hi = size  # lo and hi are line starts; the answer lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            start = lo
            if mid > lo:
                fh.seek(mid - 1)
                fh.readline()  # skip to the first line start >= mid
                start = fh.tell()
                if start >= hi:
                    start = lo
            fh.seek(start)
            line = fh.readline()
            found = line.split(b",", col + 1)[col]
            if found < key or (past and found == key):
                lo = start + len(line)
            else:
                hi = start
        return lo

    start = first_line(0, False)
    return start, first_line(start, True)


def merge_accumulators(a: list, b: list) -> list:
    """Combine two accumulator vectors [support, sum0, sum1, ...].

    Elementwise addition, hence associative and commutative; a coarser
    group is the merge of the finer groups it rolls up.  Neither input is
    mutated.
    """
    if len(a) != len(b):
        raise ValidationError("accumulator arity mismatch")
    return [x + y for x, y in zip(a, b)]


@dataclass(frozen=True)
class CubeBuildSummary:
    cube: str
    version: int
    rows_scanned: int
    rows_excluded: int
    cube_rows: int
    build_seconds: float
    # (batch_id, st_ctime_ns) of each fact segment in the build's listing
    fact_batches: tuple[tuple[int, int], ...]

    def to_report(self) -> str:
        lines = [
            f"cube: {self.cube}",
            f"version: {self.version}",
            f"rows_scanned: {self.rows_scanned}",
            f"rows_excluded: {self.rows_excluded}",
            f"cube_rows: {self.cube_rows}",
            f"build_seconds: {self.build_seconds:.3f}",
            f"fact_batches: {','.join(str(b) for b, _ in self.fact_batches) or '-'}",
        ]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _masked_indexes(k: int) -> tuple[tuple[int, ...], ...]:
    # for each mask, the listing positions of the present attributes
    return tuple(
        tuple(j for j in range(k) if mask >> j & 1) for mask in range(1 << k)
    )


@dataclass(frozen=True)
class _Proof:
    """What a committed build proves about the fact listing it read.

    ``tenants`` maps the identity (batch_id, st_ctime_ns) of each listed
    segment to the tenants whose rows it holds.  ``keys`` maps a tenant to
    its buckets, each with every dedupe key seen in it over the whole
    listing, but only for a tenant that build saw re-uploaded: one with a
    row a newer row superseded, or a segment it skipped.  A proof is never
    mutated once built.
    """

    tenants: dict
    keys: dict

    def superseded(self, identity: tuple[int, int], buckets: dict) -> bool:
        """Whether every key the segment's tenants had is already in ``buckets``."""
        for tenant in self.tenants[identity]:
            had_buckets = self.keys.get(tenant)
            if had_buckets is None:
                return False
            for bucket, had in had_buckets.items():
                seen = buckets.get(bucket)
                if seen is None or not had <= seen:
                    return False
        return True


class CubeEngine:
    """Builds cubes in one grouped pass over the fact segments and persists them.

    The pass applies ``SegmentStore.scan``'s keep-latest rule while it adds
    each kept row to its raw group; the raw groups resolve into the finest
    groups (every cube attribute present), and each of the 2^k groupings is
    rolled up from those.

    After a build commits, the engine keeps, per cube spec, what that build
    proves about its fact listing: each segment's identity and tenants, and
    every key of each tenant it saw re-uploaded.  The next build of the
    spec skips a segment of that listing whose tenants' keys are all seen
    in newer segments, so a corrected re-upload does not re-read the batch
    it replaces.  The state lives in memory only (a fresh engine reads
    everything), and a lock guards it because builds can overlap.
    """

    def __init__(self, store: SegmentStore):
        self.store = store
        self._proofs: dict[CubeSpec, _Proof] = {}
        self._lock = threading.Lock()

    def _attr_sources(self, spec: CubeSpec, fact: TableDef):
        """Resolve each cube attribute to a fact column or a declared join.

        Returns ``plain`` (fact column, slot) pairs and ``joined`` (fact
        reference column, slot, join map) triples.  Each joined dimension
        is listed once, and its join maps read that listing.
        """
        joins = {j.attribute: j for j in spec.dimension_joins}
        fact_cols = fact.storage_columns
        plain, joined, listings = [], [], {}
        for slot, attr in enumerate(spec.cube_attrs):
            if attr in joins:
                join = joins[attr]
                if join.dimension not in listings:
                    listings[join.dimension] = self.store.segments(join.dimension)
                mapping = self._join_map(join, fact, listings[join.dimension])
                joined.append((fact_cols.index(join.reference), slot, mapping))
            elif attr in fact_cols:
                plain.append((fact_cols.index(attr), slot))
            else:
                raise ValidationError(
                    f"cube attribute {attr!r} is neither a {spec.fact} column "
                    f"nor a declared dimension join"
                )
        return plain, joined

    def _join_map(
        self, join: DimensionJoin, fact: TableDef, segments: list[Segment]
    ) -> dict[str, str]:
        ref = fact.attribute(join.reference)
        if ref.referenced_table != join.dimension:
            raise ValidationError(
                f"{join.reference} references {ref.referenced_table}, not {join.dimension}"
            )
        dim = self.store.schema.tables.get(join.dimension)
        if dim is None:
            raise StorageError(f"dimension table {join.dimension!r} missing")
        key_idx = dim.storage_index(dim.natural_key[0])
        value_idx = dim.storage_index(join.attribute)
        return {
            row[key_idx]: row[value_idx] for row in self.store.scan(join.dimension, segments)
        }

    def build(self, spec: CubeSpec) -> CubeBuildSummary:
        """Materialize all 2^k groupings of spec's fact into cube_<name>.

        Fact rows whose qualified references do not resolve to a dimension
        row (or whose measures fail to parse, which ETL should have made
        impossible) are excluded and counted, never errored.  The fact table
        and each joined dimension are listed once; the build reads those
        listings and nothing committed later.  A failed build keeps no
        state, so the next one reads as this one would have.
        """
        t_start = time.perf_counter()
        fact = self.store.schema.tables.get(spec.fact)
        if fact is None:
            raise ValidationError(f"unknown fact table {spec.fact!r}")
        fact_cols = fact.storage_columns
        try:
            mand_idx = tuple(fact_cols.index(c) for c in spec.mandatory_keys)
        except ValueError as exc:
            raise ValidationError(f"mandatory key not on {spec.fact}: {exc}") from None
        plain, joined = self._attr_sources(spec, fact)
        measures = []
        for agg in spec.aggregates:
            attr = fact.attribute(agg.source)
            if attr.value_class == TEXT:
                raise ValidationError(f"aggregate source {agg.source!r} is not numeric")
            parse = int if attr.value_class == INTEGER else float
            measures.append((fact.storage_index(agg.source), parse))

        # the one fact listing: what the build reads is what its summary names
        fact_segments = self.store.segments(spec.fact)
        fact_batches = tuple((s.batch_id, s.path.stat().st_ctime_ns) for s in fact_segments)
        with self._lock:
            proof = self._proofs.get(spec)

        finest, rows_scanned, rows_excluded, proof = self._accumulate(
            spec, fact, fact_segments, fact_batches, proof, plain, joined, mand_idx, measures
        )
        groups: dict = {}
        for mask, present in enumerate(_masked_indexes(spec.k)):
            for (mandatory, attrs), acc in finest.items():
                key = (mask, mandatory, tuple(attrs[j] for j in present))
                mine = groups.get(key)
                groups[key] = acc if mine is None else merge_accumulators(mine, acc)

        segment = self._persist(spec, groups)
        with self._lock:
            self._proofs[spec] = proof
        build_seconds = time.perf_counter() - t_start
        summary = CubeBuildSummary(
            spec.name, segment.batch_id, rows_scanned, rows_excluded,
            len(groups), build_seconds, fact_batches,
        )
        logger.info(
            "built cube %s v%d: %d rows from %d facts (%d excluded) in %.2fs",
            spec.name, segment.batch_id, len(groups), rows_scanned, rows_excluded,
            build_seconds,
        )
        return summary

    def _accumulate(
        self, spec, fact, segments, identities, proof, plain, joined, mand_idx, measures
    ):
        """Aggregate the kept rows of ``segments`` at the finest grouping.

        One pass reads each segment whole, newest batch first, and splits
        each line once.  A row is deduped inside its bucket, the raw-key
        columns that belong to the natural key (university_key is always
        one); its dedupe key is the rest of the natural key.  So the rule is
        exactly ``SegmentStore.scan``'s: the newest batch wins, the first
        occurrence within a segment wins, and a key counts as seen even
        when its measures fail to parse.  A kept row is added to its raw
        group, keyed by the raw fact columns (mandatory keys, plain
        attributes and join reference columns).  For every shipped cube
        the bucket holds the same columns as the raw group; a plain
        attribute outside the natural key (a test spec's course_code or
        grade) only makes the raw group finer than the bucket.

        ``proof`` is the last committed build's, or None.  A listed segment
        of it is skipped when all keys its tenants had at that build are
        already seen in the newer segments this pass read first: it could
        keep no row.  So the kept rows, their order, the raw groups'
        first-kept order and every float sum are those of a full read.  A
        segment committed since has a new identity (a batch id reused after
        a drop comes with a new ctime), so it is always read.
        The new proof keeps the keys of a tenant only when this build saw
        it re-uploaded (a row of it superseded, or a segment of it
        skipped), so a warehouse of tenants that each uploaded once keeps
        none.

        Each join map is then consulted once per raw group, not once per
        row.  A raw group whose references do not resolve adds its support
        to the excluded count.  Raw groups that resolve to one finest group
        (a many-to-one join such as Times -> year) are merged group by
        group, so a float measure behind such a join is summed in the order
        the roll-up already uses.  Every shipped join is 1:1 except
        student_counts' Times -> year, whose measure is an INTEGER and sums
        exactly, so the cube is byte-identical to a row-by-row build.

        Returns {(mandatory, attrs): [support, sum0, sum1, ...]} with every
        cube attribute present, the scanned and excluded row counts, and
        this build's proof.  A row that fails to parse any measure is
        excluded whole, so the support is every aggregate's count.
        """
        cols = fact.storage_columns
        width = len(cols)
        n_mand, n_plain = len(mand_idx), len(plain)
        raw_idx = (*mand_idx, *(idx for idx, _ in plain), *(idx for idx, _, _ in joined))
        natural = [cols.index(c) for c in fact.natural_key]
        bucket_idx = tuple(i for i in raw_idx if i in natural)
        dedupe_idx = tuple(i for i in natural if i not in raw_idx)
        tenant_col = cols.index("university_key")
        # a proof files each bucket under one tenant, its first column
        if tenant_col not in bucket_idx:
            raise ValidationError(f"{spec.fact}'s natural key must include university_key")
        bucket_idx = (tenant_col, *(i for i in bucket_idx if i != tenant_col))
        # mandatory keys and cube attributes make at least two columns, so
        # the raw key is always a tuple
        raw_of = itemgetter(*raw_idx)
        bucket_of = itemgetter(*bucket_idx)
        # no dedupe columns: the bucket is the whole natural key
        dedupe_of = itemgetter(*dedupe_idx) if dedupe_idx else (lambda fields: ())

        buckets: dict = {}  # bucket key -> the dedupe keys seen in it
        raw: dict = {}  # raw key -> [support, sum0, sum1, ...], in first-kept order
        tenants: dict = {}  # segment identity -> its tenants
        reuploaded: set = set()  # tenants with a superseded row or a skipped segment
        rows_scanned = 0
        rows_excluded = 0
        zeros = [0] * (1 + len(measures))
        for seg, identity in zip(reversed(segments), reversed(identities)):
            if proof and identity in proof.tenants and proof.superseded(identity, buckets):
                tenants[identity] = proof.tenants[identity]
                reuploaded |= tenants[identity]
                continue
            in_segment = set()
            kept_before = rows_scanned
            lines = segment_lines(seg)
            for line in lines:
                fields = line.split(",")
                if len(fields) != width:
                    # an earlier equal line would have raised already
                    raise torn_row(seg, lines.index(line) + 1, width, len(fields))
                in_segment.add(fields[tenant_col])
                bucket = bucket_of(fields)
                seen = buckets.get(bucket)
                if seen is None:
                    seen = buckets[bucket] = set()
                key = dedupe_of(fields)
                if key in seen:
                    continue
                seen.add(key)
                rows_scanned += 1
                try:
                    values = [parse(fields[i]) for i, parse in measures]
                except ValueError:
                    rows_excluded += 1
                    continue
                raw_key = raw_of(fields)
                acc = raw.get(raw_key)
                if acc is None:
                    acc = raw[raw_key] = zeros.copy()
                acc[0] += 1
                for a, value in enumerate(values, 1):
                    acc[a] += value
            tenants[identity] = frozenset(in_segment)
            if rows_scanned - kept_before < len(lines):
                reuploaded |= tenants[identity]
            del lines  # one segment's lines alive at a time, not two
        keys: dict = {}
        for bucket, seen in buckets.items():
            tenant = bucket if len(bucket_idx) == 1 else bucket[0]
            if tenant in reuploaded:
                keys.setdefault(tenant, {})[bucket] = seen

        finest: dict = {}
        attr_slots: list = [None] * spec.k
        for key, acc in raw.items():
            for p, (_, slot) in enumerate(plain, n_mand):
                attr_slots[slot] = key[p]
            resolved = True
            for p, (_, slot, mapping) in enumerate(joined, n_mand + n_plain):
                value = mapping.get(key[p])
                if value is None:
                    resolved = False
                    break
                attr_slots[slot] = value
            if not resolved:
                rows_excluded += acc[0]
                continue
            group = (key[:n_mand], tuple(attr_slots))
            mine = finest.get(group)
            finest[group] = acc if mine is None else merge_accumulators(mine, acc)
        return finest, rows_scanned, rows_excluded, _Proof(tenants, keys)

    def _persist(self, spec: CubeSpec, groups: dict) -> Segment:
        """Write the groups as the cube's next version and drop older ones.

        Only versions older than the one just committed are dropped, so of
        two overlapping builds of one cube the newer version survives.

        Rows are sorted by tenant, the order ``tenant_range`` searches; the
        sort is stable, so rows keep the build's order within a tenant.
        """
        k = spec.k
        masks = _masked_indexes(k)
        tenant_at = spec.mandatory_keys.index("university_key")
        by_tenant = sorted(groups.items(), key=lambda item: item[0][1][tenant_at])
        stem = uuid.uuid4().hex
        staged = self.store.staging_path(f"{stem}.cube")
        with open(staged, "w", encoding="utf-8", newline="") as fh:
            for (mask, mandatory, present_vals), acc in by_tenant:
                attr_cells = [""] * k
                for value, j in zip(present_vals, masks[mask]):
                    attr_cells[j] = value
                sums = map(repr, acc[1:])
                fh.write(",".join((str(mask), *mandatory, *attr_cells, *sums, str(acc[0]))))
                fh.write("\n")
        segment = self.store.commit_batch(spec.table_name, staged, row_count=len(groups))
        for old in self.store.segments(spec.table_name):
            # a newer version is an overlapping build's, and must stay
            if old.batch_id >= segment.batch_id:
                break
            try:
                self.store.drop_batch(spec.table_name, old.batch_id)
            except StorageError:
                pass  # an overlapping build dropped it first
        return segment


def latest_cube_segment(store: SegmentStore, spec: CubeSpec) -> Segment | None:
    """Newest committed version of a cube, or None when never built."""
    segments = store.segments(spec.table_name)
    return segments[-1] if segments else None


def builtin_cube_specs() -> dict[str, CubeSpec]:
    """The shipped cubes, one per data mart.

    cube_student_performance keeps the tenant key mandatory and cubes the
    three codes course/time/regtype (k=3), which is what the shipped report
    queries expect; attribute values come from dimension joins so facts with
    unresolved references are excluded rather than miscounted.
    """
    specs = [
        CubeSpec(
            name="student_performance",
            fact="StudentPerformance",
            mandatory_keys=("university_key",),
            cube_attrs=("course_code", "time_code", "regtype_code"),
            aggregates=(
                AggregateSpec("avg_marks", "marks"),
                AggregateSpec("avg_per_att", "percent_attended"),
            ),
            dimension_joins=(
                DimensionJoin("course_key", "Courses", "course_code"),
                DimensionJoin("time_key", "Times", "time_code"),
                DimensionJoin("regtype_key", "Regtypes", "regtype_code"),
            ),
        ),
        CubeSpec(
            name="teaching_quality",
            fact="TeachingQuality",
            mandatory_keys=("university_key",),
            cube_attrs=("course_code", "time_code"),
            aggregates=(AggregateSpec("avg_rating", "rating"),),
            dimension_joins=(
                DimensionJoin("course_key", "Courses", "course_code"),
                DimensionJoin("time_key", "Times", "time_code"),
            ),
        ),
        CubeSpec(
            name="student_counts",
            fact="StudentCounts",
            mandatory_keys=("university_key",),
            cube_attrs=("department_code", "program_code", "year"),
            aggregates=(AggregateSpec("avg_head_count", "head_count"),),
            dimension_joins=(
                DimensionJoin("department_key", "Departments", "department_code"),
                DimensionJoin("program_key", "Programs", "program_code"),
                DimensionJoin("time_key", "Times", "year"),
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


@dataclass(frozen=True)
class VisibilityLagSample:
    cube: str
    fact_batch: int
    lag_seconds: float


class CubeRefresher:
    """Rebuilds registered cubes at a fixed interval on a daemon thread.

    Each rebuild replaces the cube atomically (readers see the old version
    until the new segment commits); a failed rebuild leaves the previous
    version in place.  Records, per fact batch, how long it took until a
    cube containing that batch became visible, taking the batches from the
    build's summary alone.  A batch is identified by its id and its
    segment's ctime, since a dropped batch's id is reused by the next
    upload; only the identities in each cube's latest build are kept.
    """

    def __init__(self, engine: CubeEngine, specs, interval: float):
        if interval <= 0:
            raise ValidationError("interval must be positive")
        self.engine = engine
        self.specs = list(specs)
        self.interval = interval
        self.lag_samples: deque[VisibilityLagSample] = deque(maxlen=256)
        self._covered: dict[str, set[tuple[int, int]]] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> list[CubeBuildSummary]:
        summaries = []
        for spec in self.specs:
            try:
                summary = self.engine.build(spec)
            except Exception:
                logger.exception("cube %s rebuild failed; previous version kept", spec.name)
                continue
            visible_at = time.time()
            covered = set(summary.fact_batches)
            seen = self._covered.get(spec.name, set())
            for batch_id, ctime_ns in sorted(covered - seen):
                self.lag_samples.append(
                    VisibilityLagSample(spec.name, batch_id, visible_at - ctime_ns / 1e9)
                )
            self._covered[spec.name] = covered
            summaries.append(summary)
        return summaries

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:
                logger.exception("cube refresh pass failed")

    def start(self) -> "CubeRefresher":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="cube-refresher", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

