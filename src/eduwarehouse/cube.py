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

The row loop of a build is not interpreted from the plan on every row:
each build generates it once (``_scan_source``, compiled by
``schema.compile_kernel``), with column positions and the measure count
as integer literals and every other value (the key getters, the measure
parsers) bound as a free variable.  Generated source holds only integer
literals and fixed local names, never a tenant, table, column or file
name.

Since every cube row belongs to one tenant, a cube is distributive over
tenants: a build of a large multi-tenant listing runs as tenant-disjoint
units, one in the building thread and the rest in forked worker
processes, each rolling up and rendering its own tenants' rows.  A
listing of one tenant, or one too small to split, builds inline.

A cube segment holds its rows grouped by tenant, in ascending university_key
order (Python ``str`` order, which is UTF-8 byte order), so ``tenant_range``
finds one tenant's rows as a single byte range by binary search over line
starts.  The file carries no index: every line is one cube row.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .errors import StorageError, ValidationError
from .schema import INTEGER, TEXT, TableDef, compile_kernel
from .store import Segment, SegmentStore, segment_lines, torn_row

logger = logging.getLogger(__name__)

MAX_CUBE_ATTRS = 62

_FORK = multiprocessing.get_context("fork")

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
    # listed fact segments read, and skipped as proven superseded
    segments_read: int
    segments_skipped: int
    # tenant-disjoint units the build ran, 1 when it ran inline
    units: int

    def to_report(self) -> str:
        lines = [
            f"cube: {self.cube}",
            f"version: {self.version}",
            f"rows_scanned: {self.rows_scanned}",
            f"rows_excluded: {self.rows_excluded}",
            f"cube_rows: {self.cube_rows}",
            f"build_seconds: {self.build_seconds:.3f}",
            f"fact_batches: {','.join(str(b) for b, _ in self.fact_batches) or '-'}",
            f"segments_read: {self.segments_read}",
            f"segments_skipped: {self.segments_skipped}",
            f"units: {self.units}",
        ]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _masked_indexes(k: int) -> tuple[tuple[int, ...], ...]:
    # for each mask, the listing positions of the present attributes
    return tuple(
        tuple(j for j in range(k) if mask >> j & 1) for mask in range(1 << k)
    )


def _projection(positions: tuple[int, ...]):
    """A function from a finest group's key to the tuple of its ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    p = positions[0]
    return lambda key: (key[p],)


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


def unit_count(listing_bytes: int, tenants: int, worker_pool_size: int, s_b: int) -> int:
    """How many tenant-disjoint units a build of a fact listing runs.

    One per ``s_b`` bytes of the listing, but no more than its tenants or
    the worker pool, and at least one.  So a listing under 2 x ``s_b``
    bytes builds inline, as an upload of one split does.
    """
    return max(1, min(worker_pool_size, tenants, listing_bytes // s_b))


def _first_tenant(seg: Segment, tenant_col: int) -> str:
    """The university_key of a segment's first row; '' when it has none."""
    try:
        with open(seg.path, "r", encoding="utf-8", newline="") as fh:
            fields = fh.readline().rstrip("\n").split(",", tenant_col + 1)
    except OSError as exc:
        raise StorageError(f"segment {seg.path} unreadable: {exc}") from exc
    return fields[tenant_col] if len(fields) > tenant_col else ""


class _UnitPlan:
    """Everything the units of one build share, fixed before any unit runs.

    Join maps and the scan (``_scan_source``) are made once, in the
    building process; a forked unit inherits the plan instead of
    receiving it pickled.
    """

    def __init__(self, spec, fact, segments, identities, proof, plain, joined, mand_idx,
                 measures):
        cols = fact.storage_columns
        self.spec = spec
        self.segments = segments
        self.identities = identities
        self.proof = proof
        self.plain = plain
        self.joined = joined
        self.n_mand = len(mand_idx)
        raw_idx = (*mand_idx, *(idx for idx, _ in plain), *(idx for idx, _, _ in joined))
        natural = [cols.index(c) for c in fact.natural_key]
        bucket_idx = tuple(i for i in raw_idx if i in natural)
        dedupe_idx = tuple(i for i in natural if i not in raw_idx)
        self.tenant_col = cols.index("university_key")
        # a proof files each bucket under one tenant, its first column
        if self.tenant_col not in bucket_idx:
            raise ValidationError(f"{spec.fact}'s natural key must include university_key")
        bucket_idx = (self.tenant_col, *(i for i in bucket_idx if i != self.tenant_col))
        self.bucket_is_tenant = len(bucket_idx) == 1
        self.scan = compile_kernel(
            _scan_source(len(cols), self.tenant_col, [i for i, _ in measures]), "scan",
            {
                # mandatory keys and cube attributes make at least two
                # columns, so the raw key is always a tuple
                "raw_of": itemgetter(*raw_idx),
                "bucket_of": itemgetter(*bucket_idx),
                # no dedupe columns: the bucket is the whole natural key
                "dedupe_of": itemgetter(*dedupe_idx) if dedupe_idx else (lambda fields: ()),
                "torn_row": torn_row, "sep": ",",
                **{f"parse{a}": parse for a, (_, parse) in enumerate(measures)},
            },
        )


def _scan_source(width: int, tenant_col: int, measure_cols: list[int]) -> str:
    """Source of a plan's scan: ``_accumulate``'s pass over one segment.

    ``scan(lines, seg, groups, buckets, in_segment)`` adds each kept row
    of ``lines`` to its entry in ``groups``, {raw key: [seen, support,
    sum0, sum1, ...]}, where ``seen`` is the set of dedupe keys of the
    raw group's bucket in ``buckets``, shared by every raw group of that
    bucket.  A row whose raw group has an entry takes one dict lookup; a
    row of a new raw group finds its bucket, and the entry is made at its
    first kept row, so ``groups`` is in first-kept order.  A sum starts
    as ``0 + value``, the additions a zeroed accumulator makes.  Adds
    each row's tenant to ``in_segment`` and returns the rows kept and the
    kept rows excluded for a measure that fails to parse.  A row of the
    wrong width raises ``torn_row`` with its line number, found by
    ``lines.index``: an earlier equal line would have raised already.
    """
    n = len(measure_cols)
    parse = [f"m{a} = parse{a}(f[{col}])" for a, col in enumerate(measure_cols)] or ["pass"]
    made = "".join(f", 0 + m{a}" for a in range(n))
    body = [
        "get = groups.get",
        "add_tenant = in_segment.add",
        "kept = 0",
        "excluded = 0",
        "for line in lines:",
        "    f = line.split(sep)",
        f"    if len(f) != {width}:",
        f"        raise torn_row(seg, lines.index(line) + 1, {width}, len(f))",
        "    raw = raw_of(f)",
        "    entry = get(raw)",
        f"    add_tenant(f[{tenant_col}])",
        "    if entry is None:",
        "        bucket = bucket_of(f)",
        "        seen = buckets.get(bucket)",
        "        if seen is None:",
        "            seen = buckets[bucket] = set()",
        "    else:",
        "        seen = entry[0]",
        "    key = dedupe_of(f)",
        "    if key in seen:",
        "        continue",
        "    seen.add(key)",
        "    kept += 1",
        "    try:",
        *(f"        {line}" for line in parse),
        "    except ValueError:",
        "        excluded += 1",
        "        continue",
        "    if entry is None:",
        f"        groups[raw] = [seen, 1{made}]",
        "    else:",
        "        entry[1] += 1",
        *(f"        entry[{a + 2}] += m{a}" for a in range(n)),
        "return kept, excluded",
    ]
    return ("def scan(lines, seg, groups, buckets, in_segment):\n"
            + "".join(f"    {line}\n" for line in body))


@dataclass(frozen=True)
class _UnitResult:
    """One unit's share of a build: its tenants' cube lines and its counts."""

    chunks: dict  # tenant -> that tenant's cube lines, in build order
    cube_rows: int
    rows_scanned: int
    rows_excluded: int
    tenants: dict  # identity of each segment in the unit -> its tenants
    keys: dict  # the unit's share of the proof's keys
    segments_read: int
    segments_skipped: int


def _build_unit(plan: _UnitPlan, members) -> _UnitResult:
    """Build the listing positions ``members`` of ``plan`` end to end.

    The keep-latest pass, the proof skip, the join resolution, the roll-up
    and the rendering of the unit's cube lines, per tenant.  Every cube row
    holds one tenant, so when no tenant has rows outside ``members`` the
    unit's lines are exactly the lines a build of the whole listing writes
    for its tenants.
    """
    finest, scanned, excluded, tenants, keys, read = _accumulate(plan, members)
    chunks, cube_rows = _render(plan.spec, _roll_up(finest, plan.n_mand, plan.spec.k))
    return _UnitResult(chunks, cube_rows, scanned, excluded, tenants, keys,
                       read, len(members) - read)


def _accumulate(plan: _UnitPlan, members):
    """Aggregate the kept rows of the segments at ``members`` at the finest grouping.

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

    ``plan.proof`` is the last committed build's, or None.  A listed
    segment of it is skipped when all keys its tenants had at that build
    are already seen in the newer segments this pass read first: it could
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

    Returns {(*mandatory, *attrs): [support, sum0, sum1, ...]} with every
    cube attribute present, the scanned and excluded row counts, each
    segment's tenants, the proof's keys and the number of segments read.
    A row that fails to parse any measure is excluded whole, so the
    support is every aggregate's count.
    """
    proof, scan = plan.proof, plan.scan
    buckets: dict = {}  # bucket key -> the dedupe keys seen in it
    groups: dict = {}  # raw key -> [seen, support, sum0, ...], in first-kept order
    tenants: dict = {}  # segment identity -> its tenants
    reuploaded: set = set()  # tenants with a superseded row or a skipped segment
    rows_scanned = 0
    rows_excluded = 0
    segments_read = 0
    for pos in reversed(members):
        seg, identity = plan.segments[pos], plan.identities[pos]
        if proof and identity in proof.tenants and proof.superseded(identity, buckets):
            tenants[identity] = proof.tenants[identity]
            reuploaded |= tenants[identity]
            continue
        segments_read += 1
        in_segment: set = set()
        lines = segment_lines(seg)
        kept, excluded = scan(lines, seg, groups, buckets, in_segment)
        rows_scanned += kept
        rows_excluded += excluded
        tenants[identity] = frozenset(in_segment)
        if kept < len(lines):
            reuploaded |= tenants[identity]
        del lines  # one segment's lines alive at a time, not two
    keys: dict = {}
    for bucket, seen in buckets.items():
        tenant = bucket if plan.bucket_is_tenant else bucket[0]
        if tenant in reuploaded:
            keys.setdefault(tenant, {})[bucket] = seen

    n_mand, n_plain = plan.n_mand, len(plan.plain)
    finest: dict = {}
    slots: list = [None] * (n_mand + plan.spec.k)
    for key, acc in groups.items():
        del acc[0]  # the bucket's dedupe set: what is left is the accumulator
        for p in range(n_mand):
            slots[p] = key[p]
        for p, (_, slot) in enumerate(plan.plain, n_mand):
            slots[n_mand + slot] = key[p]
        resolved = True
        for p, (_, slot, mapping) in enumerate(plan.joined, n_mand + n_plain):
            value = mapping.get(key[p])
            if value is None:
                resolved = False
                break
            slots[n_mand + slot] = value
        if not resolved:
            rows_excluded += acc[0]
            continue
        group = tuple(slots)
        mine = finest.get(group)
        finest[group] = acc if mine is None else merge_accumulators(mine, acc)
    return finest, rows_scanned, rows_excluded, tenants, keys, segments_read


def _roll_up(finest: dict, n_mand: int, k: int) -> list[dict]:
    """Each mask's groups, {(*mandatory, *present values): accumulator}.

    A coarser group starts as a copy of the first finest group it rolls
    up, in first-kept order, and adds each later one in place; these are
    the additions ``merge_accumulators`` makes, in the same order.  The
    finest accumulators are never mutated, and the last mask, which has
    every attribute present, is ``finest`` itself.
    """
    rolled = []
    for present in _masked_indexes(k):
        if len(present) == k:
            rolled.append(finest)
            continue
        project = _projection((*range(n_mand), *(n_mand + j for j in present)))
        groups: dict = {}
        for group, acc in finest.items():
            key = project(group)
            mine = groups.get(key)
            if mine is None:
                groups[key] = acc.copy()
            else:
                for i, value in enumerate(acc):
                    mine[i] += value
        rolled.append(groups)
    return rolled


def _render(spec: CubeSpec, rolled: list[dict]) -> tuple[dict, int]:
    """Each tenant's cube lines in build order (mask by mask), and the row count."""
    k, n_mand = spec.k, len(spec.mandatory_keys)
    tenant_at = spec.mandatory_keys.index("university_key")
    lines: dict = {}
    for mask, (present, groups) in enumerate(zip(_masked_indexes(k), rolled)):
        head = str(mask)
        for key, acc in groups.items():
            cells = [""] * k
            for value, j in zip(key[n_mand:], present):
                cells[j] = value
            line = ",".join((head, *key[:n_mand], *cells, *map(repr, acc[1:]), str(acc[0])))
            mine = lines.get(key[tenant_at])
            if mine is None:
                mine = lines[key[tenant_at]] = []
            mine.append(line)
    chunks = {tenant: "\n".join(rows) + "\n" for tenant, rows in lines.items()}
    return chunks, sum(map(len, lines.values()))


# set only inside a forked build worker, by _adopt_plan
_adopted_plan: _UnitPlan | None = None


def _adopt_plan(plan: _UnitPlan) -> None:
    # a forked worker's initializer: its arguments reach it with the fork's
    # copy of memory, not through a pickle
    global _adopted_plan
    _adopted_plan = plan


def _build_adopted_unit(members) -> _UnitResult:
    return _build_unit(_adopted_plan, members)


class CubeEngine:
    """Builds cubes in one grouped pass over the fact segments and persists them.

    The pass applies ``SegmentStore.scan``'s keep-latest rule while it adds
    each kept row to its raw group; the raw groups resolve into the finest
    groups (every cube attribute present), and each of the 2^k groupings is
    rolled up from those.

    Every cube row holds one tenant, so a build splits its fact listing
    into at most ``worker_pool_size`` tenant-disjoint units
    (``unit_count``), balanced by segment bytes: each segment goes with
    the tenant of its first row.  The building thread runs one unit and
    forked workers run the rest.  Each unit does the whole build for its
    tenants, up to rendering their cube lines, and the persisted file is
    those lines in tenant order, byte-identical to a build in one unit.
    If two units read one tenant (a segment holding several tenants), the
    build runs again as one unit.  A listing of one tenant or under
    2 x ``s_b`` bytes builds inline in the calling thread, as does every
    build of an engine made with the default pool of one.

    After a build commits, the engine keeps, per cube spec, what that build
    proves about its fact listing: each segment's identity and tenants, and
    every key of each tenant it saw re-uploaded.  The next build of the
    spec skips a segment of that listing whose tenants' keys are all seen
    in newer segments, so a corrected re-upload does not re-read the batch
    it replaces.  The state lives in memory only (a fresh engine reads
    everything), and a lock guards it because builds can overlap.
    """

    def __init__(self, store: SegmentStore, worker_pool_size: int = 1, s_b: int = 1):
        if worker_pool_size < 1 or s_b < 1:
            raise ValidationError("worker_pool_size and s_b must be >= 1")
        self.store = store
        self.worker_pool_size = worker_pool_size
        self.s_b = s_b
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
        stats = [s.path.stat() for s in fact_segments]
        fact_batches = tuple((s.batch_id, st.st_ctime_ns) for s, st in zip(fact_segments, stats))
        with self._lock:
            proof = self._proofs.get(spec)
        plan = _UnitPlan(spec, fact, fact_segments, fact_batches, proof, plain, joined,
                         mand_idx, measures)
        units = self._units(plan, [st.st_size for st in stats])
        results = self._run_units(plan, units)
        read_by = [frozenset().union(*r.tenants.values()) for r in results]
        if len(results) > 1 and sum(map(len, read_by)) > len(frozenset().union(*read_by)):
            logger.warning("a %s segment holds several tenants; building %s as one unit",
                           spec.fact, spec.name)
            results = [_build_unit(plan, range(len(fact_segments)))]

        chunks: dict = {}
        for result in results:
            chunks.update(result.chunks)
        cube_rows = sum(r.cube_rows for r in results)
        segment = self._persist(spec, chunks, cube_rows)
        tenants: dict = {}
        keys: dict = {}
        for result in results:
            tenants.update(result.tenants)
            keys.update(result.keys)
        with self._lock:
            self._proofs[spec] = _Proof(tenants, keys)
        rows_scanned = sum(r.rows_scanned for r in results)
        rows_excluded = sum(r.rows_excluded for r in results)
        build_seconds = time.perf_counter() - t_start
        summary = CubeBuildSummary(
            spec.name, segment.batch_id, rows_scanned, rows_excluded, cube_rows,
            build_seconds, fact_batches, sum(r.segments_read for r in results),
            sum(r.segments_skipped for r in results), len(results),
        )
        logger.info(
            "built cube %s v%d: %d rows from %d facts (%d excluded) in %d unit(s), %.2fs",
            spec.name, segment.batch_id, cube_rows, rows_scanned, rows_excluded,
            len(results), build_seconds,
        )
        return summary

    def _units(self, plan: _UnitPlan, sizes: list[int]) -> list[list[int]]:
        """The build's tenant-disjoint units, as ascending listing positions.

        A segment goes to the unit of its first row's tenant, and tenants
        go, heaviest first, to the unit with the fewest bytes so far; the
        first unit, which the building thread runs, takes the heaviest.
        Only a listing that could make several units is peeked at.
        """
        whole = [list(range(len(sizes)))]
        total = sum(sizes)
        if unit_count(total, len(sizes), self.worker_pool_size, self.s_b) == 1:
            return whole
        by_tenant: dict = {}
        for pos, seg in enumerate(plan.segments):
            by_tenant.setdefault(_first_tenant(seg, plan.tenant_col), []).append(pos)
        n = unit_count(total, len(by_tenant), self.worker_pool_size, self.s_b)
        if n == 1:
            return whole
        weight = {t: sum(sizes[pos] for pos in members) for t, members in by_tenant.items()}
        units: list = [[] for _ in range(n)]
        loads = [0] * n
        for tenant in sorted(by_tenant, key=lambda t: (-weight[t], t)):
            lightest = loads.index(min(loads))
            units[lightest] += by_tenant[tenant]
            loads[lightest] += weight[tenant]
        return [sorted(unit) for unit in units]

    @staticmethod
    def _run_units(plan: _UnitPlan, units: list[list[int]]) -> list[_UnitResult]:
        """Run the first unit in this thread and the rest in forked workers.

        Fork, as the ETL pool uses: a worker inherits the plan (join maps
        and proof included) and touches nothing a thread of this process
        may hold, since it only reads segment files and computes.  The
        workers are joined before this returns, whether or not a unit
        failed.
        """
        if len(units) == 1:
            return [_build_unit(plan, units[0])]
        with ProcessPoolExecutor(len(units) - 1, mp_context=_FORK,
                                 initializer=_adopt_plan, initargs=(plan,)) as pool:
            futures = [pool.submit(_build_adopted_unit, unit) for unit in units[1:]]
            mine = _build_unit(plan, units[0])
            return [mine, *(future.result() for future in futures)]

    def _persist(self, spec: CubeSpec, chunks: dict, cube_rows: int) -> Segment:
        """Write the tenants' cube lines as the cube's next version and drop older ones.

        Only versions older than the one just committed are dropped, so of
        two overlapping builds of one cube the newer version survives.

        Tenants are written in ascending order, the order ``tenant_range``
        searches; each tenant's lines keep the build's order.
        """
        stem = uuid.uuid4().hex
        staged = self.store.staging_path(f"{stem}.cube")
        with open(staged, "w", encoding="utf-8", newline="") as fh:
            for tenant in sorted(chunks):
                fh.write(chunks[tenant])
        segment = self.store.commit_batch(spec.table_name, staged, row_count=cube_rows)
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

    A cube is not rebuilt while its fingerprint is the one recorded at its
    last rebuild here: the fact batches that build's summary names, the
    identity of every segment of each joined dimension, listed before
    that build began, and the identity of the version it committed.  A
    skipped cube takes no lag sample and returns no summary.  A dimension
    commit during the build only makes the next pass rebuild, and a
    version replaced since (a direct build, a drop) no longer matches.
    """

    def __init__(self, engine: CubeEngine, specs, interval: float):
        if interval <= 0:
            raise ValidationError("interval must be positive")
        self.engine = engine
        self.specs = list(specs)
        self.interval = interval
        self.lag_samples: deque[VisibilityLagSample] = deque(maxlen=256)
        self._covered: dict[str, set[tuple[int, int]]] = {}
        self._fingerprints: dict[str, tuple] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> list[CubeBuildSummary]:
        summaries = []
        for spec in self.specs:
            try:
                last = self._fingerprints.get(spec.name)  # None: list nothing more
                if last is not None and last == self._fingerprint(spec):
                    continue  # nothing it reads has changed since its last rebuild
                dimensions = self._dimensions(spec)
                summary = self.engine.build(spec)
            except Exception:
                logger.exception("cube %s rebuild failed; previous version kept", spec.name)
                continue
            visible_at = time.time()
            version = self._version(spec)
            if version is not None and version[0] == summary.version:
                self._fingerprints[spec.name] = (summary.fact_batches, dimensions, version)
            else:  # replaced already: the next pass rebuilds
                self._fingerprints.pop(spec.name, None)
            covered = set(summary.fact_batches)
            seen = self._covered.get(spec.name, set())
            for batch_id, ctime_ns in sorted(covered - seen):
                self.lag_samples.append(
                    VisibilityLagSample(spec.name, batch_id, visible_at - ctime_ns / 1e9)
                )
            self._covered[spec.name] = covered
            summaries.append(summary)
        return summaries

    def _fingerprint(self, spec: CubeSpec) -> tuple:
        return self._identities(spec.fact), self._dimensions(spec), self._version(spec)

    def _identities(self, table: str) -> tuple[tuple[int, int], ...]:
        """(batch_id, st_ctime_ns) of each segment of ``table``, as a build's
        summary names its fact batches."""
        return tuple((seg.batch_id, seg.path.stat().st_ctime_ns)
                     for seg in self.engine.store.segments(table))

    def _dimensions(self, spec: CubeSpec) -> tuple:
        tables = dict.fromkeys(j.dimension for j in spec.dimension_joins)
        return tuple(self._identities(table) for table in tables)

    def _version(self, spec: CubeSpec) -> tuple[int, int] | None:
        """(batch_id, st_ctime_ns) of spec's latest cube version; None when
        there is none, or it is gone already."""
        latest = latest_cube_segment(self.engine.store, spec)
        if latest is None:
            return None
        try:
            return latest.batch_id, latest.path.stat().st_ctime_ns
        except FileNotFoundError:
            return None

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

