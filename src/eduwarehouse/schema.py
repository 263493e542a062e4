"""Multi-tenant snowflake schema catalog for the academic data mart.

The shipped catalog has eight dimension tables and three fact tables covering
student performance, teaching quality, and student head counts.  Multi-tenancy
works by prefixing every dimension key and reference with the owning tenant's
university key ("university1" + "student1" -> "university1_student1"); every
fact table additionally carries the tenant key as its own column so OLAP
queries can filter a tenant's rows without string surgery.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import ValidationError

# Joins tenant prefix to raw keys.  TenantKey forbids it so qualified keys
# split unambiguously at the first separator.
KEY_SEPARATOR = "_"

TENANT_KEY = "tenant-key"
DIMENSION_KEY = "dimension-key"
NATURAL_KEY = "natural-key"
REFERENCE = "reference"
CODE = "code"
MEASURE = "measure"
DESCRIPTIVE = "descriptive"

ATTRIBUTE_KINDS = frozenset(
    {TENANT_KEY, DIMENSION_KEY, NATURAL_KEY, REFERENCE, CODE, MEASURE, DESCRIPTIVE}
)

TEXT = "text"
INTEGER = "integer"
DECIMAL = "decimal"

VALUE_CLASSES = frozenset({TEXT, INTEGER, DECIMAL})

DIMENSION = "dimension"
FACT = "fact"


@dataclass(frozen=True)
class TenantKey:
    """University key of a registered tenant. Separator-free and non-empty."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValidationError("tenant key must be non-empty")
        if KEY_SEPARATOR in self.value:
            raise ValidationError(
                f"tenant key {self.value!r} must not contain {KEY_SEPARATOR!r}"
            )
        if "," in self.value or "\n" in self.value or "\r" in self.value:
            raise ValidationError(
                f"tenant key {self.value!r} must not contain separators or newlines"
            )


@dataclass(frozen=True)
class AttributeDef:
    """One logical attribute of a table.

    A ``reference`` attribute names the dimension it points at and the column
    name used for the tenant-provided raw value (``raw_name``); storage keeps
    both the raw value and the qualified key side by side.
    """

    name: str
    kind: str
    value_class: str = TEXT
    referenced_table: str | None = None
    raw_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTRIBUTE_KINDS:
            raise ValidationError(f"unknown attribute kind {self.kind!r}")
        if self.value_class not in VALUE_CLASSES:
            raise ValidationError(f"unknown value class {self.value_class!r}")
        if self.kind == REFERENCE and (self.referenced_table is None or self.raw_name is None):
            raise ValidationError(
                f"reference attribute {self.name!r} needs referenced_table and raw_name"
            )


@dataclass(frozen=True)
class TableDef:
    """A dimension or fact table: logical attributes plus row identity.

    ``natural_key`` lists the storage columns that identify a logical row; the
    store's keep-latest deduplication uses it.  For dimensions this is the
    qualified dimension key (tenant-scoped by construction), for facts the
    tenant key plus every reference key.
    """

    name: str
    table_class: str
    attributes: tuple[AttributeDef, ...]
    natural_key: tuple[str, ...]

    def attribute(self, name: str) -> AttributeDef:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(name)

    def attrs_of_kind(self, kind: str) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if a.kind == kind)

    @property
    def storage_columns(self) -> tuple[str, ...]:
        """Column layout of stored segment rows (references store raw + key)."""
        cols: list[str] = []
        for attr in self.attributes:
            if attr.kind == REFERENCE:
                cols.append(attr.raw_name)  # type: ignore[arg-type]
            cols.append(attr.name)
        return tuple(cols)

    @property
    def upload_columns(self) -> tuple[str, ...]:
        """Canonical CSV upload header: what tenants actually provide."""
        cols: list[str] = []
        for attr in self.attributes:
            if attr.kind in (TENANT_KEY, DIMENSION_KEY):
                continue  # generated during transform
            cols.append(attr.raw_name if attr.kind == REFERENCE else attr.name)
        return tuple(cols)

    @property
    def upload_header(self) -> str:
        return ",".join(self.upload_columns)

    def storage_index(self, column: str) -> int:
        return self.storage_columns.index(column)


RESERVED_ROLLUP_TEXT = "ALL"

# How each storage column is produced from an upload row: _COPY passes the
# field through, _QUALIFY prefixes it with the tenant key, _TENANT emits
# the tenant key itself.
_COPY, _QUALIFY, _TENANT = 0, 1, 2


@lru_cache(maxsize=None)
def _storage_plan(table: TableDef) -> tuple[tuple[int, int], ...]:
    """(op, upload field index) per storage column of ``table``."""
    upload_idx = {c: i for i, c in enumerate(table.upload_columns)}
    ops: list[tuple[int, int]] = []
    natural = table.attrs_of_kind(NATURAL_KEY)
    for attr in table.attributes:
        if attr.kind == TENANT_KEY:
            ops.append((_TENANT, 0))
        elif attr.kind == DIMENSION_KEY:
            ops.append((_QUALIFY, upload_idx[natural[0].name]))
        elif attr.kind == REFERENCE:
            raw = attr.raw_name or ""
            ops.append((_COPY, upload_idx[raw]))
            ops.append((_QUALIFY, upload_idx[raw]))
        else:
            ops.append((_COPY, upload_idx[attr.name]))
    return tuple(ops)


def compile_kernel(source: str, name: str, bindings: dict):
    """The function ``name`` that ``source`` defines, closed over ``bindings``.

    For a row loop or row check generated once per plan or table, as
    ``dataclasses`` generates ``__init__``.  The source holds only integer literals and fixed local
    names, never a tenant, table, column or file name: every such value
    reaches the function through ``bindings``.  The function keeps its
    source as ``__source__``.
    """
    text = (f"def __make__({', '.join(bindings)}):\n"
            + textwrap.indent(source, "    ") + f"    return {name}\n")
    namespace: dict = {}
    exec(text, {}, namespace)
    function = namespace["__make__"](**bindings)
    function.__source__ = source
    return function


# A failed row check: (reason, key context).  The key context is the row's
# first non-empty natural-key or reference field, None for arity failures.
RowFault = tuple[str, str | None]


class UploadRules(NamedTuple):
    """The upload-row rules of one table, compiled by upload_rules().

    ``shape`` checks, in order: the field count, then that every numeric
    field parses (a decimal must also be finite), then that no text key or
    code field holds the reserved roll-up text.  ``empty_key`` checks that
    no natural-key or reference field is empty.  Each returns None for a
    conforming row and a RowFault otherwise.

    ``rows(lines, line_no, tenant, faults)`` is the split worker's loop:
    it numbers ``lines`` on from ``line_no``, renders each conforming
    line as ``tenant``'s storage row (``_storage_plan``), appends ``(line
    number, RowFault)`` to ``faults`` for every other line, and returns
    the rendered rows and the last line number.  A line ending in CR
    loses it first.
    """

    shape: Callable[[list[str]], RowFault | None]
    empty_key: Callable[[list[str]], RowFault | None]
    rows: Callable[[list[str], int, str, list], tuple[list[str], int]]


# The kinds of row check, each on one upload field index (_ARITY: on the
# field count, the index being the count expected).
_ARITY, _INT, _DECIMAL, _RESERVED, _EMPTY = range(5)


def _check_source(checks, first: int, on_fault: list[str]) -> list[str]:
    """Lines that test the row ``f`` against ``checks`` in order.

    At the first check that fails, the lines ``on_fault`` run, each
    formatted with the RowFault's expression: ``reasons[j]`` of check
    ``first + j`` and the row's ``context``, or ``arity_fault(f)``.
    """
    lines: list[str] = []
    for j, (kind, i) in enumerate(checks, first):
        fault = [s.format("arity_fault(f)" if kind == _ARITY else f"(reasons[{j}], context(f))")
                 for s in on_fault]
        if kind == _ARITY:
            lines += [f"if len(f) != {i}:", *(f"    {s}" for s in fault)]
        elif kind == _INT or kind == _DECIMAL:
            parse = f"int(f[{i}])" if kind == _INT else f"n = float(f[{i}])"
            lines += ["try:", f"    {parse}", "except ValueError:", *(f"    {s}" for s in fault)]
            if kind == _DECIMAL:  # nan and inf
                lines += ["if n - n != 0:", *(f"    {s}" for s in fault)]
        elif kind == _RESERVED:
            lines += [f"if f[{i}] == reserved:", *(f"    {s}" for s in fault)]
        else:
            lines += [f"if not f[{i}]:", *(f"    {s}" for s in fault)]
    return lines


def _rule_sources(shape: list, empty_key: list, plan) -> dict[str, str]:
    """Source of ``shape``, ``empty_key`` and ``rows``, all three made from
    the same check lists, so a conforming row is one for every caller.

    ``rows`` runs the two lists' checks, in that order, on each line; a
    line that passes them all is stored as one f-string of the storage
    plan's fields and the separators between them, with no text of its
    own.
    """
    def function(header: str, body: list[str]) -> str:
        return header + "".join(f"    {s}\n" for s in body)

    cell = {_COPY: "{f[%d]}", _QUALIFY: "{prefix}{f[%d]}", _TENANT: "{tenant}"}
    row = "{sep}".join(cell[op] % i if op != _TENANT else cell[op] for op, i in plan)
    loop = [
        "prefix = tenant + key_sep",
        "out = []",
        "append = out.append",
        "for line in lines:",
        "    line_no += 1",
        "    f = line[:-1].split(sep) if line.endswith(cr) else line.split(sep)",
        *(f"    {s}" for s in _check_source(
            [*shape, *empty_key], 0, ["faults.append((line_no, {}))", "continue"])),
        f"    append(f'{row}')",
        "return out, line_no",
    ]
    return {
        "shape": function("def shape(f):\n",
                          [*_check_source(shape, 0, ["return {}"]), "return None"]),
        "empty_key": function("def empty_key(f):\n", [
            *_check_source(empty_key, len(shape), ["return {}"]), "return None"]),
        "rows": function("def rows(lines, line_no, tenant, faults):\n", loop),
    }


@lru_cache(maxsize=None)
def upload_rules(table: TableDef) -> UploadRules:
    """Compile the row rules of ``table``'s upload format, once per table.

    The rules are one ordered list of checks per function
    (``_check_source``); ``shape``, ``empty_key`` and ``rows`` are
    generated from those lists (``_rule_sources``), with field positions
    and the field count as integer literals.  The fault reasons, the
    separators, the reserved text and ``context`` are bound by
    ``compile_kernel``.
    """
    columns = table.upload_columns
    arity = len(columns)
    uploaded = [a for a in table.attributes if a.kind not in (TENANT_KEY, DIMENSION_KEY)]
    numeric: list[tuple[tuple[int, int], str]] = []
    reserved: list[tuple[tuple[int, int], str]] = []
    keys: list[tuple[tuple[int, int], str]] = []
    for i, (attr, col) in enumerate(zip(uploaded, columns)):
        if attr.value_class != TEXT:
            kind = _INT if attr.value_class == INTEGER else _DECIMAL
            numeric.append(((kind, i), f"not-numeric:{col}"))
        elif attr.kind in (NATURAL_KEY, REFERENCE, CODE):
            reserved.append(((_RESERVED, i), f"reserved-value:{col}"))
        if attr.kind in (NATURAL_KEY, REFERENCE):
            keys.append(((_EMPTY, i), f"empty-key:{col}"))
    key_idxs = [i for (_, i), _ in keys]
    shape = [((_ARITY, arity), ""), *numeric, *reserved]  # arity_fault gives its reason

    def context(fields: list[str]) -> str | None:
        for i in key_idxs:
            if fields[i]:
                return fields[i]
        return None

    def arity_fault(fields: list[str]) -> RowFault:
        return f"arity: expected {arity} fields, found {len(fields)}", None

    sources = _rule_sources([c for c, _ in shape], [c for c, _ in keys], _storage_plan(table))
    bindings = {"reasons": tuple(reason for _, reason in (*shape, *keys)), "context": context,
                "arity_fault": arity_fault, "sep": ",", "cr": "\r",
                "key_sep": KEY_SEPARATOR, "reserved": RESERVED_ROLLUP_TEXT}
    return UploadRules(*(compile_kernel(sources[name], name, bindings)
                         for name in ("shape", "empty_key", "rows")))


@dataclass(frozen=True)
class WarehouseSchema:
    """Immutable catalog of dimension and fact tables."""

    tables: dict[str, TableDef] = field(default_factory=dict)
    version: int = 1

    def dimensions(self) -> tuple[TableDef, ...]:
        return tuple(t for t in self.tables.values() if t.table_class == DIMENSION)

    def facts(self) -> tuple[TableDef, ...]:
        return tuple(t for t in self.tables.values() if t.table_class == FACT)

    def validate(self) -> None:
        """Raise ValidationError unless the structural invariants hold."""
        for table in self.tables.values():
            for attr in table.attrs_of_kind(REFERENCE):
                target = self.tables.get(attr.referenced_table or "")
                if target is None or target.table_class != DIMENSION:
                    raise ValidationError(
                        f"{table.name}.{attr.name} references missing dimension "
                        f"{attr.referenced_table!r}"
                    )
            for col in table.natural_key:
                if col not in table.storage_columns:
                    raise ValidationError(f"{table.name}: natural key column {col!r} unknown")
            if table.table_class == DIMENSION:
                if len(table.attrs_of_kind(DIMENSION_KEY)) != 1:
                    raise ValidationError(f"{table.name}: dimensions need exactly one dimension key")
                if len(table.attrs_of_kind(NATURAL_KEY)) != 1:
                    raise ValidationError(f"{table.name}: dimensions need exactly one natural key")
                if table.attrs_of_kind(TENANT_KEY):
                    raise ValidationError(f"{table.name}: dimensions carry no tenant key column")
            else:
                if len(table.attrs_of_kind(TENANT_KEY)) != 1:
                    raise ValidationError(f"{table.name}: facts need exactly one tenant key")
                if not table.attrs_of_kind(REFERENCE) or not table.attrs_of_kind(MEASURE):
                    raise ValidationError(
                        f"{table.name}: facts need at least one reference and one measure"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Dimension-to-dimension edges only; facts may not be referenced at all.
        edges = {
            t.name: [a.referenced_table for a in t.attrs_of_kind(REFERENCE)]
            for t in self.tables.values()
        }
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            if state.get(node) == 1:
                raise ValidationError(f"reference cycle through {node}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in edges.get(node, []):
                if nxt is not None:
                    visit(nxt)
            state[node] = 2

        for name in edges:
            visit(name)


def _dim(name: str, key: str, natural: str, *extra: AttributeDef) -> TableDef:
    attrs = (
        AttributeDef(key, DIMENSION_KEY),
        AttributeDef(natural, NATURAL_KEY),
        *extra,
    )
    return TableDef(name, DIMENSION, attrs, natural_key=(key,))


def _ref(name: str, table: str, raw: str) -> AttributeDef:
    return AttributeDef(name, REFERENCE, referenced_table=table, raw_name=raw)


def builtin_schema() -> WarehouseSchema:
    """The fixed shipped catalog: 8 dimensions, 3 facts, Courses->Departments
    as the single snowflaked chain."""
    tables = [
        _dim("Universities", "university_dim_key", "university_code",
             AttributeDef("university_name", DESCRIPTIVE)),
        _dim("Students", "student_key", "student_id",
             AttributeDef("student_name", DESCRIPTIVE)),
        _dim("Teachers", "teacher_key", "teacher_id",
             AttributeDef("teacher_name", DESCRIPTIVE)),
        _dim("Courses", "course_key", "course_code",
             AttributeDef("course_name", DESCRIPTIVE),
             _ref("department_key", "Departments", "department_code")),
        _dim("Departments", "department_key", "department_code",
             AttributeDef("department_name", DESCRIPTIVE)),
        _dim("Programs", "program_key", "program_code",
             AttributeDef("program_name", DESCRIPTIVE)),
        _dim("Times", "time_key", "time_code",
             AttributeDef("year", CODE, INTEGER),
             AttributeDef("term", CODE)),
        _dim("Regtypes", "regtype_key", "regtype_code",
             AttributeDef("regtype_name", DESCRIPTIVE)),
        TableDef(
            "StudentPerformance", FACT,
            (
                AttributeDef("university_key", TENANT_KEY),
                _ref("student_key", "Students", "student_id"),
                _ref("course_key", "Courses", "course_code"),
                _ref("time_key", "Times", "time_code"),
                _ref("regtype_key", "Regtypes", "regtype_code"),
                AttributeDef("marks", MEASURE, DECIMAL),
                AttributeDef("percent_attended", MEASURE, DECIMAL),
                AttributeDef("grade", CODE),
            ),
            natural_key=("university_key", "student_key", "course_key", "time_key", "regtype_key"),
        ),
        TableDef(
            "TeachingQuality", FACT,
            (
                AttributeDef("university_key", TENANT_KEY),
                _ref("teacher_key", "Teachers", "teacher_id"),
                _ref("course_key", "Courses", "course_code"),
                _ref("time_key", "Times", "time_code"),
                AttributeDef("rating", MEASURE, DECIMAL),
            ),
            natural_key=("university_key", "teacher_key", "course_key", "time_key"),
        ),
        TableDef(
            "StudentCounts", FACT,
            (
                AttributeDef("university_key", TENANT_KEY),
                _ref("department_key", "Departments", "department_code"),
                _ref("program_key", "Programs", "program_code"),
                _ref("time_key", "Times", "time_code"),
                AttributeDef("head_count", MEASURE, INTEGER),
            ),
            natural_key=("university_key", "department_key", "program_key", "time_key"),
        ),
    ]
    schema = WarehouseSchema(tables={t.name: t for t in tables}, version=1)
    schema.validate()
    assert len(schema.dimensions()) == 8 and len(schema.facts()) == 3
    return schema


def render_schema_reference(schema: WarehouseSchema) -> str:
    """Human-readable reference: attributes, upload header, and row identity
    for every table in the catalog."""
    lines = ["# Warehouse schema reference", ""]
    for table in schema.tables.values():
        lines.append(f"## {table.name} ({table.table_class})")
        lines.append("")
        lines.append("| attribute | kind | value class | references |")
        lines.append("|---|---|---|---|")
        for attr in table.attributes:
            ref = attr.referenced_table or ""
            lines.append(f"| {attr.name} | {attr.kind} | {attr.value_class} | {ref} |")
        lines.append("")
        lines.append(f"Upload CSV header: `{table.upload_header}`")
        lines.append("")
        lines.append(f"Row identity (keep-latest dedupe): `{', '.join(table.natural_key)}`")
        lines.append("")
    return "\n".join(lines)
