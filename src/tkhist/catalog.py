"""Schema loading, CSV ingestion, column classification, and key-domain inference.

A key domain is the equivalence class of columns connected by primary/foreign
key edges.  All histograms over one domain share the same equi-width bins,
so bin-aligned join estimation never needs cross-bin interpolation.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainBoundsError, IngestError, SchemaError

KIND_INTEGER = "integer"
KIND_REAL = "real"
KIND_CATEGORICAL = "categorical"
VALID_KINDS = (KIND_INTEGER, KIND_REAL, KIND_CATEGORICAL)

ROLE_KEY = "key"
ROLE_ATTRIBUTE = "attribute"

DEFAULT_CATEGORICAL_THRESHOLD = 1000


@dataclass(frozen=True)
class ColumnDef:
    name: str
    kind: str
    role: str
    categorical: bool = False  # manual override, wins over inference


@dataclass(frozen=True)
class TableDef:
    name: str
    source: str
    columns: tuple[ColumnDef, ...]

    def column(self, name: str) -> ColumnDef:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


@dataclass
class Schema:
    tables: list[TableDef]
    foreign_keys: list[tuple[str, str]]
    categorical_threshold: int = DEFAULT_CATEGORICAL_THRESHOLD
    templates: list[list[tuple[str, str]]] = field(default_factory=list)
    base_dir: str = "."
    document: dict = field(default_factory=dict)

    def table(self, name: str) -> TableDef:
        for t in self.tables:
            if t.name == name:
                return t
        raise SchemaError(f"unknown table {name!r}")

    def has_table(self, name: str) -> bool:
        return any(t.name == name for t in self.tables)


def split_qualified(qualified: str) -> tuple[str, str]:
    parts = qualified.split(".")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise SchemaError(f"expected table.column, got {qualified!r}")
    return parts[0], parts[1]


def _parse_template_edge(edge: str) -> tuple[str, str]:
    sides = edge.split("=")
    if len(sides) != 2:
        raise SchemaError(f"template edge {edge!r} is not of the form t1.c=t2.c")
    return sides[0].strip(), sides[1].strip()


def load_schema(path: str) -> Schema:
    """Load and validate a schema document (UTF-8 JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read schema file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path!r} is not valid JSON: {exc}") from exc
    schema = schema_from_document(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    return schema


def schema_from_document(doc: dict, base_dir: str = ".") -> Schema:
    if not isinstance(doc, dict) or "tables" not in doc:
        raise SchemaError("schema document must be an object with a 'tables' list")

    tables = []
    for tdoc in _typed(doc["tables"], list, "schema 'tables'"):
        tname = _required(tdoc, "name", "table")
        cols = []
        seen = set()
        for cdoc in _typed(tdoc.get("columns", []), list,
                           f"table {tname!r}: 'columns'"):
            name = _required(cdoc, "name", f"table {tname!r}: column")
            if name in seen:
                raise SchemaError(
                    f"duplicate column {name!r} in table {tname!r}")
            seen.add(name)
            kind = cdoc.get("kind", KIND_INTEGER)
            if kind not in VALID_KINDS:
                raise SchemaError(f"unknown column kind {kind!r}")
            role = cdoc.get("role", ROLE_ATTRIBUTE)
            if role not in (ROLE_KEY, ROLE_ATTRIBUTE):
                raise SchemaError(f"unknown column role {role!r}")
            categorical = _typed(cdoc.get("categorical", False), bool,
                                 f"column {tname}.{name}: 'categorical'")
            cols.append(ColumnDef(name=name, kind=kind, role=role,
                                  categorical=categorical))
        tables.append(TableDef(
            name=tname, source=_typed(tdoc.get("file", ""), str,
                                      f"table {tname!r}: 'file'"),
            columns=tuple(cols)))

    schema = Schema(
        tables=tables,
        foreign_keys=[],
        categorical_threshold=_typed(
            doc.get("categorical_threshold", DEFAULT_CATEGORICAL_THRESHOLD),
            int, "schema 'categorical_threshold'"),
        base_dir=base_dir,
        document=doc,
    )
    if schema.categorical_threshold < 1:
        raise SchemaError("categorical_threshold must be >= 1")

    for fk in _typed(doc.get("foreign_keys", []), list,
                     "schema 'foreign_keys'"):
        frm = _required(fk, "from", "foreign key")
        to = _required(fk, "to", "foreign key")
        for endpoint in (frm, to):
            tname, cname = split_qualified(endpoint)
            if not schema.has_table(tname) or not schema.table(tname).has_column(cname):
                raise SchemaError(f"dangling foreign key: {endpoint!r} does not exist")
        schema.foreign_keys.append((frm, to))

    for template in _typed(doc.get("templates", []), list,
                           "schema 'templates'"):
        edges = []
        for edge in _typed(template, list, "template"):
            a, b = _parse_template_edge(_typed(edge, str, "template edge"))
            for endpoint in (a, b):
                tname, cname = split_qualified(endpoint)
                if not schema.has_table(tname) or not schema.table(tname).has_column(cname):
                    raise SchemaError(
                        f"template references missing column {endpoint!r}")
            edges.append((a, b))
        check_join_tree(
            dict.fromkeys(ref.split(".")[0] for edge in edges for ref in edge),
            edges, lambda why: SchemaError(f"cyclic template {template}: {why}"),
            lambda why: SchemaError(f"template {template}: {why}"))
        schema.templates.append(edges)

    return schema


_JSON_NAMES = {list: "a list", str: "a string", bool: "a boolean",
               int: "an integer"}


def _typed(value, kind: type, what: str):
    """`value`, or a SchemaError naming the entry `what` if it is not a
    `kind` (a boolean is not an integer here)."""
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise SchemaError(f"{what} is not {_JSON_NAMES[kind]}: {value!r}")
    return value


def _required(entry, key: str, what: str) -> str:
    """The string `entry[key]`, or a SchemaError naming the entry that lacks
    it."""
    if not isinstance(entry, dict) or key not in entry:
        raise SchemaError(f"{what} {entry!r} has no {key!r}")
    return _typed(entry[key], str, f"{what} {entry!r}: {key!r}")


def find_root(parent: dict, x):
    """Root of `x` in a union-find parent map (unseen `x` is its own root)."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def check_join_tree(names, edges, cyclic, split) -> None:
    """The join-tree rule: the join edges (pairs of `name.column`
    references) must join `names` into one tree.  Raises `cyclic(message)`
    at the first edge that joins a name to itself or closes a cycle, else
    `split(message)` when the edges leave some name unjoined."""
    parent: dict[str, str] = {}
    for a, b in edges:
        ta, tb = a.split(".")[0], b.split(".")[0]
        ra, rb = find_root(parent, ta), find_root(parent, tb)
        if ra == rb:
            raise cyclic(f"self-join edge {a} = {b}" if ta == tb
                         else f"cyclic join detected at edge {a} = {b}")
        parent[ra] = rb
    if len(edges) != len(names) - 1:
        raise split(f"disconnected join graph: the joins do not connect "
                    f"{list(names)} into one tree")


@dataclass
class TableData:
    """Columnar table contents with per-column null masks.  A NaN in a float
    column passes no predicate and joins nothing, so it is a null: each such
    column's mask is made anew with its NaN rows set, the caller's masks and
    columns left as they are.  An infinity in a float column, which would
    turn equi-width bin boundaries into inf or NaN, raises IngestError
    naming its (1-based) row and column."""

    name: str
    columns: dict[str, np.ndarray]
    null_mask: dict[str, np.ndarray]
    row_count: int

    def __post_init__(self):
        for c, values in self.columns.items():
            if values.dtype.kind == "f" and np.isinf(values).any():
                raise IngestError(
                    f"table {self.name!r}: row "
                    f"{np.argmax(np.isinf(values)) + 1}, column {c!r}: "
                    f"infinite value is not supported")
        self.null_mask = {
            c: m | np.isnan(self.columns[c])
            if self.columns[c].dtype.kind == "f" else m
            for c, m in self.null_mask.items()}

    def non_null(self, column: str) -> np.ndarray:
        return self.columns[column][~self.null_mask[column]]


def ingest_table(tdef: TableDef, schema: Schema, path: str | None = None) -> TableData:
    """Read a table's CSV into columnar arrays.

    The header row must contain exactly the declared columns.  Empty cells
    are recorded as nulls, and so are REAL cells that parse to NaN; a REAL
    cell that parses to an infinity is refused, both as in every
    `TableData`.  An unparseable cell or an INTEGER cell outside int64 is
    an error naming row and column.  A table of INTEGER columns whose header is its first line and
    whose body is plain digits, '-', ',' and line ends is read by numpy from
    the file's path; every other file is read cell by cell, with the same
    result.
    """
    if path is None:
        path = tdef.source
        if not os.path.isabs(path):
            path = os.path.join(schema.base_dir, path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path!r}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path!r} is not valid UTF-8: {exc}") from exc
    end = text.find("\n") + 1
    first = text[:end]
    if end and '"' not in first and "\r" not in first.removesuffix("\r\n"):
        # the header is the first line, so the body starts after the first \n
        header, body = next(csv.reader([first])), raw[raw.find(b"\n") + 1:]
        records = None
    else:  # newline="" splits records as RFC 4180 does
        records = csv.reader(io.StringIO(text, newline=""))
        header, body = next(records, None), None
    if header is None:
        raise IngestError(f"{path!r} is empty, expected a header row")
    declared = [c.name for c in tdef.columns]
    missing = set(declared) - set(header)
    if missing:
        raise IngestError(
            f"table {tdef.name!r}: missing column(s) {sorted(missing)} in {path!r}")
    extra = set(header) - set(declared)
    if extra:
        raise IngestError(
            f"table {tdef.name!r}: undeclared column(s) {sorted(extra)} in {path!r}")
    col_pos = {name: header.index(name) for name in declared}
    rows = None if body is None else _plain_integer_rows(
        tdef, path, body, len(header))
    if rows is None:
        if records is None:
            records = csv.reader(io.StringIO(text[end:], newline=""))
        return _ingest_cells(tdef, col_pos, len(header), records)
    by_column = np.ascontiguousarray(rows.T)
    return TableData(
        name=tdef.name,
        columns={name: by_column[col_pos[name]] for name in declared},
        null_mask={name: np.zeros(len(rows), dtype=bool) for name in declared},
        row_count=len(rows))


_PLAIN_INTEGER_BYTES = b"0123456789-,\r\n"
# numpy opens a path with one of these extensions through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _plain_integer_rows(tdef: TableDef, path: str, body: bytes,
                        width: int) -> np.ndarray | None:
    """The `body` of the file at `path`, the bytes after its one-line
    header, as an int64 array of `width` columns when every column is
    INTEGER and the body is ASCII digits, '-', ',' and \\n or \\r\\n line
    ends, every line a row of int64 values; None otherwise, for
    `_ingest_cells` to read (and to report on).  numpy reads the file again
    from its path, in C, skipping the header line."""
    if (not all(c.kind == KIND_INTEGER for c in tdef.columns)
            or path.endswith(_COMPRESSED)):
        return None
    # a blank first line is refused here because loadtxt warns when no line
    # holds data
    if body[:1] in (b"", b"\r", b"\n") or body.translate(None, _PLAIN_INTEGER_BYTES):
        return None
    codes = np.frombuffer(body, dtype=np.uint8)
    cr, lf = codes == ord("\r"), codes == ord("\n")
    # a lone \r ends a csv record, and the line count below counts \n only
    if np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & lf[1:]):
        return None
    try:
        rows = np.loadtxt(os.path.abspath(path), delimiter=",",
                          dtype=np.int64, comments=None, ndmin=2, skiprows=1,
                          encoding="utf-8")
    except ValueError:  # an empty cell, a stray '-', a value past int64, ...
        return None
    # loadtxt skips blank lines, which the cell loop rejects
    lines = np.count_nonzero(lf) + (codes[-1] != ord("\n"))
    return rows if rows.shape == (lines, width) else None


def _ingest_cells(tdef: TableDef, col_pos: dict[str, int], width: int,
                  reader) -> TableData:
    """Read the body rows of `reader` cell by cell."""
    raw: dict[str, list] = {name: [] for name in col_pos}
    nulls: dict[str, list] = {name: [] for name in col_pos}
    n = 0
    for rownum, row in enumerate(reader, start=1):
        if len(row) != width:
            raise IngestError(
                f"table {tdef.name!r}: row {rownum} has {len(row)} cells, "
                f"expected {width}")
        n += 1
        for cdef in tdef.columns:
            cell = row[col_pos[cdef.name]]
            if cell == "":
                nulls[cdef.name].append(True)
                raw[cdef.name].append(_null_placeholder(cdef.kind))
                continue
            nulls[cdef.name].append(False)
            raw[cdef.name].append(_parse_cell(cell, cdef, tdef.name, rownum))

    columns = {}
    null_mask = {}
    for cdef in tdef.columns:
        if cdef.kind == KIND_INTEGER:
            columns[cdef.name] = np.asarray(raw[cdef.name], dtype=np.int64)
        elif cdef.kind == KIND_REAL:
            columns[cdef.name] = np.asarray(raw[cdef.name], dtype=np.float64)
        else:
            columns[cdef.name] = np.asarray(raw[cdef.name], dtype=object)
        null_mask[cdef.name] = np.asarray(nulls[cdef.name], dtype=bool)
    return TableData(name=tdef.name, columns=columns, null_mask=null_mask, row_count=n)


def _null_placeholder(kind: str):
    if kind == KIND_INTEGER:
        return 0
    if kind == KIND_REAL:
        return float("nan")
    return ""


def _parse_cell(cell: str, cdef: ColumnDef, table: str, rownum: int):
    if cdef.kind == KIND_CATEGORICAL:
        return cell
    # int() and float() alone would also read '1_0' and non-ASCII digits
    if cell.isascii() and "_" not in cell:
        try:
            value = int(cell) if cdef.kind == KIND_INTEGER else float(cell)
        except ValueError:
            pass
        else:
            if cdef.kind == KIND_REAL or -2 ** 63 <= value < 2 ** 63:
                return value
            raise IngestError(
                f"table {table!r}: row {rownum}, column {cdef.name!r}: "
                f"{cell!r} is outside the int64 range")
    raise IngestError(
        f"table {table!r}: row {rownum}, column {cdef.name!r}: "
        f"cannot parse {cell!r} as {cdef.kind}")


def write_table_csv(data: TableData, tdef: TableDef, path: str) -> None:
    """Serialize a TableData back to RFC-4180 CSV (nulls become empty cells)."""
    names = [c.name for c in tdef.columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(data.row_count):
            row = []
            for cdef in tdef.columns:
                if data.null_mask[cdef.name][i]:
                    row.append("")
                else:
                    v = data.columns[cdef.name][i]
                    if cdef.kind == KIND_INTEGER:
                        row.append(str(int(v)))
                    elif cdef.kind == KIND_REAL:
                        row.append(repr(float(v)))
                    else:
                        row.append(str(v))
            writer.writerow(row)


def equi_width_bins(values, lo: float, hi: float, count: int) -> np.ndarray:
    """Bin of each value among `count` equi-width bins over [lo, hi]: the
    floor of (v - lo) / ((hi - lo) / count), clipped to [0, count - 1] before
    the int64 cast (a quotient past int64 would wrap around)."""
    idx = np.floor((np.asarray(values, dtype=np.float64) - lo)
                   / ((hi - lo) / count))
    return np.clip(idx, 0, count - 1).astype(np.int64)


def value_span(columns) -> tuple[float, float]:
    """[lo, hi] over the values of `columns` (arrays without nulls): no values
    give [0, 1], a single value one unit of width (one ulp where lo + 1
    rounds back to lo)."""
    lo, hi = np.inf, -np.inf
    for vals in columns:
        if len(vals):
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
    if lo > hi:
        return 0.0, 1.0
    if hi == lo:
        hi = max(lo + 1.0, float(np.nextafter(lo, np.inf)))
    return lo, hi


@dataclass
class KeyDomain:
    """One connected component of the PK/FK column graph.  Every histogram
    over it shares its `bin_count` equi-width bins over [lo, hi], so a bin
    index means the same key range in every histogram and selectivity."""

    id: str
    columns: frozenset[str]
    lo: float = 0.0
    hi: float = 0.0
    bin_count: int = 0

    def set_boundaries(self, lo: float, hi: float, bin_count: int) -> None:
        if bin_count < 1:
            raise SchemaError("bin_count must be >= 1")
        if not hi > lo:
            raise SchemaError(f"domain {self.id!r} bounds [{lo}, {hi}] "
                              "have no width")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bin_count = int(bin_count)

    def bins_of(self, values: np.ndarray) -> np.ndarray:
        """Bin of each key; a key outside [lo, hi], or NaN, raises
        DomainBoundsError."""
        v = np.asarray(values, dtype=np.float64)
        # NaN compares false, so it fails the test the right way round
        if len(v) and not (v.min() >= self.lo and v.max() <= self.hi):
            bad = float(v[~((v >= self.lo) & (v <= self.hi))][0])
            raise DomainBoundsError(
                f"value {bad!r} outside domain {self.id!r} bounds "
                f"[{self.lo}, {self.hi}]")
        return equi_width_bins(v, self.lo, self.hi, self.bin_count)


def infer_key_domains(schema: Schema) -> list[KeyDomain]:
    """Union-find over FK edges; one domain per component with >= 2 columns.

    Template join edges must stay within a single inferred domain, otherwise
    the schema is inconsistent.
    """
    parent: dict[str, str] = {}
    for frm, to in schema.foreign_keys:
        ra, rb = find_root(parent, frm), find_root(parent, to)
        # the least column is the root, whatever the edge order
        parent[max(ra, rb)] = min(ra, rb)

    components: dict[str, set[str]] = {}
    for col in parent:
        components.setdefault(find_root(parent, col), set()).add(col)

    domains = []
    for root in sorted(components):
        members = components[root]
        if len(members) < 2:
            continue
        domains.append(KeyDomain(id=min(members), columns=frozenset(members)))

    by_column = {c: d for d in domains for c in d.columns}
    for template in schema.templates:
        for a, b in template:
            da, db = by_column.get(a), by_column.get(b)
            if da is None or db is None or da.id != db.id:
                raise SchemaError(
                    f"template edge {a}={b} does not join columns of one key domain")
    return domains


def set_domain_boundaries(domains: list[KeyDomain],
                          tables: dict[str, TableData],
                          bin_count: int) -> None:
    """Compute global min/max over all member columns and fix equi-width bins."""
    for dom in domains:
        dom.set_boundaries(*value_span(
            tables[t].non_null(c)
            for t, c in map(split_qualified, dom.columns)), bin_count)


def is_categorical(cdef: ColumnDef, values: np.ndarray, threshold: int) -> bool:
    """The class rule of a non-key column: categorical when declared so (kind
    or manual flag), or when its non-null `values` hold fewer than
    `threshold` distinct values.  The count looks at prefixes of four times
    the length of the one before, and stops at the first that holds
    `threshold` distinct values."""
    if cdef.kind == KIND_CATEGORICAL or cdef.categorical:
        return True
    n = threshold
    while True:
        head = values[:n]
        if (len(set(head.tolist())) if head.dtype == object
                else len(np.unique(head))) >= threshold:
            return False
        if n >= len(values):
            return True
        n *= 4
