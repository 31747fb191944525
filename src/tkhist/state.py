"""Built estimator state: every histogram for a schema, batch updates, and
(de)serialization.

The state file is a single self-describing JSON document.  All counts are
exact integers and every collection is written in sorted order, so saving the
same state twice is byte-identical.  Version 9 stores each 1D histogram as
flat per-histogram arrays with per-bin offsets, container and background
keys each in key order, each 2D grid as its non-zero cells and each
correlation-map section as columns; every numeric array is one packed string
(`_pack`) of byte planes, an integer array at the narrowest width that holds
its stored values, and every integer key and index array (keys, offsets,
cells) is delta-coded.  A bridge, the two grids between two key columns of
one table, is stored once, as the entry whose name sorts first; loading
builds the other direction as the transpose.  Loading or saving the 1D and
correlation arrays, kept as they are in memory, builds no per-key object (a
set envelope excepted).
The file stores only what the data decided; loading derives the rest:
domain members from the schema, every bin count from `config.bin_count`, a
histogram's domain from the key column in its name, a column's class from
whether it has a `freq` entry, and each attribute axis by `_attr_axis`, the
rule that also picks it at build: a key column's domain, a categorical
column's sorted `freq` values, or else a domain of no members over the
`lo` and `hi` that the 2D entry writes.  A grid's `shape` is kept as a
check on its axis.  Loading checks the type of every entry, the sign of
every count, every length, offset and cell, that each 1D histogram's keys
are sorted, distinct and in their bins, that no `freq` entry repeats a
value, that a bridge is stored once, that every entry name fits the schema
and that no required entry is missing (`check_complete`); older versions
are rejected.

Each table owns some entries of the document: its `hists1d` and `freq`
entries (named `table.column`), its `hists2d` entries (`table.key|attr`),
its `correlations` sections (`table|domain|attr`) and `table_rows[table]`.
Every other entry (config, schema, domains) is global.  A batch update
changes only its table's entries, so `load_state(..., table=)` decodes and
checks just those, the global entries and `table_rows`, and keeps the
document.  Its save encodes that table's entries, takes the rest unread
from the document and refuses a file that no longer holds it; the state
refuses an estimate and another table's batch (`check_complete`).
"""
from __future__ import annotations

import base64
import json
import math
import os
import tempfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import catalog
from .catalog import KeyDomain, Schema, TableData, split_qualified, value_span
from .djpcd import Envelopes
from .errors import DomainBoundsError, SchemaError, StateError
from .histcore import (TKHist1D, TKHist2D, _sorted_positions,
                       add_value_counts, axis_length, build_tkhist1d,
                       build_tkhist2d)

STATE_MAGIC = "TKHIST-STATE-v1"
STATE_VERSION = 9

DEFAULT_BIN_COUNT = 200
DEFAULT_TOP_K = 20


@dataclass
class BuildConfig:
    bin_count: int = DEFAULT_BIN_COUNT
    top_k: int = DEFAULT_TOP_K


@dataclass
class EstimatorState:
    schema: Schema
    config: BuildConfig
    domains: dict[str, KeyDomain]
    column_domain: dict[str, str]  # "table.column" -> domain id
    hists1d: dict[tuple[str, str], TKHist1D]
    hists2d: dict[tuple[str, str, str], TKHist2D]
    freq_hists: dict[tuple[str, str], dict]  # the categorical columns
    table_rows: dict[str, int]
    # {(table, domain_id, attr): djpcd.Envelopes}, each section the sorted
    # dominant keys and their envelopes as columns; built by djpcd
    correlations: dict | None = None
    # (table, document) when `load_state(..., table=)` made the state: it
    # holds that table's histograms alone, and writes the document back
    # with them (`state_to_document`); None when it holds every table's
    source: tuple[str, dict] | None = None

    def key_columns(self, table: str) -> list[str]:
        tdef = self.schema.table(table)
        return [c.name for c in tdef.columns
                if f"{table}.{c.name}" in self.column_domain]


def build_state(schema: Schema, tables: dict[str, TableData],
                config: BuildConfig | None = None) -> EstimatorState:
    """Build all histograms for a schema over already-ingested table data.

    Correlation discovery is a separate pass (estimator.discover_correlations)
    because it re-runs the join pipeline over the longest templates.
    """
    config = config or BuildConfig()

    domains = {d.id: d for d in catalog.infer_key_domains(schema)}
    catalog.set_domain_boundaries(list(domains.values()), tables,
                                  config.bin_count)
    column_domain = {c: d.id for d in domains.values() for c in d.columns}

    hists1d: dict[tuple[str, str], TKHist1D] = {}
    hists2d: dict[tuple[str, str, str], TKHist2D] = {}
    freq_hists: dict[tuple[str, str], dict] = {}
    table_rows: dict[str, int] = {}

    for tdef in schema.tables:
        t, data = tdef.name, tables[tdef.name]
        table_rows[t] = data.row_count
        # a column is categorical exactly when it has a frequency histogram
        for name in catalog.categorical_columns(
                data, tdef, schema.categorical_threshold):
            freq_hists[(t, name)] = add_value_counts({}, data.non_null(name))
        key_domain = {c.name: domains[column_domain[f"{t}.{c.name}"]]
                      for c in tdef.columns
                      if f"{t}.{c.name}" in column_domain}
        for kc, dom in key_domain.items():
            hists1d[(t, kc)] = build_tkhist1d(
                data.columns[kc], dom, config.top_k,
                null_mask=data.null_mask[kc])
            for cdef in tdef.columns:
                if cdef.name != kc:
                    hists2d[(t, kc, cdef.name)] = build_tkhist2d(
                        data.columns[kc], data.columns[cdef.name], dom,
                        _attr_axis(
                            f"{t}.{cdef.name}", key_domain.get(cdef.name),
                            freq_hists.get((t, cdef.name)), config.bin_count,
                            lambda: value_span([data.non_null(cdef.name)])),
                        key_nulls=data.null_mask[kc],
                        attr_nulls=data.null_mask[cdef.name])

    return EstimatorState(
        schema=schema, config=config, domains=domains,
        column_domain=column_domain, hists1d=hists1d, hists2d=hists2d,
        freq_hists=freq_hists, table_rows=table_rows, correlations=None)


def check_complete(state: EstimatorState, table: str | None = None) -> None:
    """Raise StateError naming the first entry that `table` (every table,
    when None) must have and `state` lacks: a 1D histogram of each key
    column, and a 2D histogram of each key column with each other column of
    its table (named as the file stores it).  A state loaded for one table
    lacks every other table's entries."""
    if state.source and state.source[0] != table:
        raise StateError(f"state was loaded to update table "
                         f"{state.source[0]!r} only")
    for tdef in state.schema.tables:
        t = tdef.name
        if table not in (None, t):
            continue
        for kc in state.key_columns(t):
            if (t, kc) not in state.hists1d:
                raise StateError(f"state has no 1D histogram '{t}.{kc}'")
            for cdef in tdef.columns:
                if cdef.name != kc and (t, kc, cdef.name) not in state.hists2d:
                    name = (_stored_twin(t, kc, cdef.name, state.column_domain)
                            or f"{t}.{kc}|{cdef.name}")
                    raise StateError(f"state has no 2D histogram {name!r}")


def _attr_axis(qual: str, attr_domain: KeyDomain | None, freq: dict | None,
               bin_count: int, span) -> KeyDomain | list:
    """The attribute axis of a 2D histogram over column `qual`, at build and
    at load: its key domain `attr_domain` when it is in one; else, when it
    is categorical, the sorted values of its frequency histogram `freq`;
    else a memberless domain of `bin_count` bins over the (lo, hi) of
    `span()`, whose width `set_boundaries` checks."""
    if attr_domain is not None:
        return attr_domain
    if freq is not None:
        return sorted(freq)
    axis = KeyDomain(id=qual, columns=frozenset())
    axis.set_boundaries(*span(), bin_count)
    return axis


def ingest_all(schema: Schema) -> dict[str, TableData]:
    return {t.name: catalog.ingest_table(t, schema) for t in schema.tables}


def apply_rows(state: EstimatorState, table: str,
               data: TableData) -> tuple[int, int]:
    """Add one batch of new rows of `table` to every histogram over it.

    A row is accepted when each of its non-null keys lies inside its key
    domain's bounds; a rejected row changes nothing.  Each histogram takes
    its accepted, non-null values in one call.  Frequency histograms count
    first; each categorical grid then widens onto its column's sorted
    values, as a rebuild would bin them.  A column that the batch takes to
    `categorical_threshold` distinct values becomes numeric, as a rebuild
    would make it (`catalog.is_categorical`): its frequency histogram goes,
    and its grids widen onto the numeric axis over its values.  Container
    membership stays as built and the correlation map is not maintained.
    Returns (inserted, rejected).
    """
    check_complete(state, table)
    tdef = state.schema.table(table)
    key_cols = state.key_columns(table)
    accept = np.ones(data.row_count, dtype=bool)
    for kc in key_cols:
        dom = state.domains[state.column_domain[f"{table}.{kc}"]]
        v = data.columns[kc].astype(np.float64)
        accept &= data.null_mask[kc] | ((v >= dom.lo) & (v <= dom.hi))
    valid = {c.name: accept & ~data.null_mask[c.name] for c in tdef.columns}
    axes = {}  # categorical column -> its values, sorted, or numeric axis
    for cdef in tdef.columns:
        fh = state.freq_hists.get((table, cdef.name))
        if fh is None:
            continue
        add_value_counts(fh, data.columns[cdef.name][valid[cdef.name]])
        values = sorted(fh)
        if catalog.is_categorical(cdef, np.asarray(values),
                                  state.schema.categorical_threshold):
            axes[cdef.name] = values
        else:  # past the threshold: numeric, as a rebuild would make it
            del state.freq_hists[(table, cdef.name)]
            axes[cdef.name] = _attr_axis(
                f"{table}.{cdef.name}", None, None, state.config.bin_count,
                lambda: value_span([np.asarray(values)]))
    for kc in key_cols:
        keys = data.columns[kc]
        state.hists1d[(table, kc)].insert(keys[valid[kc]])
        for cdef in tdef.columns:
            if cdef.name != kc:
                h2 = state.hists2d[(table, kc, cdef.name)]
                if cdef.name in axes:
                    h2.widen(axes[cdef.name])
                both = valid[kc] & valid[cdef.name]
                h2.insert(keys[both], data.columns[cdef.name][both])
    inserted = int(accept.sum())
    state.table_rows[table] += inserted
    return inserted, data.row_count - inserted


# ---------------------------------------------------------------------------
# serialization

_ZLIB_LEVEL = 1
_INT_TAGS = {tag: np.iinfo(tag) for tag in ("i1", "i2", "i4", "i8")}
_STORED = {tag: f"<{tag}" for tag in (*_INT_TAGS, "f8")}  # -> stored dtype
_EXPECTED = {"i": "i8 or narrower", "f": "f8", None: "i8 or narrower, or f8"}


def _pack(values, delta: bool = False) -> str:
    """A numeric array as written: its dtype tag, a colon, then its
    little-endian bytes as byte planes (every value's first byte, then every
    value's second byte, and so on), zlib-compressed and base64-coded.  A
    real array is tagged `f8`; an integer array is stored at the narrowest
    of `i1`, `i2`, `i4` and `i8` that holds its stored values, so its high
    planes are mostly runs of 0 or 0xff bytes that zlib shrinks.  With
    `delta`, an integer array is stored as each value minus the one before
    it (wrapping in int64, as the cumsum that undoes it does); real values
    are stored as they are, since a float cumsum would not round-trip.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        tag = "f8"
    else:
        a = a.astype(np.int64, copy=False)
        if delta:
            a = np.diff(a, prepend=0)
        tag = _narrowest(a)
    stored = a.astype(_STORED[tag])
    planes = stored.view(np.uint8).reshape(len(stored), stored.itemsize).T
    body = base64.b64encode(zlib.compress(planes.tobytes(), _ZLIB_LEVEL))
    return f"{tag}:{body.decode('ascii')}"


def _narrowest(a: np.ndarray) -> str:
    """The narrowest integer tag whose width holds every value of `a`."""
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    return next(tag for tag, bounds in _INT_TAGS.items()
                if bounds.min <= lo and hi <= bounds.max)


def _unpack(doc: dict, where: str, name: str, kind: str | None = "i",
            delta: bool = False, counts: bool = False) -> np.ndarray:
    """The array that `_pack` wrote to `doc[name]`, as a writable int64 or
    float64 array: `kind` "i" takes an integer tag of any width, "f" the
    real tag and None either; with `counts`, none of its values negative."""
    found, _, body = _get(doc, where, name, "a string").partition(":")
    if found not in _STORED or kind not in (None, found[0]):
        raise StateError(f"{where}: {name!r} has dtype tag {found!r}, "
                         f"expected {_EXPECTED[kind]}")
    try:
        raw = zlib.decompress(base64.b64decode(body, validate=True))
    except (ValueError, zlib.error) as exc:
        raise StateError(f"{where}: {name!r} is not a packed array "
                         f"({exc})") from exc
    width = np.dtype(_STORED[found]).itemsize
    if len(raw) % width:
        raise StateError(f"{where}: {name!r} unpacks to {len(raw)} bytes, "
                         f"not a multiple of {width}")
    planes = np.frombuffer(raw, np.uint8).reshape(width, -1)
    stored = planes[0]  # one plane is the values' own bytes
    if width > 1:  # a plane at a time: numpy's transposing copy is slower
        stored = np.empty((planes.shape[1], width), np.uint8)
        for i, plane in enumerate(planes):
            stored[:, i] = plane
    values = stored.view(_STORED[found]).reshape(-1).astype(
        f"{found[0]}8", copy=False)
    if counts and np.any(values < 0):
        raise StateError(f"{where}: {name!r} has a negative count")
    return np.cumsum(values) if delta and found[0] == "i" else values


def _list_of(v, test) -> bool:
    return isinstance(v, list) and all(map(test, v))


_KINDS = {  # what a document entry must be, by the words naming it in errors
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "a count": lambda v: type(v) is int and v >= 0,
    "a finite number": lambda v: (type(v) in (int, float)
                                  and -math.inf < v < math.inf),
    "a scalar": lambda v: type(v) is str or _KINDS["a finite number"](v),
    "a list of scalars": lambda v: _list_of(v, _KINDS["a scalar"]),
    "a list of scalar lists": lambda v: _list_of(
        v, _KINDS["a list of scalars"]),
    "a list of [value, count] pairs": lambda v: _list_of(v, lambda p: (
        isinstance(p, (list, tuple)) and len(p) == 2
        and _KINDS["a scalar"](p[0]) and _KINDS["a count"](p[1]))),
}


def _fields(doc: dict, where: str, **kinds) -> list:
    """The entries of `doc` named in `kinds`, each of its kind (a key of
    `_KINDS`)."""
    for name, kind in kinds.items():
        if name not in doc:
            raise StateError(f"{where} has no {name!r} entry")
        if not _KINDS[kind](doc[name]):
            raise StateError(f"{where}: {name!r} is not {kind}")
    return [doc[name] for name in kinds]


def _get(doc: dict, where: str, name: str, kind: str = "an object"):
    return _fields(doc, where, **{name: kind})[0]


def _hist1d_doc(h: TKHist1D) -> dict:
    """The histogram's arrays as they are in memory, keys in key order."""
    return {"topk_keys": _pack(h.topk_keys, delta=True),
            "topk_counts": _pack(h.topk_counts),
            "topk_offsets": _pack(h.topk_offsets, delta=True),
            "nv": _pack(h.nv),
            "background": _pack(h.background, delta=True),
            "background_offsets": _pack(h.background_offsets, delta=True)}


def _hist2d_doc(h: TKHist2D) -> dict:
    """The grid's shape, its non-zero cells (flat indices) and their counts,
    and what the data alone decided of its attribute axis: lo and hi of a
    numeric axis outside every key domain."""
    a, flat = h.attr, h.grid.ravel()
    cells = np.flatnonzero(flat)
    axis = ({"lo": a.lo, "hi": a.hi}
            if isinstance(a, KeyDomain) and not a.columns else {})
    return {"shape": list(h.grid.shape), **axis,
            "cells": _pack(cells, delta=True), "counts": _pack(flat[cells])}


def _correlation_doc(section: Envelopes) -> dict:
    """The section's columns: its keys, then `lo` and `hi` or `values`."""
    doc = {"keys": _pack(section.keys, delta=True)}
    if section.values is not None:
        return {**doc, "values": [sorted(vals) for vals in section.values]}
    return {**doc, "lo": _pack(section.lo), "hi": _pack(section.hi)}


def _freq_doc(fh: dict) -> list:
    """[value, count] pairs, in the order of the values' reprs (the values
    of one column can mix types); lists, as the file reads back."""
    return sorted(map(list, fh.items()), key=lambda kv: repr(kv[0]))


# per-table section -> (EstimatorState field, entry name of a key, encoder)
_TABLE_SECTIONS = {
    "hists1d": ("hists1d", "{}.{}", _hist1d_doc),
    "hists2d": ("hists2d", "{}.{}|{}", _hist2d_doc),
    "freq": ("freq_hists", "{}.{}", _freq_doc),
    "correlations": ("correlations", "{}|{}|{}", _correlation_doc),
    "table_rows": ("table_rows", "{}", int),
}


def _owned_by(name: str, table: str | None) -> bool:
    """Whether the per-table entry `name` is `table`'s (any table's, when
    None): the name is the table's own or starts with it and a "." or "|"."""
    return (table is None or name == table
            or name.startswith((f"{table}.", f"{table}|")))


def _stored_twin(table: str, key: str, attr: str, key_columns) -> str | None:
    """None, unless the 2D histogram (table, key, attr) is the direction of
    a bridge that the file leaves out: `attr` is a key column too (one of
    `key_columns`) and the other direction's entry name, returned, sorts
    first."""
    twin = f"{table}.{attr}|{key}"
    return (twin if f"{table}.{attr}" in key_columns
            and twin < f"{table}.{key}|{attr}" else None)


def _table_entries(state: EstimatorState, table: str) -> dict[str, dict]:
    """The encoded document entries that `table` owns, by section and entry
    name: those whose key is `table` or starts with it, but the direction
    of a bridge that the file leaves out."""
    owned = {}
    for sec, (field, name, encode) in _TABLE_SECTIONS.items():
        if getattr(state, field) is None:
            continue
        owned[sec] = {}
        for key, value in getattr(state, field).items():
            key = key if isinstance(key, tuple) else (key,)
            if key[0] != table or (sec == "hists2d" and _stored_twin(
                    *key, state.column_domain)):
                continue
            owned[sec][name.format(*key)] = encode(value)
    return owned


def _global_entries(state: EstimatorState) -> dict:
    """The document entries that no table owns."""
    return {
        "magic": STATE_MAGIC,
        "version": STATE_VERSION,
        "config": asdict(state.config),
        "schema": state.schema.document,
        "schema_base_dir": state.schema.base_dir,
        "domains": {d.id: {"lo": d.lo, "hi": d.hi}
                    for d in state.domains.values()},
    }


def state_to_document(state: EstimatorState) -> dict:
    """The whole document of `state`; an absent correlation map is None.
    A state loaded for one table encodes only that table's entries and
    takes every other table's from the document it was loaded from."""
    doc = _global_entries(state)
    if state.source is None:
        check_complete(state)
        tables = [tdef.name for tdef in state.schema.tables]
        for sec, (field, _, _) in _TABLE_SECTIONS.items():
            doc[sec] = None if getattr(state, field) is None else {}
    else:
        table, source = state.source
        check_complete(state, table)
        tables = [table]
        for sec in _TABLE_SECTIONS:
            doc[sec] = source.get(sec) and {
                name: entry for name, entry in source[sec].items()
                if not _owned_by(name, table)}
    for t in tables:
        for sec, entries in _table_entries(state, t).items():
            doc[sec].update(entries)
    return doc


def save_state(state: EstimatorState, path: str) -> int:
    """Atomically write the state file; returns its size in bytes.

    A state loaded for one table writes over the file it was loaded from:
    unless `path` still holds the document it loaded, StateError is raised
    and neither the file nor its directory changes.  So any change to the
    file since that load, another table's update included, fails the save
    rather than being lost.  The document written becomes the state's
    source, so the state can be saved again.  A file that cannot be
    written raises StateError and leaves no temporary file.
    """
    if state.source and _read_document(path) != state.source[1]:
        raise StateError(f"{path!r} no longer holds the document the state "
                         f"was loaded from")
    doc = state_to_document(state)
    payload = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tkhist-state-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise StateError(f"cannot write state file {path!r}: "
                         f"{exc.strerror}") from exc
    if state.source:
        state.source = (state.source[0], doc)
    return len(payload)


def _read_document(path: str):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise StateError(f"cannot read state file {path!r}: {exc}") from exc
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise StateError(f"corrupt state file {path!r}: {exc}") from exc


def load_state(path: str, table: str | None = None) -> EstimatorState:
    """The state in the file at `path`; with `table`, only that table's,
    which `save_state` writes back to `path` (see `state_from_document`)."""
    return state_from_document(_read_document(path), table)


def state_from_document(doc: dict,
                        table: str | None = None) -> EstimatorState:
    """The state a document describes, its every entry checked.  With
    `table`, only the global entries, `table_rows` and the entries that
    `table` owns are decoded and checked; the state holds no other table's
    histograms and keeps `doc` as its source, and so can take a batch of
    `table` and be saved over `doc`, but refuses an estimate."""
    if not isinstance(doc, dict) or doc.get("magic") != STATE_MAGIC:
        raise StateError("unrecognized state file")
    version = doc.get("version")
    if version in (1, 2, 3, 4, 5, 6, 7, 8):
        raise StateError(f"state version {version} is no longer read; "
                         f"rebuild the state with `tkhist build`")
    if version != STATE_VERSION:
        raise StateError(f"unsupported state version {version!r}")
    try:
        return _state_from_v9(doc, table)
    except SchemaError as exc:
        raise StateError(f"state document: {exc}") from exc


def _state_from_v9(doc: dict, table: str | None) -> EstimatorState:
    cdoc, schema_doc, base_dir = _fields(
        doc, "state document", config="an object", schema="an object",
        schema_base_dir="a string")
    bin_count, top_k = _fields(cdoc, "config", bin_count="a count",
                               top_k="a count")
    config = BuildConfig(bin_count=bin_count, top_k=top_k)
    schema = catalog.schema_from_document(schema_doc, base_dir=base_dir)
    if table is not None and not schema.has_table(table):
        raise StateError(f"unknown table {table!r}")

    domains = {d.id: d for d in catalog.infer_key_domains(schema)}
    bounds = dict(_entries(doc, "domains"))
    if sorted(bounds) != sorted(domains):
        raise StateError(f"domains {sorted(bounds)} are not the schema's "
                         f"key domains {sorted(domains)}")
    for did, d in bounds.items():
        domains[did].set_boundaries(*_fields(
            d, f"domain {did!r}", lo="a finite number", hi="a finite number"),
            bin_count)
    column_domain = {c: d.id for d in domains.values() for c in d.columns}
    key_domains = {c: domains[did] for c, did in column_domain.items()}
    columns = {f"{t.name}.{c.name}": c for t in schema.tables
               for c in t.columns}

    def key_domain(where: str, qual: str) -> KeyDomain:
        if qual not in key_domains:
            raise StateError(f"{where}: {qual!r} is not a key column")
        return key_domains[qual]

    hists1d = {}
    for qual, h in _entries(doc, "hists1d", table=table):
        where = f"1D histogram {qual!r}"
        dom = key_domain(where, qual)
        t, c = split_qualified(qual)
        integer = schema.table(t).column(c).kind == catalog.KIND_INTEGER
        hists1d[(t, c)] = _hist1d_from_doc(where, h, dom,
                                           "i" if integer else "f")
    freq = {}
    for qual, items in _entries(doc, "freq", "a list of [value, count] pairs",
                                table):
        where = f"frequency histogram {qual!r}"
        if qual not in columns or columns[qual].role == catalog.ROLE_KEY:
            raise StateError(f"{where} is not on a non-key column")
        counts = dict(items)
        if len(counts) != len(items):
            raise StateError(f"{where} repeats a value")
        if len({type(v) is str for v in counts}) > 1:
            raise StateError(f"{where} mixes strings and numbers")
        freq[split_qualified(qual)] = counts
    hists2d = {}
    for name, h in _entries(doc, "hists2d", table=table):
        where = f"2D histogram {name!r}"
        qual, _, attr = name.partition("|")
        dom = key_domain(where, qual)
        t, c = split_qualified(qual)
        if attr == c or f"{t}.{attr}" not in columns:
            raise StateError(f"{where}: {attr!r} is not another column "
                             f"of table {t!r}")
        try:
            axis = _attr_axis(f"{t}.{attr}", key_domains.get(f"{t}.{attr}"),
                              freq.get((t, attr)), bin_count,
                              lambda: _fields(h, where, lo="a finite number",
                                              hi="a finite number"))
        except SchemaError as exc:
            raise StateError(f"{where}: {exc}") from exc
        twin = _stored_twin(t, c, attr, key_domains)
        if twin is not None:
            raise StateError(f"{where}: a bridge is stored once, as {twin!r}")
        h2 = hists2d[(t, c, attr)] = _hist2d_from_doc(where, h, dom, axis)
        if f"{t}.{attr}" in key_domains:  # a bridge: the other direction
            hists2d[(t, attr, c)] = TKHist2D(key_domain=axis, attr=dom,
                                             grid=h2.grid.T.copy())
    table_rows = dict(_entries(doc, "table_rows", "a count"))
    if sorted(table_rows) != sorted(t.name for t in schema.tables):
        raise StateError("table_rows does not name each schema table once")

    correlations = None
    if doc.get("correlations") is not None:
        correlations = {}
        for name, sec in _entries(doc, "correlations", table=table):
            where = f"correlation section {name!r}"
            if name.count("|") != 2:
                raise StateError(f"{where} is not named "
                                 f"table|domain|attribute")
            t, did, attr = name.split("|")
            if f"{t}.{attr}" not in columns:
                raise StateError(f"{where}: {attr!r} is not a column of "
                                 f"table {t!r}")
            if did not in domains or all(split_qualified(q)[0] != t
                                         for q in domains[did].columns):
                raise StateError(f"{where}: {did!r} is not the key domain "
                                 f"of a column of table {t!r}")
            correlations[(t, did, attr)] = _envelopes_from_doc(where, sec)

    state = EstimatorState(
        schema=schema, config=config, domains=domains,
        column_domain=column_domain, hists1d=hists1d, hists2d=hists2d,
        freq_hists=freq, table_rows=table_rows, correlations=correlations,
        source=None if table is None else (table, doc))
    check_complete(state, table)
    return state


def _entries(doc: dict, section: str, kind: str = "an object",
             table: str | None = None) -> list:
    """The (name, value) entries of a top-level section that `table` owns
    (every entry, when None), each value `kind`."""
    sec = _get(doc, "state document", section)
    return [(name, _get(sec, section, name, kind)) for name in sec
            if _owned_by(name, table)]


def _hist1d_from_doc(where: str, h: dict, dom: KeyDomain,
                     kind: str) -> TKHist1D:
    keys = _unpack(h, where, "topk_keys", kind, delta=True)
    counts, nv = (_unpack(h, where, name, counts=True)
                  for name in ("topk_counts", "nv"))
    background = _unpack(h, where, "background", kind, delta=True)
    n = dom.bin_count
    if len(nv) != n:
        raise StateError(f"{where} has {len(nv)} nv entries for {n} bins")
    if len(counts) != len(keys):
        raise StateError(f"{where} has {len(keys)} topk_keys "
                         f"and {len(counts)} topk_counts")
    tk = _checked_offsets(where, h, "topk_offsets", n, len(keys))
    offsets = _checked_offsets(where, h, "background_offsets", n,
                               len(background))
    # written so that a NaN, which compares false, fails them
    if not np.all(background[1:] > background[:-1]):
        raise StateError(f"{where} has unsorted background keys")
    if not np.all(keys[1:] > keys[:-1]):  # `insert` looks keys up by bisection
        raise StateError(f"{where} has unsorted or repeated container keys")
    if _sorted_positions(background, keys)[1].any():
        raise StateError(f"{where} has a key both in a container and in "
                         f"the background")
    # both key arrays are sorted, so each bin's first and last keys bound it
    ends, bins = [], []
    for values, bounds in ((keys, tk), (background, offsets)):
        held = np.flatnonzero(bounds[1:] > bounds[:-1])
        ends += [values[bounds[held]], values[bounds[held + 1] - 1]]
        bins += [held, held]
    try:
        outside = np.any(dom.bins_of(np.concatenate(ends))
                         != np.concatenate(bins))
    except DomainBoundsError:
        outside = True
    if outside:
        raise StateError(f"{where} has a key outside its bin")
    return TKHist1D(domain=dom, topk_keys=keys, topk_counts=counts,
                    topk_offsets=tk, nv=nv, background=background,
                    background_offsets=offsets)


def _checked_offsets(where: str, h: dict, field: str, bin_count: int,
                     length: int) -> np.ndarray:
    """CSR offsets that split `length` entries into `bin_count` bins."""
    offsets = _unpack(h, where, field, delta=True)
    if (len(offsets) != bin_count + 1 or offsets[0] != 0
            or offsets[-1] != length or np.any(offsets[1:] < offsets[:-1])):
        raise StateError(f"{where}: {field} do not split "
                         f"{length} entries into {bin_count} bins")
    return offsets


def _hist2d_from_doc(where: str, h: dict, dom: KeyDomain,
                     axis: KeyDomain | list) -> TKHist2D:
    shape = (dom.bin_count, axis_length(axis))
    if h.get("shape") != list(shape):
        raise StateError(f"{where} has shape {h.get('shape')}, "
                         f"expected {list(shape)}")
    cells = _unpack(h, where, "cells", delta=True)
    counts = _unpack(h, where, "counts", counts=True)
    if len(counts) != len(cells):
        raise StateError(f"{where} has {len(cells)} cells "
                         f"and {len(counts)} counts")
    if len(cells) and (cells[0] < 0 or cells[-1] >= shape[0] * shape[1]
                       or np.any(cells[1:] <= cells[:-1])):
        raise StateError(f"{where} has cells that are out "
                         f"of its {list(shape)} grid or unsorted")
    grid = np.zeros(shape, dtype=np.int64)
    grid.ravel()[cells] = counts
    return TKHist2D(key_domain=dom, attr=axis, grid=grid)


def _envelopes_from_doc(where: str, sec: dict) -> Envelopes:
    keys = _unpack(sec, where, "keys", None, delta=True)
    if np.any(keys[1:] <= keys[:-1]):
        raise StateError(f"{where} has unsorted or repeated keys")
    if "values" in sec:
        section = Envelopes(keys, values=list(map(frozenset, _get(
            sec, where, "values", "a list of scalar lists"))))
    else:  # `hi` in `lo`'s dtype, as `Envelopes.excludes` assumes
        lo = _unpack(sec, where, "lo", None)
        hi = _unpack(sec, where, "hi", lo.dtype.kind)
        section = Envelopes(keys, lo, hi)
    if {len(col) for col in (section.lo, section.hi, section.values)
            if col is not None} != {len(keys)}:
        raise StateError(f"{where} has columns of unequal length")
    return section
