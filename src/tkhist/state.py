"""Built estimator state: every histogram for a schema, batch updates, and
(de)serialization.

The state file is a single self-describing JSON document.  All counts are
exact integers and every collection is written in sorted order, so saving the
same state twice is byte-identical.  Version 11 stores each 1D histogram as
the flat arrays its constructor takes: container keys and counts, NV per
bin and background keys, each key array in key order.  Their per-bin
offsets follow from the keys' bins, so the histogram derives them; the file
keeps `background_offsets` only as a check on the background's length,
which no other array has, as a grid's `shape` checks its axis.  Each 2D
grid is stored as its non-zero cells and each correlation-map section as
columns; every numeric array is one packed string (`_pack`) of byte planes,
an integer array at the narrowest width that holds its stored values, and
every integer key and index array (keys, offsets, cells) is delta-coded.
A bridge, the two grids between two key columns of one table, is stored
once, as the entry whose name sorts first, and held as one grid: the other
direction is its view `grid.T`.  A correlation section is keyed and named
as the 2D histogram over its key column and attribute, a bridge in both
directions; the map is `{}` until discovery runs.  Loading or saving the 1D
and correlation arrays, kept as they are in memory, builds no per-key
object (a set envelope excepted).
The file stores only what the data decided; loading derives the rest:
domain members from the schema, every bin count from `config.bin_count`, a
histogram's domain from the key column in its name, a column's class from
whether it has a `freq` entry, and each attribute axis by `_attr_axis`, the
rule that also picks it at build and update: a key column's domain, a
categorical column's sorted `freq` values, or else a domain of no members
over the `lo` and `hi` that the 2D entry writes.  Loading checks the type
of every entry, the sign of every count, every length and cell, each 1D
histogram's arrays (`TKHist1D` checks its own), that no `freq` entry
repeats a value, and that the document holds every required entry and no
name that `entry_names` does not list; older versions are rejected.

`entry_names` is the one list of the per-table entry names, each with its
owning table and its key in memory.  A table owns its `hists1d` and `freq`
entries (named `table.column`), and its `hists2d` entries and
`correlations` sections (both `table.key|attr`).  `table_rows` and
every other entry (config, schema, domains) are global.  A batch update
changes only its table's entries, so `load_state(..., table=)` decodes and
checks just those and the global entries, checks every other entry's name
against the list, and keeps the document.  Its save encodes that table's
entries, copies the rest unread from the document and refuses a file that
no longer holds it; the state refuses an estimate and another table's
batch (`check_complete`).
"""
from __future__ import annotations

import base64
import json
import math
import os
import tempfile
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import catalog
from .catalog import KeyDomain, Schema, TableData, value_span
from .djpcd import Envelopes
from .errors import SchemaError, StateError, TKHistError
from .histcore import (TKHist1D, TKHist2D, add_value_counts, axis_length,
                       build_tkhist1d, build_tkhist2d)

STATE_MAGIC = "TKHIST-STATE-v1"
STATE_VERSION = 11

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
    # {(table, key column, attr): djpcd.Envelopes}, each section the sorted
    # dominant keys and their envelopes as columns; built by djpcd, {}
    # until it runs
    correlations: dict
    # (table, document) when `load_state(..., table=)` made the state: it
    # holds that table's histograms alone, and writes the document back
    # with them (`state_to_document`); None when it holds every table's
    source: tuple[str, dict] | None = None
    # what the estimate path derives from the state alone, the entries
    # that `estimator` lists and builds; each made on first use by
    # `derived`, never saved, and all dropped by `apply_rows`
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def derived(self, key: tuple, build):
        """`build()`, made on first use and kept in `cache` under `key`."""
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build()
        return value

    def key_columns(self, table: str) -> list[str]:
        tdef = self.schema.table(table)
        return [c.name for c in tdef.columns
                if f"{table}.{c.name}" in self.column_domain]


def entry_names(schema: Schema,
                column_domain: dict[str, str]) -> dict[str, dict]:
    """Every per-table entry name that a state of `schema` may hold, by
    section, each as (owning table, key in the state's field): the only
    code that knows the names.  Of each table `t`, required: its row count
    (`t`, owned by no one table, since every load reads them all), a 1D
    histogram `t.key` of each key column and a 2D histogram `t.key|column`
    of each key column with each other column, a bridge (both columns key
    columns) listed once, under the name that sorts first; optional: a
    frequency histogram `t.column` of each non-key column and a correlation
    section of each key column with each other column, under the 2D
    histogram's key and name, a bridge in both directions.  `column_domain`
    maps each key column, as `table.column`, to its domain."""
    names = {sec: {} for sec in _SECTIONS}
    for tdef in schema.tables:
        t, columns = tdef.name, [c.name for c in tdef.columns]
        names["table_rows"][t] = (None, t)
        keys = [c for c in columns if f"{t}.{c}" in column_domain]
        for c in columns:
            if c not in keys:
                names["freq"][f"{t}.{c}"] = (t, (t, c))
        for k in keys:
            names["hists1d"][f"{t}.{k}"] = (t, (t, k))
            for c in (c for c in columns if c != k):
                name = f"{t}.{k}|{c}"
                names["correlations"][name] = (t, (t, k, c))
                if not (c in keys and f"{t}.{c}|{k}" < name):
                    names["hists2d"][name] = (t, (t, k, c))
    return names


def build_state(schema: Schema, tables: dict[str, TableData],
                config: BuildConfig | None = None) -> EstimatorState:
    """Build all histograms for a schema over already-ingested table data,
    a table at a time: each column's non-null values, read once, give its
    class, its frequency histogram, its attribute axis and its 1D
    histogram; each 2D histogram counts the rows valid on both its columns.

    Correlation discovery is a separate pass (estimator.discover_correlations)
    because it re-runs the join pipeline over the longest templates.
    """
    config = config or BuildConfig()
    catalog.check_tables({t: d.columns for t, d in tables.items()},
                         schema.column_names())

    domains = {d.id: d for d in catalog.infer_key_domains(schema)}
    catalog.set_domain_boundaries(list(domains.values()), tables,
                                  config.bin_count)
    column_domain = {c: d.id for d in domains.values() for c in d.columns}
    key_domain = {c: domains[did] for c, did in column_domain.items()}

    hists1d: dict[tuple[str, str], TKHist1D] = {}
    hists2d: dict[tuple[str, str, str], TKHist2D] = {}
    freq_hists: dict[tuple[str, str], dict] = {}
    table_rows: dict[str, int] = {}

    grids = entry_names(schema, column_domain)["hists2d"].values()
    for tdef in schema.tables:
        t, data = tdef.name, tables[tdef.name]
        table_rows[t] = data.row_count
        # one valid mask and one read of the non-null values per column
        valid = {c.name: ~data.null_mask[c.name] for c in tdef.columns}
        values = {c: data.columns[c][rows] for c, rows in valid.items()}
        for cdef in tdef.columns:
            c, qual = cdef.name, f"{t}.{cdef.name}"
            if qual in key_domain:
                hists1d[(t, c)] = build_tkhist1d(values[c], key_domain[qual],
                                                 config.top_k)
            # a column is categorical exactly when it has a frequency histogram
            elif catalog.is_categorical(cdef, values[c],
                                        schema.categorical_threshold):
                freq_hists[(t, c)] = add_value_counts({}, values[c])
        axes = {}  # column -> its attribute axis, made once
        for owner, (_, kc, attr) in grids:
            if owner != t:
                continue
            qual = f"{t}.{attr}"
            if attr not in axes:
                axes[attr] = _attr_axis(
                    qual, key_domain.get(qual), freq_hists.get((t, attr)),
                    config.bin_count, lambda: value_span([values[attr]]))
            both = valid[kc] & valid[attr]
            _hold(hists2d, (t, kc, attr), build_tkhist2d(
                data.columns[kc][both], data.columns[attr][both],
                key_domain[f"{t}.{kc}"], axes[attr]))

    return EstimatorState(
        schema=schema, config=config, domains=domains,
        column_domain=column_domain, hists1d=hists1d, hists2d=hists2d,
        freq_hists=freq_hists, table_rows=table_rows, correlations={})


def _hold(hists2d: dict, key: tuple[str, str, str], h2: TKHist2D) -> None:
    """Put `h2` into `hists2d` at `key` and, when it is a bridge (its axis is
    a key column's domain), its other direction: the view `h2.grid.T`, which
    takes every batch that `h2` takes."""
    hists2d[key] = h2
    if isinstance(h2.attr, KeyDomain) and h2.attr.columns:
        t, kc, attr = key
        hists2d[(t, attr, kc)] = TKHist2D(key_domain=h2.attr,
                                          attr=h2.key_domain, grid=h2.grid.T)


def check_complete(state: EstimatorState, table: str | None = None) -> None:
    """Raise StateError unless `state` holds `table`'s entries (every
    table's, when None): a state loaded for one table holds no other
    table's.  Building and loading make every other state complete."""
    if state.source and state.source[0] != table:
        raise StateError(f"state was loaded to update table "
                         f"{state.source[0]!r} only")


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
    its accepted, non-null values in one call, a bridge's grid once for
    both directions.  Frequency histograms count first; each categorical
    column's grids then widen onto the axis that `_attr_axis` gives it, as
    a rebuild would bin them: its sorted values, or, once the batch takes
    it to `categorical_threshold` distinct values (`catalog.is_categorical`),
    the numeric axis over them, its frequency histogram gone.  Container
    membership stays as built and the correlation map is not maintained;
    the state's `cache` is dropped.
    A batch that raises changes nothing: every step that can raise runs
    before the first change.  Returns (inserted, rejected).
    """
    check_complete(state, table)
    tdef = state.schema.table(table)
    catalog.check_tables({table: data.columns},
                         {table: [c.name for c in tdef.columns]})
    key_cols = state.key_columns(table)
    accept = np.ones(data.row_count, dtype=bool)
    for kc in key_cols:
        state.hists1d[(table, kc)].check_keys(data.columns[kc])
        dom = state.domains[state.column_domain[f"{table}.{kc}"]]
        v = data.columns[kc].astype(np.float64)
        accept &= data.null_mask[kc] | ((v >= dom.lo) & (v <= dom.hi))
    valid = {c.name: accept & ~data.null_mask[c.name] for c in tdef.columns}
    freq = {}  # categorical column's key -> its counts, None past the threshold
    axes = {}  # categorical column -> its values, sorted, or numeric axis
    for cdef in tdef.columns:
        fh = state.freq_hists.get((table, cdef.name))
        if fh is None:
            continue
        fh = add_value_counts(dict(fh),
                              data.columns[cdef.name][valid[cdef.name]])
        values = np.asarray(sorted(fh))
        if not catalog.is_categorical(cdef, values,
                                      state.schema.categorical_threshold):
            fh = None  # past the threshold: numeric, as a rebuild makes it
        freq[(table, cdef.name)] = fh
        axes[cdef.name] = _attr_axis(
            f"{table}.{cdef.name}", None, fh, state.config.bin_count,
            lambda: value_span([values]))
    state.cache.clear()  # the first change
    for key, fh in freq.items():
        if fh is None:
            del state.freq_hists[key]
        else:
            state.freq_hists[key] = fh
    for kc in key_cols:
        state.hists1d[(table, kc)].insert(data.columns[kc][valid[kc]])
    for owner, key in entry_names(state.schema, state.column_domain)[
            "hists2d"].values():
        if owner != table:
            continue
        _, kc, attr = key
        h2 = state.hists2d[key]
        if attr in axes:
            h2.widen(axes[attr])
        both = valid[kc] & valid[attr]
        h2.insert(data.columns[kc][both], data.columns[attr][both])
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
    """The histogram's constructor arrays as they are in memory, keys in key
    order, and its background offsets, which check the background's length
    as a grid's shape checks its axis."""
    return {"topk_keys": _pack(h.topk_keys, delta=True),
            "topk_counts": _pack(h.topk_counts),
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


# per-table section -> (what an entry is, in errors; the kind of an entry,
# a key of `_KINDS`; whether each entry that `entry_names` lists is
# required; the EstimatorState field; the entry's encoder)
_SECTIONS = {
    "table_rows": ("table_rows entry", "a count", True, "table_rows", int),
    "freq": ("frequency histogram", "a list of [value, count] pairs", False,
             "freq_hists", _freq_doc),
    "hists1d": ("1D histogram", "an object", True, "hists1d", _hist1d_doc),
    "hists2d": ("2D histogram", "an object", True, "hists2d", _hist2d_doc),
    "correlations": ("correlation section", "an object", False,
                     "correlations", _correlation_doc),
}


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
    """The whole document of `state`.  A state loaded for one table encodes
    only that table's entries and copies every other table's from the
    document it was loaded from."""
    table, source = state.source or (None, None)
    doc = _global_entries(state)
    for sec, listed in entry_names(state.schema, state.column_domain).items():
        *_, field, encode = _SECTIONS[sec]
        held = getattr(state, field)
        doc[sec] = {}
        for name, (owner, key) in listed.items():
            if table is not None and owner not in (None, table):
                if name in source[sec]:  # copied unread
                    doc[sec][name] = source[sec][name]
            elif key in held:
                doc[sec][name] = encode(held[key])
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
    if version in range(1, STATE_VERSION):
        raise StateError(f"state version {version} is no longer read; "
                         f"rebuild the state with `tkhist build`")
    if version != STATE_VERSION:
        raise StateError(f"unsupported state version {version!r}")
    try:
        return _state_from_v11(doc, table)
    except SchemaError as exc:
        raise StateError(f"state document: {exc}") from exc


def _state_from_v11(doc: dict, table: str | None) -> EstimatorState:
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
    bounds = _get(doc, "state document", "domains")
    if sorted(bounds) != sorted(domains):
        raise StateError(f"domains {sorted(bounds)} are not the schema's "
                         f"key domains {sorted(domains)}")
    for did in bounds:
        domains[did].set_boundaries(*_fields(
            _get(bounds, "domains", did), f"domain {did!r}",
            lo="a finite number", hi="a finite number"), bin_count)
    column_domain = {c: d.id for d in domains.values() for c in d.columns}
    key_domains = {c: domains[did] for c, did in column_domain.items()}
    got = _listed(doc, entry_names(schema, column_domain), table)

    table_rows = {t: n for t, _, n in got["table_rows"]}
    freq = {}
    for key, where, items in got["freq"]:
        counts = dict(items)
        if len(counts) != len(items):
            raise StateError(f"{where} repeats a value")
        if len({type(v) is str for v in counts}) > 1:
            raise StateError(f"{where} mixes strings and numbers")
        freq[key] = counts
    hists1d = {}
    for (t, c), where, h in got["hists1d"]:
        integer = schema.table(t).column(c).kind == catalog.KIND_INTEGER
        hists1d[(t, c)] = _hist1d_from_doc(where, h, key_domains[f"{t}.{c}"],
                                           "i" if integer else "f")
    hists2d = {}
    for (t, c, attr), where, h in got["hists2d"]:
        try:
            axis = _attr_axis(f"{t}.{attr}", key_domains.get(f"{t}.{attr}"),
                              freq.get((t, attr)), bin_count,
                              lambda: _fields(h, where, lo="a finite number",
                                              hi="a finite number"))
        except SchemaError as exc:
            raise StateError(f"{where}: {exc}") from exc
        _hold(hists2d, (t, c, attr), _hist2d_from_doc(
            where, h, key_domains[f"{t}.{c}"], axis))
    correlations = {key: _envelopes_from_doc(where, sec)
                    for key, where, sec in got["correlations"]}

    return EstimatorState(
        schema=schema, config=config, domains=domains,
        column_domain=column_domain, hists1d=hists1d, hists2d=hists2d,
        freq_hists=freq, table_rows=table_rows, correlations=correlations,
        source=None if table is None else (table, doc))


def _listed(doc: dict, names: dict[str, dict],
            table: str | None) -> dict[str, list]:
    """Per section, (key, description, entry) of each entry named in `names`
    (`entry_names`) that a load for `table` decodes, each entry of its
    section's kind.  Raises StateError for a name in any section that
    `names` does not list, and for a required entry that is missing."""
    got = {}
    for sec, listed in names.items():
        noun, kind, required, *_ = _SECTIONS[sec]
        got[sec] = []
        entries = _get(doc, "state document", sec)
        for name in entries:
            if name not in listed:
                raise StateError(f"{noun} {name!r} is not an entry of the "
                                 f"schema")
        for name, (owner, key) in listed.items():
            if table is not None and owner not in (None, table):
                continue  # carried unread
            if name in entries:
                got[sec].append((key, f"{noun} {name!r}",
                                 _get(entries, sec, name, kind)))
            elif required:
                raise StateError(f"state has no {noun} {name!r}")
    return got


def _hist1d_from_doc(where: str, h: dict, dom: KeyDomain,
                     kind: str) -> TKHist1D:
    keys = _unpack(h, where, "topk_keys", kind, delta=True)
    counts, nv = (_unpack(h, where, name, counts=True)
                  for name in ("topk_counts", "nv"))
    background = _unpack(h, where, "background", kind, delta=True)
    offsets = _unpack(h, where, "background_offsets", delta=True)
    try:
        hist = TKHist1D(dom, keys, counts, nv, background)
    except TKHistError as exc:
        raise StateError(f"{where}: {exc}") from exc
    if not np.array_equal(offsets, hist.background_offsets):
        raise StateError(f"{where}: background_offsets do not split its "
                         f"{len(background)} background keys by bin")
    return hist


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
    if not np.all(keys[1:] > keys[:-1]):  # a NaN fails it too
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
