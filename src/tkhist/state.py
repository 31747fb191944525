"""Built estimator state: every histogram for a schema, batch updates, and
(de)serialization.

The state file is a single self-describing JSON document.  All counts are
exact integers and every collection is written in sorted order, so saving the
same state twice is byte-identical.  Version 3 stores each 1D histogram as
flat per-histogram lists with per-bin offsets, each 2D grid as its non-zero
cells and each correlation-map section as columns; sorted integer lists are
delta-coded.  Version-1 and version-2 documents are rewritten into that
layout on load, and every length, offset and cell is checked against the
bins it describes.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import catalog
from .catalog import KeyDomain, Schema, TableData, split_qualified
from .errors import StateError
from .histcore import (AttrBinning, Bin1D, TKHist1D, TKHist2D,
                       build_frequency_hist, build_tkhist1d, build_tkhist2d,
                       categorical_binning, domain_binning, numeric_binning)

STATE_MAGIC = "TKHIST-STATE-v1"
STATE_VERSION = 3

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
    freq_hists: dict[tuple[str, str], dict]
    column_class: dict[tuple[str, str], str]
    table_rows: dict[str, int]
    # {(table, domain_id, attr): {key: envelope}}, an envelope being
    # ("range", lo, hi) or ("set", frozenset); built by djpcd
    correlations: dict | None = None

    def domain_of(self, table: str, column: str) -> str | None:
        return self.column_domain.get(f"{table}.{column}")

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

    column_class: dict[tuple[str, str], str] = {}
    hists1d: dict[tuple[str, str], TKHist1D] = {}
    hists2d: dict[tuple[str, str, str], TKHist2D] = {}
    freq_hists: dict[tuple[str, str], dict] = {}
    table_rows: dict[str, int] = {}

    for tdef in schema.tables:
        data = tables[tdef.name]
        table_rows[tdef.name] = data.row_count
        for name, cls in catalog.classify_columns(
                data, tdef, schema.categorical_threshold).items():
            column_class[(tdef.name, name)] = cls
        # orphan key columns (no FK edge) behave like numeric attributes
        for cdef in tdef.columns:
            if (cdef.role == catalog.ROLE_KEY
                    and f"{tdef.name}.{cdef.name}" not in column_domain):
                column_class[(tdef.name, cdef.name)] = "numeric"

        key_cols = [c.name for c in tdef.columns
                    if f"{tdef.name}.{c.name}" in column_domain]
        for kc in key_cols:
            dom = domains[column_domain[f"{tdef.name}.{kc}"]]
            hists1d[(tdef.name, kc)] = build_tkhist1d(
                data.columns[kc], dom, config.top_k,
                null_mask=data.null_mask[kc])
            for cdef in tdef.columns:
                if cdef.name == kc:
                    continue
                binning = _attr_binning(tdef.name, cdef, data, domains,
                                        column_domain, column_class,
                                        config.bin_count)
                hists2d[(tdef.name, kc, cdef.name)] = build_tkhist2d(
                    data.columns[kc], data.columns[cdef.name], dom, binning,
                    key_nulls=data.null_mask[kc],
                    attr_nulls=data.null_mask[cdef.name])

        for cdef in tdef.columns:
            if column_class.get((tdef.name, cdef.name)) == "categorical":
                freq_hists[(tdef.name, cdef.name)] = build_frequency_hist(
                    data.columns[cdef.name], data.null_mask[cdef.name])

    return EstimatorState(
        schema=schema, config=config, domains=domains,
        column_domain=column_domain, hists1d=hists1d, hists2d=hists2d,
        freq_hists=freq_hists, column_class=column_class,
        table_rows=table_rows, correlations=None)


def _attr_binning(table: str, cdef, data: TableData, domains, column_domain,
                  column_class, bin_count: int) -> AttrBinning:
    qual = f"{table}.{cdef.name}"
    if qual in column_domain:
        return domain_binning(domains[column_domain[qual]],
                              integer=cdef.kind == catalog.KIND_INTEGER)
    if column_class.get((table, cdef.name)) == "categorical":
        return categorical_binning(data.non_null(cdef.name))
    return numeric_binning(data.non_null(cdef.name), bin_count,
                           integer=cdef.kind == catalog.KIND_INTEGER)


def ingest_all(schema: Schema) -> dict[str, TableData]:
    return {t.name: catalog.ingest_table(t, schema) for t in schema.tables}


def apply_rows(state: EstimatorState, table: str,
               data: TableData) -> tuple[int, int]:
    """Add one batch of new rows of `table` to every histogram over it.

    A row is accepted when each of its non-null keys lies inside its key
    domain's bounds; a rejected row changes nothing.  Each histogram takes
    its accepted, non-null values in one call.  Container membership stays
    as built and the correlation map is not maintained.  Returns
    (inserted, rejected).
    """
    tdef = state.schema.table(table)
    key_cols = state.key_columns(table)
    accept = np.ones(data.row_count, dtype=bool)
    for kc in key_cols:
        dom = state.domains[state.domain_of(table, kc)]
        v = data.columns[kc].astype(np.float64)
        accept &= data.null_mask[kc] | ((v >= dom.lo) & (v <= dom.hi))
    valid = {c.name: accept & ~data.null_mask[c.name] for c in tdef.columns}
    for kc in key_cols:
        keys = data.columns[kc]
        state.hists1d[(table, kc)].insert(keys[valid[kc]])
        for cdef in tdef.columns:
            if cdef.name != kc:
                both = valid[kc] & valid[cdef.name]
                state.hists2d[(table, kc, cdef.name)].insert(
                    keys[both], data.columns[cdef.name][both])
    for cdef in tdef.columns:
        fh = state.freq_hists.get((table, cdef.name))
        if fh is not None:
            values, counts = np.unique(data.columns[cdef.name][valid[cdef.name]],
                                       return_counts=True)
            for v, c in zip(values.tolist(), counts.tolist()):
                fh[v] = fh.get(v, 0) + c
    inserted = int(accept.sum())
    state.table_rows[table] += inserted
    return inserted, data.row_count - inserted


# ---------------------------------------------------------------------------
# serialization

def _key_list(keys: np.ndarray) -> list:
    """Sorted keys as written: integer keys as deltas, each key minus the one
    before it (wrapping in int64, as the cumsum that undoes it does), real
    keys as they are, since a float cumsum would not round-trip."""
    if keys.dtype.kind == "i":
        return np.diff(keys, prepend=0).tolist()
    return keys.tolist()


def _keys_from_list(values: list, dtype=None) -> np.ndarray:
    keys = np.asarray(values, dtype=dtype)
    return np.cumsum(keys) if keys.dtype.kind == "i" else keys


def _domain_doc(d: KeyDomain) -> dict:
    return {"columns": sorted(d.columns), "lo": d.lo, "hi": d.hi,
            "bin_count": d.bin_count}


def _hist1d_doc(h: TKHist1D) -> dict:
    """Flat per-histogram lists with per-bin offsets; each bin's container
    pairs in (-count, key) order, from one lexsort over all containers."""
    sizes = [len(b.topk) for b in h.bins]
    keys = np.asarray([key for b in h.bins for key in b.topk])
    counts = np.asarray([c for b in h.bins for c in b.topk.values()],
                        dtype=np.int64)
    order = np.lexsort((keys, -counts, np.repeat(np.arange(len(sizes)), sizes)))
    return {"domain": h.domain.id, "k": h.k, "total_rows": h.total_rows,
            "topk_keys": keys[order].tolist(),
            "topk_counts": counts[order].tolist(),
            "topk_offsets": [0, *np.cumsum(sizes).tolist()],
            "nv": [b.nv for b in h.bins],
            "background": _key_list(h.background),
            "background_offsets": h.background_offsets.tolist()}


def _grid_doc(grid: np.ndarray) -> dict:
    flat = grid.ravel()
    cells = np.flatnonzero(flat)
    return {"shape": list(grid.shape), "cells": _key_list(cells),
            "counts": flat[cells].tolist()}


def _binning_doc(a: AttrBinning) -> dict:
    doc: dict = {"kind": a.kind, "integer": a.integer}
    if a.kind == "categorical":
        doc["values"] = list(a.values)
    else:
        doc["boundaries"] = np.linspace(a.lo, a.hi,
                                        a.bin_count + 1).tolist()
        doc["attr_domain"] = a.attr_domain_id
    return doc


def _correlation_doc(env_by_key: dict) -> dict:
    """One section of the correlation map as columns: the sorted keys, plus
    `lo` and `hi` for range envelopes or `values` for set envelopes (one
    attribute has one envelope kind)."""
    keys = sorted(env_by_key)
    envs = [env_by_key[key] for key in keys]
    doc = {"keys": _key_list(np.asarray(keys))}
    if envs and envs[0][0] == "set":
        doc["values"] = [sorted(env[1]) for env in envs]
    else:
        doc["lo"] = [env[1] for env in envs]
        doc["hi"] = [env[2] for env in envs]
    return doc


def state_to_document(state: EstimatorState) -> dict:
    corr = None
    if state.correlations is not None:
        corr = {f"{table}|{dom}|{attr}": _correlation_doc(env_by_key)
                for (table, dom, attr), env_by_key
                in sorted(state.correlations.items())}
    return {
        "magic": STATE_MAGIC,
        "version": STATE_VERSION,
        "config": {
            "bin_count": state.config.bin_count,
            "top_k": state.config.top_k,
        },
        "schema": state.schema.document,
        "schema_base_dir": state.schema.base_dir,
        "domains": {d.id: _domain_doc(d) for d in state.domains.values()},
        "hists1d": {f"{t}.{c}": _hist1d_doc(h)
                    for (t, c), h in sorted(state.hists1d.items())},
        "hists2d": {f"{t}.{c}|{a}": {"domain": h.key_domain.id,
                                     "attr": _binning_doc(h.attr),
                                     **_grid_doc(h.grid)}
                    for (t, c, a), h in sorted(state.hists2d.items())},
        "freq": {f"{t}.{c}": sorted(fh.items(), key=lambda kv: repr(kv[0]))
                 for (t, c), fh in sorted(state.freq_hists.items())},
        "column_class": {f"{t}.{c}": cls
                         for (t, c), cls in sorted(state.column_class.items())},
        "table_rows": dict(sorted(state.table_rows.items())),
        "correlations": corr,
    }


def save_state(state: EstimatorState, path: str) -> int:
    """Atomically write the state file; returns its size in bytes."""
    payload = json.dumps(state_to_document(state), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tkhist-state-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(payload)


def load_state(path: str) -> EstimatorState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateError(f"corrupt state file {path!r}: {exc}") from exc
    return state_from_document(doc)


def _upgrade_v1(doc: dict) -> dict:
    """Rewrite a version-1 document (per-bin objects, dense grids) into the
    version-2 layout."""
    hists1d = {}
    for name, h in doc["hists1d"].items():
        bins = h["bins"]
        topk = [pair for b in bins for pair in b["topk"]]
        hists1d[name] = {
            "domain": h["domain"], "k": h["k"], "total_rows": h["total_rows"],
            "topk_keys": [key for key, _ in topk],
            "topk_counts": [cnt for _, cnt in topk],
            "topk_offsets": [0, *np.cumsum([len(b["topk"]) for b in bins]).tolist()],
            "nv": [b["nv"] for b in bins],
            "background": [key for b in bins for key in b["background"]],
            "background_offsets": [0, *np.cumsum(
                [len(b["background"]) for b in bins]).tolist()]}
    hists2d = {}
    for name, h in doc["hists2d"].items():
        grid = np.asarray(h["grid"], dtype=np.int64)
        cells = np.flatnonzero(grid)
        hists2d[name] = {"domain": h["domain"], "attr": h["attr"],
                         "shape": list(grid.shape), "cells": cells.tolist(),
                         "counts": grid.ravel()[cells].tolist()}
    return {**doc, "version": 2, "hists1d": hists1d, "hists2d": hists2d}


def _upgrade_v2(doc: dict) -> dict:
    """Rewrite a version-2 document (plain key lists, correlation rows
    `[key, "range", lo, hi]` or `[key, "set", values]`) into the version-3
    layout."""
    hists1d = {name: {**h, "background": _key_list(np.asarray(h["background"]))}
               for name, h in doc["hists1d"].items()}
    hists2d = {name: {**h, "cells": _key_list(
                   np.asarray(h["cells"], dtype=np.int64))}
               for name, h in doc["hists2d"].items()}
    corr = doc.get("correlations")
    if corr is not None:
        corr = {name: _correlation_doc(
                    {row[0]: _v2_envelope(name, row) for row in rows})
                for name, rows in corr.items()}
    return {**doc, "version": 3, "hists1d": hists1d, "hists2d": hists2d,
            "correlations": corr}


def _v2_envelope(name: str, row: list) -> tuple:
    if len(row) == 4 and row[1] == "range":
        return ("range", row[2], row[3])
    if len(row) == 3 and row[1] == "set":
        return ("set", frozenset(row[2]))
    raise StateError(f"correlation section {name!r}: malformed row {row!r}")


def state_from_document(doc: dict) -> EstimatorState:
    if not isinstance(doc, dict) or doc.get("magic") != STATE_MAGIC:
        raise StateError("unrecognized state file")
    try:
        return _state_from_known_document(doc)
    except KeyError as exc:
        raise StateError(
            f"state document has no {exc.args[0]!r} entry") from exc


def _state_from_known_document(doc: dict) -> EstimatorState:
    version = doc.get("version")
    if version not in (1, 2, STATE_VERSION):
        raise StateError(f"unsupported state version {version!r}")

    cdoc = doc["config"]
    config = BuildConfig(bin_count=cdoc["bin_count"], top_k=cdoc["top_k"])
    schema = catalog.schema_from_document(doc["schema"],
                                          base_dir=doc.get("schema_base_dir", "."))
    if version == 1:
        doc = _upgrade_v1(doc)
    if version <= 2:
        doc = _upgrade_v2(doc)

    domains: dict[str, KeyDomain] = {}
    for did, d in doc["domains"].items():
        dom = KeyDomain(id=did, columns=frozenset(d["columns"]))
        dom.set_boundaries(d["lo"], d["hi"], d["bin_count"])
        domains[did] = dom
    column_domain = {c: d.id for d in domains.values() for c in d.columns}

    hists1d = {}
    for qual, h in doc["hists1d"].items():
        t, c = split_qualified(qual)
        integer = schema.table(t).column(c).kind == catalog.KIND_INTEGER
        hists1d[(t, c)] = _hist1d_from_doc(
            qual, h, domains[h["domain"]], np.int64 if integer else np.float64)

    hists2d = {}
    for name, h in doc["hists2d"].items():
        qual, attr = name.split("|", 1)
        t, c = split_qualified(qual)
        binning = _binning_from_doc(h["attr"])
        dom = domains[h["domain"]]
        shape = (dom.bin_count, binning.n_bins)
        if tuple(h["shape"]) != shape:
            raise StateError(f"2D histogram {name!r} has shape {h['shape']}, "
                             f"expected {list(shape)}")
        cells = _keys_from_list(h["cells"], np.int64)
        counts = np.asarray(h["counts"], dtype=np.int64)
        if len(counts) != len(cells):
            raise StateError(f"2D histogram {name!r} has {len(cells)} cells "
                             f"and {len(counts)} counts")
        if len(cells) and (cells[0] < 0 or cells[-1] >= shape[0] * shape[1]
                           or np.any(cells[1:] <= cells[:-1])):
            raise StateError(f"2D histogram {name!r} has cells that are out "
                             f"of its {list(shape)} grid or unsorted")
        grid = np.zeros(shape, dtype=np.int64)
        grid.ravel()[cells] = counts
        hists2d[(t, c, attr)] = TKHist2D(key_domain=dom, attr=binning,
                                         grid=grid)

    freq = {split_qualified(qual): dict(items)
            for qual, items in doc["freq"].items()}
    column_class = {split_qualified(qual): cls
                    for qual, cls in doc["column_class"].items()}

    correlations = None
    if doc.get("correlations") is not None:
        correlations = {tuple(name.split("|", 2)): _envelopes_from_doc(name, sec)
                        for name, sec in doc["correlations"].items()}

    return EstimatorState(schema=schema, config=config, domains=domains,
                          column_domain=column_domain, hists1d=hists1d,
                          hists2d=hists2d, freq_hists=freq,
                          column_class=column_class,
                          table_rows=doc["table_rows"],
                          correlations=correlations)


def _hist1d_from_doc(qual: str, h: dict, dom: KeyDomain,
                     dtype) -> TKHist1D:
    keys, counts, nv = h["topk_keys"], h["topk_counts"], h["nv"]
    background = _keys_from_list(h["background"], dtype)
    n = dom.bin_count
    if len(nv) != n:
        raise StateError(f"1D histogram {qual!r} has {len(nv)} nv entries "
                         f"for {n} bins")
    if len(counts) != len(keys):
        raise StateError(f"1D histogram {qual!r} has {len(keys)} topk_keys "
                         f"and {len(counts)} topk_counts")
    tk = _checked_offsets(qual, "topk_offsets", h["topk_offsets"], n,
                          len(keys)).tolist()
    offsets = _checked_offsets(qual, "background_offsets",
                               h["background_offsets"], n, len(background))
    if np.any(background[1:] <= background[:-1]):
        raise StateError(f"1D histogram {qual!r} has unsorted background keys")
    bins = [Bin1D(topk=dict(zip(keys[lo:hi], counts[lo:hi])), nv=v)
            for lo, hi, v in zip(tk[:-1], tk[1:], nv)]
    return TKHist1D(domain=dom, bins=bins, total_rows=h["total_rows"],
                    k=h["k"], background=background,
                    background_offsets=offsets)


def _checked_offsets(qual: str, field: str, values: list, bin_count: int,
                     length: int) -> np.ndarray:
    """CSR offsets that split `length` entries into `bin_count` bins."""
    offsets = np.asarray(values, dtype=np.int64)
    if (len(offsets) != bin_count + 1 or offsets[0] != 0
            or offsets[-1] != length or np.any(offsets[1:] < offsets[:-1])):
        raise StateError(f"1D histogram {qual!r}: {field} do not split "
                         f"{length} entries into {bin_count} bins")
    return offsets


def _envelopes_from_doc(name: str, sec: dict) -> dict:
    keys = _keys_from_list(sec["keys"]).tolist()
    if "values" in sec:
        columns = [sec["values"]]
        envs = [("set", frozenset(values)) for values in sec["values"]]
    else:
        columns = [sec["lo"], sec["hi"]]
        envs = zip(repeat("range"), sec["lo"], sec["hi"])
    if any(len(col) != len(keys) for col in columns):
        raise StateError(f"correlation section {name!r} has columns of "
                         f"unequal length")
    return dict(zip(keys, envs))


def _binning_from_doc(doc: dict) -> AttrBinning:
    if doc["kind"] == "categorical":
        return AttrBinning(kind="categorical", integer=doc["integer"],
                           values=list(doc["values"]))
    edges = doc["boundaries"]
    return AttrBinning(kind="numeric", integer=doc["integer"],
                       lo=float(edges[0]), hi=float(edges[-1]),
                       bin_count=len(edges) - 1,
                       attr_domain_id=doc.get("attr_domain"))
