"""Built estimator state: every histogram for a schema, batch updates, and
(de)serialization.

The state file is a single self-describing JSON document.  All counts are
exact integers and every collection is written in sorted order, so saving the
same state twice is byte-identical.  Version 2 stores each 1D histogram as
flat per-histogram lists with per-bin offsets and each 2D grid as its
non-zero cells; a version-1 document is rewritten into that layout on load.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import KeyDomain, Schema, TableData, split_qualified
from .errors import StateError
from .histcore import (AttrBinning, Bin1D, TKHist1D, TKHist2D,
                       build_frequency_hist, build_tkhist1d, build_tkhist2d,
                       categorical_binning, domain_binning, numeric_binning)

STATE_MAGIC = "TKHIST-STATE-v1"
STATE_VERSION = 2

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

def _domain_doc(d: KeyDomain) -> dict:
    return {"columns": sorted(d.columns), "lo": d.lo, "hi": d.hi,
            "bin_count": d.bin_count}


def _hist1d_doc(domain: str, k: int, total_rows: int, bins) -> dict:
    """The flat 1D layout; `bins` yields, per bin, the container pairs in
    (-count, key) order, NV and the sorted background keys."""
    keys, counts, nv, background = [], [], [], []
    topk_offsets, background_offsets = [0], [0]
    for topk, bin_nv, bin_background in bins:
        keys += [key for key, _ in topk]
        counts += [cnt for _, cnt in topk]
        topk_offsets.append(len(keys))
        nv.append(bin_nv)
        background += bin_background
        background_offsets.append(len(background))
    return {"domain": domain, "k": k, "total_rows": total_rows,
            "topk_keys": keys, "topk_counts": counts,
            "topk_offsets": topk_offsets, "nv": nv,
            "background": background,
            "background_offsets": background_offsets}


def _grid_doc(grid: np.ndarray) -> dict:
    flat = grid.ravel()
    cells = np.flatnonzero(flat)
    return {"shape": list(grid.shape), "cells": cells.tolist(),
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


def _env_doc(env) -> list:
    if env[0] == "range":
        return ["range", env[1], env[2]]
    return ["set", sorted(env[1])]


def state_to_document(state: EstimatorState) -> dict:
    corr = None
    if state.correlations is not None:
        corr = {}
        for (table, dom, attr), env_by_key in sorted(state.correlations.items()):
            corr[f"{table}|{dom}|{attr}"] = [
                [k] + _env_doc(env) for k, env in sorted(env_by_key.items())]
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
        "hists1d": {f"{t}.{c}": _hist1d_doc(
                        h.domain.id, h.k, h.total_rows,
                        ((sorted(b.topk.items(), key=lambda kv: (-kv[1], kv[0])),
                          b.nv, sorted(b.background)) for b in h.bins))
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
    hists1d = {name: _hist1d_doc(h["domain"], h["k"], h["total_rows"],
                                 ((b["topk"], b["nv"], b["background"])
                                  for b in h["bins"]))
               for name, h in doc["hists1d"].items()}
    hists2d = {name: {"domain": h["domain"], "attr": h["attr"],
                      **_grid_doc(np.asarray(h["grid"], dtype=np.int64))}
               for name, h in doc["hists2d"].items()}
    return {**doc, "version": 2, "hists1d": hists1d, "hists2d": hists2d}


def state_from_document(doc: dict) -> EstimatorState:
    if not isinstance(doc, dict) or doc.get("magic") != STATE_MAGIC:
        raise StateError("unrecognized state file")
    try:
        return _state_from_known_document(doc)
    except KeyError as exc:
        raise StateError(
            f"state document has no {exc.args[0]!r} entry") from exc


def _state_from_known_document(doc: dict) -> EstimatorState:
    if doc.get("version") == 1:
        doc = _upgrade_v1(doc)
    if doc.get("version") != STATE_VERSION:
        raise StateError(f"unsupported state version {doc.get('version')!r}")

    cdoc = doc["config"]
    config = BuildConfig(bin_count=cdoc["bin_count"], top_k=cdoc["top_k"])
    schema = catalog.schema_from_document(doc["schema"],
                                          base_dir=doc.get("schema_base_dir", "."))

    domains: dict[str, KeyDomain] = {}
    for did, d in doc["domains"].items():
        dom = KeyDomain(id=did, columns=frozenset(d["columns"]))
        dom.set_boundaries(d["lo"], d["hi"], d["bin_count"])
        domains[did] = dom
    column_domain = {c: d.id for d in domains.values() for c in d.columns}

    hists1d = {}
    for qual, h in doc["hists1d"].items():
        keys, counts, background = (h["topk_keys"], h["topk_counts"],
                                    h["background"])
        tk, bg = h["topk_offsets"], h["background_offsets"]
        bins = [Bin1D(topk=dict(zip(keys[tk[i]:tk[i + 1]],
                                    counts[tk[i]:tk[i + 1]])),
                      nv=nv, background=set(background[bg[i]:bg[i + 1]]))
                for i, nv in enumerate(h["nv"])]
        hists1d[split_qualified(qual)] = TKHist1D(
            domain=domains[h["domain"]], bins=bins,
            total_rows=h["total_rows"], k=h["k"])

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
        grid = np.zeros(shape, dtype=np.int64)
        np.put(grid, h["cells"], h["counts"])
        hists2d[(t, c, attr)] = TKHist2D(key_domain=dom, attr=binning,
                                         grid=grid)

    freq = {split_qualified(qual): dict(items)
            for qual, items in doc["freq"].items()}
    column_class = {split_qualified(qual): cls
                    for qual, cls in doc["column_class"].items()}

    correlations = None
    if doc.get("correlations") is not None:
        # each row is [key, "range", lo, hi] or [key, "set", values]
        correlations = {
            tuple(name.split("|", 2)): {
                row[0]: (("range", row[2], row[3]) if row[1] == "range"
                         else ("set", frozenset(row[2])))
                for row in rows}
            for name, rows in doc["correlations"].items()}

    return EstimatorState(schema=schema, config=config, domains=domains,
                          column_domain=column_domain, hists1d=hists1d,
                          hists2d=hists2d, freq_hists=freq,
                          column_class=column_class,
                          table_rows=doc["table_rows"],
                          correlations=correlations)


def _binning_from_doc(doc: dict) -> AttrBinning:
    if doc["kind"] == "categorical":
        return AttrBinning(kind="categorical", integer=doc["integer"],
                           values=list(doc["values"]))
    edges = doc["boundaries"]
    return AttrBinning(kind="numeric", integer=doc["integer"],
                       lo=float(edges[0]), hi=float(edges[-1]),
                       bin_count=len(edges) - 1,
                       attr_domain_id=doc.get("attr_domain"))
