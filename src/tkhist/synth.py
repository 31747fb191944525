"""Deterministic synthetic benchmark generation.

Join keys follow a bounded Zipf distribution over a fixed number of distinct
values; attribute columns are either independent uniforms or key-correlated
(y = key + small noise), the latter producing workloads where filter/join-key
correlation matters.  The layouts `star`, `chain` and `mixed` are stars of
different widths whose last member starts a chain (`_key_layout`).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .catalog import Schema, TableData
from .errors import TKHistError

ATTR_RANGE = (0, 999)  # an independent attribute's values, both ends held
MIXED_STAR_WIDTH = 3  # tables in the star part of the mixed layout


@dataclass
class SyntheticSpec:
    tables: int = 3
    rows: int = 10_000
    layout: str = "star"  # 'star' | 'chain' | 'mixed'
    skew: float = 1.2
    distinct_keys: int = 1000
    correlated: bool = False
    noise_span: int = 10
    row_overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.layout not in ("star", "chain", "mixed"):
            raise TKHistError(f"unknown layout {self.layout!r}")
        if self.tables < 2:
            raise TKHistError("need at least two tables")
        if self.distinct_keys < 1:
            raise TKHistError("distinct_keys must be >= 1")


def zipf_keys(rng: np.random.Generator, n: int, distinct: int,
              s: float) -> np.ndarray:
    """Draw n keys from {1..distinct} with rank probabilities p(r) ~ r^-s."""
    ranks = np.arange(1, distinct + 1, dtype=np.float64)
    p = ranks ** -s
    p /= p.sum()
    return rng.choice(np.arange(1, distinct + 1, dtype=np.int64), size=n, p=p)


def _key_layout(spec: SyntheticSpec) -> tuple[dict[str, list[str]], list[tuple[str, str]]]:
    """Per-table key columns and the FK edge list: a star of the first `w`
    tables on `k1` whose last member starts a chain through the rest, where
    `w` is every table for `star`, 2 for `chain` and at most
    MIXED_STAR_WIDTH for `mixed`."""
    names = [f"t{i}" for i in range(1, spec.tables + 1)]
    w = {"star": spec.tables, "chain": 2,
         "mixed": min(MIXED_STAR_WIDTH, spec.tables)}[spec.layout]
    cols = {t: ["k1"] if i < w else [] for i, t in enumerate(names)}
    edges = [(f"{t}.k1", f"{names[0]}.k1") for t in names[1:w]]
    for i in range(w, spec.tables):
        prev, t, key = names[i - 1], names[i], f"k{i - w + 2}"
        cols[prev].append(key)
        cols[t].append(key)
        edges.append((f"{t}.{key}", f"{prev}.{key}"))
    return cols, edges


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> tuple[Schema, dict[str, TableData]]:
    """Generate schema and table data; identical output for identical inputs."""
    rng = np.random.default_rng(seed)
    key_cols, edges = _key_layout(spec)

    table_docs = []
    tables: dict[str, TableData] = {}
    for tname, kcols in key_cols.items():
        n = spec.row_overrides.get(tname, spec.rows)
        columns: dict[str, np.ndarray] = {}
        for kc in kcols:
            columns[kc] = zipf_keys(rng, n, spec.distinct_keys, spec.skew)
        if spec.correlated:
            noise = rng.integers(0, max(spec.noise_span, 1), size=n)
            columns["y"] = columns[kcols[0]] + noise
        else:
            lo, hi = ATTR_RANGE
            columns["y"] = rng.integers(lo, hi + 1, size=n)
        null_mask = {c: np.zeros(n, dtype=bool) for c in columns}
        tables[tname] = TableData(name=tname, columns=columns,
                                  null_mask=null_mask, row_count=n)
        col_docs = [{"name": c, "kind": "integer"} for c in [*kcols, "y"]]
        table_docs.append({"name": tname, "file": f"{tname}.csv",
                           "columns": col_docs})

    doc = {
        "tables": table_docs,
        "foreign_keys": [{"from": a, "to": b} for a, b in edges],
        "templates": [[f"{a}={b}" for a, b in edges]],
    }
    schema = catalog.schema_from_document(doc)
    return schema, tables


def write_benchmark(schema: Schema, tables: dict[str, TableData],
                    outdir: str) -> str:
    """Write schema.json plus one CSV per table; returns the schema path."""
    os.makedirs(outdir, exist_ok=True)
    for tdef in schema.tables:
        catalog.write_table_csv(tables[tdef.name], tdef,
                                os.path.join(outdir, f"{tdef.name}.csv"))
    schema_path = os.path.join(outdir, "schema.json")
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema.document, fh, indent=2)
        fh.write("\n")
    return schema_path
