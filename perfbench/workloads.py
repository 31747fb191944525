"""Workload definitions and their seeded inputs: tables, queries, row batches.

All three workloads use the `mixed` five-table layout of `tkhist.synth`: a
star t1, t2, t3 on k1 whose last member starts the chain t3 -k2- t4 -k3- t5.
The program only ever sees the CSV files written here and SQL strings.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

import numpy as np

from tkhist import synth
from tkhist.catalog import Schema, TableData

ROWS = 100_000
BINS = 200
BATCH_ROWS = 5_000
# update batches run on the workloads without an update stream, so that
# update_rows_per_s exists for every state shape
PROBE_BATCHES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    correlated: bool
    distinct_keys: int
    top_k: int
    discover: bool  # run correlation discovery in the build path
    queries: str  # 'filtered' | 'joins'
    updates: bool  # interleave update batches with the estimates


WORKLOADS = {
    w.name: w for w in [
        Workload("filtered-corr", correlated=True, distinct_keys=100_000,
                 top_k=20, discover=True, queries="filtered", updates=False),
        Workload("joins-fullk", correlated=False, distinct_keys=20_000,
                 top_k=100, discover=False, queries="joins", updates=False),
        Workload("update-mix", correlated=True, distinct_keys=100_000,
                 top_k=20, discover=True, queries="filtered", updates=True),
    ]
}

# The nine unfiltered join shapes of the acceptance suite's mixed workload.
JOIN_SHAPES = [
    ("t1", "t2"), ("t1", "t3"), ("t1", "t2", "t3"), ("t3", "t4"),
    ("t4", "t5"), ("t1", "t3", "t4"), ("t3", "t4", "t5"),
    ("t1", "t2", "t3", "t4"), ("t1", "t2", "t3", "t4", "t5"),
]
# 2-table, 3-table star, star+chain and 5-table shapes for filtered queries.
FILTER_SHAPES = [
    ("t1", "t2"), ("t1", "t3"), ("t3", "t4"), ("t4", "t5"),
    ("t1", "t2", "t3"), ("t1", "t2", "t3", "t4"),
    ("t1", "t2", "t3", "t4", "t5"),
]
OPS = ("<", "<=", ">=", "between", "in", "=")
# Quantile levels of the fixed accuracy design, per operator.  Point filters
# stay at or below the 0.6 quantile: above it a value matches a few dozen
# rows, and the truth of a join through them swings with whichever heavy keys
# those rows carry, which turns the run's worst q-error into a draw.
DESIGN_LEVELS = {
    "<": (0.1, 0.4, 0.7), "<=": (0.1, 0.4, 0.7), ">=": (0.3, 0.6, 0.9),
    "between": ((0.1, 0.4), (0.3, 0.7), (0.6, 0.95)),
    "in": ((0.1, 0.15, 0.2), (0.3, 0.35, 0.4), (0.5, 0.55, 0.6)),
    "=": (0.2, 0.4, 0.6),
}
# The per-batch query set of update-mix: mid-level range filters on every shape.
UPDATE_OPS = {"<=": 0.5, ">=": 0.5, "between": (0.25, 0.75)}


def spec_for(w: Workload, rows: int = ROWS, noise_span: int = 10,
             overrides: dict[str, int] | None = None) -> synth.SyntheticSpec:
    return synth.SyntheticSpec(
        tables=5, rows=rows, layout="mixed", skew=1.2,
        distinct_keys=w.distinct_keys, correlated=w.correlated,
        noise_span=noise_span, row_overrides=overrides or {})


def make_tables(w: Workload, seed: int, outdir: str):
    """Generate the base tables and write them as CSV; returns
    (schema path, harness-side schema, tables)."""
    schema, tables = synth.generate_synthetic(spec_for(w), seed=seed)
    return synth.write_benchmark(schema, tables, outdir), schema, tables


def update_batches(w: Workload, seed: int, count: int, outdir: str,
                   drift: bool) -> list[tuple[str, str, TableData]]:
    """Row batches rotating over t1..t5, each written as its table's CSV.

    With `drift`, batch b draws y with noise_span 10 * (b + 2), so the
    key-attribute correlation widens as the stream goes on.  Returns
    (table, csv path, rows) per batch.
    """
    out = []
    for b in range(count):
        table = f"t{b % 5 + 1}"
        others = {f"t{i}": 1 for i in range(1, 6) if f"t{i}" != table}
        spec = spec_for(w, rows=BATCH_ROWS,
                        noise_span=10 * (b + 2) if drift else 10,
                        overrides=others)
        schema, tables = synth.generate_synthetic(
            spec, seed=seed * 1000 + 101 + b)
        bdir = os.path.join(outdir, f"batch{b:03d}")
        synth.write_benchmark(schema, tables, bdir)
        out.append((table, os.path.join(bdir, f"{table}.csv"),
                    tables[table]))
    return out


def _edges(schema: Schema, shape: tuple[str, ...]) -> list[str]:
    inside = set(shape)
    return [f"{a} = {b}" for a, b in schema.foreign_keys
            if a.split(".")[0] in inside and b.split(".")[0] in inside]


def sql_of(schema: Schema, shape: tuple[str, ...], preds: list[str]) -> str:
    return (f"SELECT COUNT(*) FROM {', '.join(shape)} WHERE "
            + " AND ".join(_edges(schema, shape) + preds))


class Literals:
    """Predicate literals drawn from the quantiles of each table's y."""

    def __init__(self, tables):
        self.sorted_y = {t: np.sort(d.columns["y"]) for t, d in tables.items()}

    def q(self, table: str, level: float) -> int:
        ys = self.sorted_y[table]
        return int(ys[int(round(level * (len(ys) - 1)))])

    def predicate(self, table: str, op: str, level) -> str:
        col = f"{table}.y"
        if op == "<":
            # +1 keeps the row at the quantile inside the filter
            return f"{col} < {self.q(table, level) + 1}"
        if op in ("<=", ">=", "="):
            return f"{col} {op} {self.q(table, level)}"
        if op == "between":
            lo, hi = sorted(self.q(table, x) for x in level)
            return f"{col} BETWEEN {lo} AND {hi}"
        values = sorted({self.q(table, x) for x in level})
        return f"{col} IN ({', '.join(map(str, values))})"


def design_queries(schema: Schema, lit: Literals) -> list[str]:
    """The fixed accuracy design: every filter shape x operator x level with
    one filtered table, plus one two-table filter per shape and operator."""
    out = []
    for si, shape in enumerate(FILTER_SHAPES):
        for oi, op in enumerate(OPS):
            for li, level in enumerate(DESIGN_LEVELS[op]):
                table = shape[(si + oi + li) % len(shape)]
                out.append(sql_of(schema, shape,
                                  [lit.predicate(table, op, level)]))
            first = shape[(si + oi) % len(shape)]
            second = shape[(si + oi + 1) % len(shape)]
            out.append(sql_of(schema, shape, [
                lit.predicate(first, op, DESIGN_LEVELS[op][1]),
                lit.predicate(second, ">=", 0.2)]))
    return list(dict.fromkeys(out))


# Shapes, first operators and filter counts (one or two) of the random tail
# repeat with this period.
TAIL_PERIOD = len(FILTER_SHAPES) * len(OPS) * 2


def random_query(schema: Schema, lit: Literals, rng: random.Random,
                 i: int) -> str:
    """The i-th query of the random tail: shape, first operator and filter
    count cycle so that every block of TAIL_PERIOD queries has the same mix,
    while tables, further operators and quantile levels are drawn at
    random."""
    shape = FILTER_SHAPES[i % len(FILTER_SHAPES)]
    ops = [OPS[i // len(FILTER_SHAPES) % len(OPS)]]
    if (i // (len(FILTER_SHAPES) * len(OPS))) % 2:
        ops.append(rng.choice(OPS))
    tables = rng.sample(shape, len(ops))
    preds = []
    for table, op in zip(tables, ops):
        if op == "between":
            level = (rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        elif op == "in":
            level = tuple(rng.uniform(0.02, 0.98)
                          for _ in range(rng.randint(2, 4)))
        else:
            level = rng.uniform(0.02, 0.98)
        preds.append(lit.predicate(table, op, level))
    return sql_of(schema, shape, preds)


def filtered_stream(schema: Schema, lit: Literals, seed: int):
    """Distinct filtered queries: the design set in seeded order, then seeded
    random queries, never repeating one.  A repeat is redrawn in the same
    slot of the tail's mix."""
    rng = random.Random(seed)
    design = design_queries(schema, lit)
    rng.shuffle(design)
    seen = set(design)
    yield from design
    for i in itertools.count():
        for _ in range(1000):
            sql = random_query(schema, lit, rng, i)
            if sql not in seen:
                break
        else:
            raise RuntimeError(f"no new query for slot {i} of the mix")
        seen.add(sql)
        yield sql


def join_queries(schema: Schema, seed: int) -> list[str]:
    """The nine unfiltered join shapes in a seeded order."""
    out = [sql_of(schema, shape, []) for shape in JOIN_SHAPES]
    random.Random(seed).shuffle(out)
    return out


def update_queries(schema: Schema, lit: Literals) -> list[str]:
    return [sql_of(schema, shape, [lit.predicate(shape[i % len(shape)], op,
                                                 level)])
            for i, shape in enumerate(FILTER_SHAPES)
            for op, level in UPDATE_OPS.items()]
