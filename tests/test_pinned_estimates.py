"""Estimates pinned as `float.hex`, on a small version of the bench shapes.

The data is synth's mixed five-table layout (a star t1, t2, t3 on k1 whose
t3 starts the chain t3 -k2- t4 -k3- t5), correlated, with t5 small enough
that its `y` is categorical.  The state is built with correlation discovery,
saved and loaded before any estimate, so that the file format is part of
what is checked.  The queries are the nine join shapes, then one filter of
each operator on each shape, and one filter of each operator on a key column
of t1 and of t4 alone; the filtered queries run again after each of two
update batches, each applied as `tkhist update` applies it (a load of
the batch's table, `apply_rows`, a save) and reloaded in full.
Every estimate must stay within 1e-9 relative of its pinned value.

After a change that moves estimates on purpose, rewrite the pinned file:

    PYTHONPATH=src python tests/test_pinned_estimates.py --rewrite
"""
import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from tkhist.catalog import schema_from_document
from tkhist.estimator import discover_correlations, estimate
from tkhist.state import (BuildConfig, apply_rows, build_state, load_state,
                          save_state)
from tkhist.synth import SyntheticSpec, generate_synthetic

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pinned_estimates.json")
RTOL = 1e-9

SEED = 11
SPEC = SyntheticSpec(tables=5, rows=3000, layout="mixed", distinct_keys=400,
                     correlated=True, row_overrides={"t5": 150})
CATEGORICAL_THRESHOLD = 120  # t5.y has fewer distinct values, t1..t4.y more
CONFIG = BuildConfig(bin_count=16, top_k=4)
# (stage, table, rows, seed, noise span) of each update batch; the wider
# noise brings attribute values, and keys, that the build never saw
BATCHES = [("batch1", "t3", 600, 101, 40), ("batch2", "t5", 60, 102, 80)]

JOIN_SHAPES = [
    ("t1", "t2"), ("t1", "t3"), ("t1", "t2", "t3"), ("t3", "t4"),
    ("t4", "t5"), ("t1", "t3", "t4"), ("t3", "t4", "t5"),
    ("t1", "t2", "t3", "t4"), ("t1", "t2", "t3", "t4", "t5"),
]
FILTER_SHAPES = [
    ("t1",), ("t5",), ("t1", "t2"), ("t1", "t3"), ("t3", "t4"),
    ("t4", "t5"), ("t1", "t2", "t3"), ("t1", "t2", "t3", "t4"),
    ("t1", "t2", "t3", "t4", "t5"),
]
OPS = ("=", "<", "<=", ">", ">=", "between", "in")
KEY_FILTER_TABLES = ("t1", "t4")  # one-table filters on a key column


def sql_of(schema, shape, preds) -> str:
    inside = set(shape)
    edges = [f"{a} = {b}" for a, b in schema.foreign_keys
             if a.split(".")[0] in inside and b.split(".")[0] in inside]
    return (f"SELECT COUNT(*) FROM {', '.join(shape)} WHERE "
            + " AND ".join(edges + preds))


def predicate(column: str, values: np.ndarray, op: str, level: float) -> str:
    """`column op literal`, the literals taken at quantile `level` (and
    above it, for BETWEEN and IN) of the column's sorted `values`."""
    def q(x):
        return int(values[int(round(min(x, 1.0) * (len(values) - 1)))])
    if op == "between":
        return f"{column} BETWEEN {q(level)} AND {q(level + 0.3)}"
    if op == "in":
        return (f"{column} IN ({q(level)}, {q(level + 0.1)}, "
                f"{q(level + 0.2)})")
    return f"{column} {op} {q(level)}"


def filtered_queries(schema, tables) -> list[str]:
    """Per shape and operator, one filter on `y` of a rotating member, at a
    rotating level; per shape, one filter on a key column as well; and per
    table of KEY_FILTER_TABLES and operator, one filter on its first key
    column, alone, at a rotating level."""
    out = []
    for si, shape in enumerate(FILTER_SHAPES):
        for oi, op in enumerate(OPS):
            t = shape[(si + oi) % len(shape)]
            out.append(sql_of(schema, shape, [predicate(
                f"{t}.y", np.sort(tables[t].columns["y"]), op,
                (0.2, 0.5, 0.8)[(si + oi) % 3])]))
        t = shape[si % len(shape)]
        kc = schema.table(t).columns[0].name
        out.append(sql_of(schema, shape, [predicate(
            f"{t}.{kc}", np.sort(tables[t].columns[kc]), OPS[si % len(OPS)],
            0.4)]))
    for t in KEY_FILTER_TABLES:
        kc = schema.table(t).columns[0].name
        for oi, op in enumerate(OPS):
            out.append(sql_of(schema, (t,), [predicate(
                f"{t}.{kc}", np.sort(tables[t].columns[kc]), op,
                (0.2, 0.5, 0.8)[oi % 3])]))
    return out


def estimates(state, queries) -> dict[str, float]:
    return {sql: estimate(sql, state).estimate for sql in queries}


def current_estimates() -> dict[str, dict[str, float]]:
    """Per stage (`build`, then each batch), each query's estimate on the
    state as saved and loaded at that stage."""
    schema, tables = generate_synthetic(SPEC, seed=SEED)
    schema = schema_from_document({**schema.document, "categorical_threshold":
                                   CATEGORICAL_THRESHOLD})
    state = build_state(schema, tables, CONFIG)
    discover_correlations(state, tables)
    queries = filtered_queries(schema, tables)
    join_queries = [sql_of(schema, shape, []) for shape in JOIN_SHAPES]
    with tempfile.TemporaryDirectory(prefix="tkhist-pinned-") as workdir:
        path = os.path.join(workdir, "state.json")
        save_state(state, path)
        state = load_state(path)
        out = {"build": estimates(state, join_queries + queries)}
        for stage, table, rows, seed, noise in BATCHES:
            others = {f"t{i}": 1 for i in range(1, 6) if f"t{i}" != table}
            _, batch = generate_synthetic(SyntheticSpec(
                tables=5, rows=rows, layout="mixed", distinct_keys=400,
                correlated=True, noise_span=noise, row_overrides=others),
                seed=seed)
            updated = load_state(path, table=table)
            apply_rows(updated, table, batch[table])
            save_state(updated, path)
            state = load_state(path)
            out[stage] = estimates(state, queries)
    return out


def differences(pinned, current) -> list[str]:
    """One line per stage or query missing from either side, and per
    estimate further than RTOL from its pinned value."""
    out = [f"stages differ: {sorted(pinned)} != {sorted(current)}"
           ] if sorted(pinned) != sorted(current) else []
    for stage in sorted(set(pinned) & set(current)):
        want, got = pinned[stage], current[stage]
        for sql in sorted(set(want) ^ set(got)):
            out.append(f"{stage}: only {'pinned' if sql in want else 'now'}: "
                       f"{sql}")
        for sql in sorted(set(want) & set(got)):
            if not math.isclose(got[sql], float.fromhex(want[sql]),
                                rel_tol=RTOL, abs_tol=0.0):
                out.append(f"{stage}: {sql}: pinned "
                           f"{float.fromhex(want[sql])!r}, now {got[sql]!r}")
    return out


def test_estimates_match_pinned_values():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert differences(pinned, current_estimates()) == []


def main() -> int:
    ap = argparse.ArgumentParser(description="Compare this tree's estimates "
                                 "with the pinned file, or rewrite it.")
    ap.add_argument("--rewrite", action="store_true",
                    help="write the current estimates to the pinned file")
    args = ap.parse_args()
    current = current_estimates()
    if args.rewrite:
        with open(PINNED, "w", encoding="utf-8") as fh:
            json.dump({stage: {sql: float(v).hex() for sql, v in ests.items()}
                       for stage, ests in current.items()},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {sum(map(len, current.values()))} estimates to {PINNED}")
        return 0
    with open(PINNED, encoding="utf-8") as fh:
        diff = differences(json.load(fh), current)
    print("\n".join(diff) or "every estimate matches the pinned file")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
