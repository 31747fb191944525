"""Exact COUNT(*) of acyclic equi-join queries by bottom-up semi-join counting.

The join graph of a bound `tkhist.queryfront.Query` is a tree over aliases.
Counting runs from the leaves to the root (Yannakakis, VLDB 1981): every alias
becomes a map from the key it shares with its parent to the number of result
tuples its subtree contributes per key value.  A parent row's weight is the
product of its children's weights at the row's join keys; summing row weights
per parent key gives the parent's map, and the root's sum is the count.

Work is linear in the rows of the tables, with no cap on the result size.
Predicates are numpy masks.  Rows are collapsed to distinct join-key tuples,
sorted once per table so that each query only counts, multiplies and sums
fixed arrays.  Products and sums run on int64 while the operands' maxima
prove that no overflow can occur, and on Python ints otherwise, because
five-table counts exceed the int64 range.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from tkhist.catalog import TableData
from tkhist.predicate import Predicate, matches
from tkhist.queryfront import Query

_SAFE = 2 ** 62


def predicate_mask(pred: Predicate, values: np.ndarray,
                   nulls: np.ndarray) -> np.ndarray:
    """Rows of one column that satisfy a predicate; nulls never match."""
    op, ref = pred.op, pred.value
    if values.dtype == object:
        hit = np.fromiter((matches(pred, v) for v in values.tolist()),
                          dtype=bool, count=len(values))
    elif op == "=":
        hit = values == ref
    elif op == "<":
        hit = values < ref
    elif op == "<=":
        hit = values <= ref
    elif op == ">":
        hit = values > ref
    elif op == ">=":
        hit = values >= ref
    elif op == "between":
        hit = (values >= ref[0]) & (values <= ref[1])
    else:  # in
        hit = np.isin(values, np.asarray(sorted(ref)))
    return hit & ~nulls


@dataclass
class _Tuples:
    """Distinct tuples of some key columns of one table, sorted by column."""

    values: list[np.ndarray]  # per column, one entry per distinct tuple
    tid: np.ndarray  # per row, index of its tuple
    starts: np.ndarray  # first tuple of each distinct first-column value
    max_run: int  # most tuples sharing one first-column value


def _tuples(data: TableData, cols: list[str]) -> _Tuples:
    arrays = [data.columns[c] for c in cols]
    order = np.lexsort(arrays[::-1])
    ordered = [a[order] for a in arrays]
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for a in ordered:
        new[1:] |= a[1:] != a[:-1]
    tid = np.empty(len(order), dtype=np.int64)
    tid[order] = np.cumsum(new) - 1
    values = [a[new] for a in ordered]
    first = values[0]
    starts = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
    runs = np.diff(np.r_[starts, len(first)])
    return _Tuples(values=values, tid=tid, starts=starts,
                   max_run=int(runs.max()) if len(runs) else 0)


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != object and b.dtype != object and (
            len(a) == 0 or int(a.max()) * int(b.max()) < _SAFE):
        return a * b
    return a.astype(object) * b.astype(object)


def _segment_sums(w: np.ndarray, starts: np.ndarray, max_run: int) -> np.ndarray:
    if len(w) == 0:
        return w
    if w.dtype != object and int(w.max()) * max_run >= _SAFE:
        w = w.astype(object)
    return np.add.reduceat(w, starts)


def _total(w: np.ndarray) -> int:
    if w.dtype != object and len(w) and int(w.max()) * len(w) >= _SAFE:
        w = w.astype(object)
    return int(w.sum())


class ExactCounter:
    """Exact counts over a set of tables, with per-table sorted tuples cached.

    Use `replace` to change a table, so that its cached tuples are dropped.
    """

    def __init__(self, tables: dict[str, TableData]):
        self.tables = dict(tables)
        self._cache: dict[tuple, _Tuples] = {}
        self._lookups: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def replace(self, table: str, data: TableData) -> None:
        self.tables[table] = data
        self._cache = {k: v for k, v in self._cache.items() if k[0] != table}
        self._lookups = {k: v for k, v in self._lookups.items()
                         if k[0] != table and k[3] != table}

    def _tuples_of(self, table: str, cols: tuple[str, ...]) -> _Tuples:
        key = (table, cols)
        if key not in self._cache:
            self._cache[key] = _tuples(self.tables[table], list(cols))
        return self._cache[key]

    def _positions(self, probe: np.ndarray, keys: np.ndarray,
                   cache_key: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Index into `keys` of each probe value, and whether it is there."""
        if cache_key not in self._lookups:
            if len(keys) == 0:
                pos = np.zeros(len(probe), dtype=np.int64)
                found = np.zeros(len(probe), dtype=bool)
            else:
                pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
                found = keys[pos] == probe
            self._lookups[cache_key] = (pos, found)
        return self._lookups[cache_key]

    def count(self, query: Query) -> int:
        """Exact COUNT(*) of an acyclic equi-join query with filters."""
        adj: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        join_cols: dict[str, set[str]] = defaultdict(set)
        for a, b in query.join_edges:
            (aa, ca), (ab, cb) = a.split(".", 1), b.split(".", 1)
            adj[aa].append((ca, ab, cb))
            adj[ab].append((cb, aa, ca))
            join_cols[aa].add(ca)
            join_cols[ab].add(cb)
        preds: dict[str, list[Predicate]] = defaultdict(list)
        for p in query.predicates:
            preds[p.column.split(".", 1)[0]].append(p)

        def mask_of(alias: str) -> np.ndarray:
            data = self.tables[query.aliases[alias]]
            keep = np.ones(data.row_count, dtype=bool)
            for col in join_cols[alias]:
                keep &= ~data.null_mask[col]
            for p in preds[alias]:
                col = p.column.split(".", 1)[1]
                keep &= predicate_mask(p, data.columns[col],
                                       data.null_mask[col])
            return keep

        def subtree(alias: str, parent: str | None, parent_col: str | None):
            """(columns, tuples, weights per `parent_col` key); at the root,
            the count."""
            table = query.aliases[alias]
            mask = mask_of(alias)
            links = [(col, child, ccol) for col, child, ccol in adj[alias]
                     if child != parent]
            cols = [parent_col] if parent_col is not None else []
            cols += sorted({col for col, _, _ in links} - set(cols))
            if not cols:  # a lone alias without joins
                return int(mask.sum())
            tup = self._tuples_of(table, tuple(cols))
            weight = np.bincount(tup.tid[mask],
                                 minlength=len(tup.values[0])).astype(np.int64)
            for col, child, ccol in links:
                ctable = query.aliases[child]
                ccols, ctup, cw = subtree(child, alias, ccol)
                pos, found = self._positions(
                    tup.values[cols.index(col)], ctup.values[0][ctup.starts],
                    (table, tuple(cols), col, ctable, ccols))
                # fancy indexing copies, so zeroing the misses is safe
                gathered = cw[pos] if len(cw) else np.zeros(len(pos),
                                                            dtype=np.int64)
                gathered[~found] = 0
                weight = _multiply(weight, gathered)
            if parent_col is None:
                return _total(weight)
            return tuple(cols), tup, _segment_sums(weight, tup.starts,
                                                   tup.max_run)

        root = next(iter(query.aliases))
        seen: set[str] = set()
        stack = [root]
        while stack:
            alias = stack.pop()
            if alias not in seen:
                seen.add(alias)
                stack.extend(child for _, child, _ in adj[alias])
        if seen != set(query.aliases):
            raise ValueError("join graph is disconnected")
        return subtree(root, None, None)
