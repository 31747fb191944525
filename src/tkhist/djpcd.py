"""Correlation between dominant join keys and filter attributes.

Offline, the join pipeline is run over the longest declared join templates;
the keys that the resulting composites hold dominant are the join paths
worth tracking.  For each table and filterable attribute we then record, per
dominant key, the envelope of attribute values observed with that key
(min/max for ordered columns, the exact value set for string ones), one
`Envelopes` of columns per (table, key column, attribute) section.

Online, a dominant key is excluded from a query's join when its envelope
cannot intersect a predicate's satisfying set, tested a section at a time
through each key column the query joins.  Envelope disjointness implies no
row with that key in that column satisfies the filter, so exclusion never
removes true result mass.  The estimator drops excluded keys once, from
each histogram it lifts on the key's domain; the join algebra never sees
them.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .catalog import Schema, TableData
from .joinengine import CompositeHist
from .predicate import Predicate, matches
from .queryfront import Query

DOMINANT_KEYS_PER_DOMAIN = 1000  # keys tracked per key domain by discovery


@dataclass(frozen=True, eq=False)
class Envelopes:
    """One correlation-map section as columns: sorted, distinct dominant keys
    and per key the range `lo[i]..hi[i]` or the value set `values[i]`."""

    keys: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    values: list[frozenset] | None = None

    def __len__(self) -> int:  # the envelope count
        return len(self.keys)

    def excludes(self, pred: Predicate) -> np.ndarray:
        """Per key, True iff no value in its envelope can satisfy `pred`."""
        if self.values is not None:
            return np.array([not any(matches(pred, v) for v in vals)
                             for vals in self.values], dtype=bool)
        lo, hi, op, val = self.lo, self.hi, pred.op, pred.value
        if any((lo.dtype.kind == "f") != isinstance(v, float)
               or abs(v) >= 2 ** 63
               for v in (val if op in ("between", "in") else [val])):
            # numpy would compare through float64, where 2.0**53 == 2**53 + 1;
            # object arrays compare each pair in Python, exactly
            lo, hi = lo.astype(object), hi.astype(object)
        with np.errstate(invalid="ignore"):  # a NaN literal matches nothing
            if op == "=":
                return (lo > val) | (hi < val)
            if op == "<":
                return lo >= val
            if op == "<=":
                return lo > val
            if op == ">":
                return hi <= val
            if op == ">=":
                return hi < val
            if op == "between":
                return (hi < val[0]) | (lo > val[1])
            inside = np.zeros(len(self), dtype=bool)  # "in"
            for v in val:
                inside |= (lo <= v) & (hi >= v)
            return ~inside


def collect_dominant_keys(group_composites: list[CompositeHist]) -> dict[str, set]:
    """Sum the composites' dominant mass vectors per domain and keep, of the
    keys with mass, the DOMINANT_KEYS_PER_DOMAIN largest per domain; of the
    keys tied at the cut, those with the smallest repr."""
    weight: dict[str, tuple] = {}  # domain id -> (key index, summed mass)
    for comp in group_composites:
        index, w = weight.get(comp.domain.id, (comp.index, 0.0))
        weight[comp.domain.id] = (index, w + comp.mass)
    out = {}
    for dom, (index, w) in weight.items():
        held = np.flatnonzero(w)
        keys, w = index.keys[held].tolist(), w[held]
        n = len(keys) - DOMINANT_KEYS_PER_DOMAIN
        if n <= 0:
            out[dom] = set(keys)
            continue
        cut = np.partition(w, n)[n]  # the weight of the last key kept
        out[dom] = {keys[i] for i in np.flatnonzero(w > cut).tolist()}
        tied = sorted((keys[i] for i in np.flatnonzero(w == cut).tolist()),
                      key=repr)
        out[dom].update(tied[:DOMINANT_KEYS_PER_DOMAIN - len(out[dom])])
    return out


def build_correlation_map(schema: Schema,
                          tables: dict[str, TableData],
                          column_domain: dict[str, str],
                          dominant_by_domain: dict[str, set]) -> dict:
    """Per-key attribute envelopes of each table's rows that carry dominant
    keys, one scan per key column: a value set for a column of strings
    (object dtype), a range otherwise.  Returns {(table, key column, attr):
    Envelopes}.

    A key matches a dominant key when they are equal in Python, so an
    INTEGER key 3 and a REAL key 3.0 of one domain match, and integers
    beyond 2**53 are compared exactly rather than through float64.
    """
    cmap: dict[tuple[str, str, str], Envelopes] = {}
    for tdef in schema.tables:
        data = tables[tdef.name]
        for kc in (c.name for c in tdef.columns):
            dominant = dominant_by_domain.get(
                column_domain.get(f"{tdef.name}.{kc}"))
            if not dominant:
                continue
            col = data.columns[kc]
            keys = np.unique(_as_dtype(dominant, col.dtype))
            rows = np.flatnonzero(np.isin(col, keys) & ~data.null_mask[kc])
            if len(rows) == 0:
                continue
            ids = np.searchsorted(keys, col[rows])  # each row's key in keys
            for cdef in tdef.columns:
                if cdef.name == kc:
                    continue
                section = _scan_attribute(
                    data.columns[cdef.name], data.null_mask[cdef.name],
                    keys, rows, ids)
                if section is not None:
                    cmap[(tdef.name, kc, cdef.name)] = section
    return cmap


def _as_dtype(keys, dtype: np.dtype) -> np.ndarray:
    """The `keys` (Python numbers) that some value of `dtype` equals in
    Python, each as that value: 3.0 as the int64 3, 2**53 as the float64
    2.0**53, but neither 2.5 nor 2**53 + 1 as any value of the other
    kind, nor a value outside int64 as an int64."""
    cast = float if dtype.kind == "f" else int
    out = []
    for key in keys:
        value = cast(key)  # finite: `TableData` refuses inf, nulls NaN
        if value == key and (cast is float or -2 ** 63 <= value < 2 ** 63):
            out.append(value)
    return np.array(out, dtype=dtype)


def _scan_attribute(avals: np.ndarray, amask: np.ndarray, keys: np.ndarray,
                    rows: np.ndarray, ids: np.ndarray) -> Envelopes | None:
    """Per-key envelopes of one attribute over the dominant-key `rows`,
    where `ids[i]` places the key of `rows[i]` in the sorted `keys`.  A
    range is the `np.minimum.at` and `np.maximum.at` of each key's values;
    a set, of an object column, its distinct values, taken in one grouped
    pass over the rows sorted by key.  Null values, NaN among them
    (`TableData`), are skipped (`matches` accepts none), so exclusion stays
    sound.  None when no row is left.
    """
    keep = ~amask[rows]
    vals, ids = avals[rows[keep]], ids[keep]
    if len(vals) == 0:
        return None
    if vals.dtype == object:
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], vals[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        ends = np.r_[starts[1:], len(ids)]
        return Envelopes(keys[ids[starts]], values=[
            frozenset(vals[s:e].tolist())
            for s, e in zip(starts.tolist(), ends.tolist())])
    lo = np.empty(len(keys), dtype=vals.dtype)
    lo[ids] = vals  # each key's bounds start at one of its values
    hi = lo.copy()
    np.minimum.at(lo, ids, vals)
    np.maximum.at(hi, ids, vals)
    seen = np.bincount(ids, minlength=len(keys)) > 0
    return Envelopes(keys[seen], lo=lo[seen], hi=hi[seen])


def find_excluded_keys(query: Query, correlations: dict,
                       column_domain: dict[str, str]) -> dict[str, frozenset]:
    """Per key domain, dominant keys whose envelopes reject some predicate,
    through the key columns that the query joins the predicate's table on:
    a section `(table, key column, attribute)` excludes into the key
    column's domain in `column_domain`.

    Exclusions union across predicates; a pair without a section
    contributes none.
    """
    joined = {tuple(ref.split(".", 1)) for edge in query.join_edges
              for ref in edge}  # (alias, column)
    excluded: dict[str, set] = defaultdict(set)
    for pred in query.predicates:
        alias, attr = pred.column.split(".", 1)
        table = query.aliases[alias]
        for kc in (col for al, col in joined if al == alias):
            section = correlations.get((table, kc, attr))
            if section is not None:
                excluded[column_domain[f"{table}.{kc}"]].update(
                    section.keys[section.excludes(pred)].tolist())
    return {dom: frozenset(keys) for dom, keys in excluded.items()}
