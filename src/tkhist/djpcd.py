"""Correlation between dominant join keys and filter attributes.

Offline, the join pipeline is run over the longest declared join templates;
the keys carried by the resulting dominant maps are the join paths worth
tracking.  For each table and filterable attribute we then record, per
dominant key, the envelope of attribute values observed with that key
(min/max for ordered columns, the exact value set for categorical ones),
one `Envelopes` of columns per (table, domain, attribute) section.

Online, a dominant key is excluded from a query's join when its envelope
cannot intersect a predicate's satisfying set, tested a section at a time.
Envelope disjointness implies no row with that key satisfies the filter, so
exclusion never removes true result mass.  The estimator drops excluded keys
once, from each histogram it lifts on the key's domain; the join algebra
never sees them.
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
    """Union dominant-map keys per domain, keeping the
    DOMINANT_KEYS_PER_DOMAIN largest contributors per domain."""
    weight: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for comp in group_composites:
        per_dom = weight[comp.domain.id]
        for dom_map in comp.dominant:
            for key, est in dom_map.items():
                per_dom[key] += est
    out = {}
    for dom, per_key in weight.items():
        ranked = sorted(per_key.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        out[dom] = {k for k, _ in ranked[:DOMINANT_KEYS_PER_DOMAIN]}
    return out


def build_correlation_map(schema: Schema,
                          tables: dict[str, TableData],
                          column_domain: dict[str, str],
                          categorical,
                          dominant_by_domain: dict[str, set]) -> dict:
    """Group each table's rows carrying dominant keys by key and record
    per-key attribute envelopes: a value set for a column of `categorical`
    (a collection of (table, column) pairs) that holds strings, a range
    otherwise.  Returns {(table, domain_id, attr): Envelopes}.

    Membership is decided once per distinct key with Python set semantics,
    so an INTEGER key 3 and a REAL key 3.0 of one domain match, and integers
    beyond 2**53 are compared exactly rather than through float64.
    """
    cmap: dict[tuple[str, str, str], Envelopes] = {}
    for tdef in schema.tables:
        data = tables[tdef.name]
        key_cols = [(c.name, column_domain[f"{tdef.name}.{c.name}"])
                    for c in tdef.columns
                    if f"{tdef.name}.{c.name}" in column_domain]
        for kc, dom in key_cols:
            dominant = dominant_by_domain.get(dom)
            if not dominant:
                continue
            keys, key_id = np.unique(data.columns[kc], return_inverse=True)
            is_dominant = np.fromiter((v in dominant for v in keys.tolist()),
                                      dtype=bool, count=len(keys))
            hit = is_dominant[key_id] & ~data.null_mask[kc]
            if not hit.any():
                continue
            rows = np.flatnonzero(hit)
            rows = rows[np.argsort(key_id[rows], kind="stable")]
            for cdef in tdef.columns:
                if cdef.name == kc:
                    continue
                section = _scan_attribute(
                    data.columns[cdef.name], data.null_mask[cdef.name],
                    keys, key_id, rows,
                    categorical=(tdef.name, cdef.name) in categorical
                    and data.columns[cdef.name].dtype == object)
                if section is not None:
                    cmap[(tdef.name, dom, cdef.name)] = section
    return cmap


def _scan_attribute(avals: np.ndarray, amask: np.ndarray, keys: np.ndarray,
                    key_id: np.ndarray, rows: np.ndarray,
                    categorical: bool) -> Envelopes | None:
    """Per-key envelopes of one attribute in one grouped pass.

    `rows` are the dominant-key rows sorted by `key_id` (an index into the
    sorted `keys`), so each key's values form one segment: a range is its
    `reduceat` minimum and maximum, a set its distinct values.  Null and NaN
    values are skipped (`matches` accepts neither), so exclusion stays sound.
    None when no row is left.
    """
    rows = rows[~amask[rows]]
    vals = avals[rows]
    if vals.dtype.kind == "f":
        valid = ~np.isnan(vals)
        rows, vals = rows[valid], vals[valid]
    if len(rows) == 0:
        return None
    ids = key_id[rows]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    seg_keys = keys[ids[starts]]
    if categorical:
        ends = np.r_[starts[1:], len(rows)]
        return Envelopes(seg_keys, values=[
            frozenset(vals[s:e].tolist())
            for s, e in zip(starts.tolist(), ends.tolist())])
    return Envelopes(seg_keys, lo=np.minimum.reduceat(vals, starts),
                     hi=np.maximum.reduceat(vals, starts))


def find_excluded_keys(query: Query, correlations: dict,
                       column_domain: dict[str, str]) -> dict[str, frozenset]:
    """Per key domain, dominant keys whose envelopes reject some predicate.

    Exclusions union across predicates; attributes absent from the map
    contribute none.
    """
    excluded: dict[str, set] = defaultdict(set)
    for pred in query.predicates:
        alias, attr = pred.column.split(".", 1)
        table = query.aliases[alias]
        for (tbl, dom, att), section in correlations.items():
            if tbl == table and att == attr:
                excluded[dom].update(
                    section.keys[section.excludes(pred)].tolist())
    return {dom: frozenset(keys) for dom, keys in excluded.items()}
