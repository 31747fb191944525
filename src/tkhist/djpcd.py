"""Correlation between dominant join keys and filter attributes.

Offline, the join pipeline is run over the longest declared join templates;
the keys carried by the resulting dominant maps are the join paths worth
tracking.  For each table and filterable attribute we then record, per
dominant key, the envelope of attribute values observed with that key
(min/max for ordered columns, the exact value set for categorical ones).

Online, a dominant key is excluded from a query's join when its envelope
cannot intersect a predicate's satisfying set.  Envelope disjointness implies
no row with that key satisfies the filter, so exclusion never removes true
result mass.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from .catalog import Schema, TableData, split_qualified
from .joinengine import CompositeHist
from .predicate import Predicate, matches
from .queryfront import Query

# envelope forms: ("range", lo, hi) | ("set", frozenset)


def collect_dominant_keys(group_composites: list[CompositeHist],
                          cap: int) -> dict[str, set]:
    """Union dominant-map keys per domain, keeping the `cap` largest
    contributors per domain."""
    weight: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for comp in group_composites:
        per_dom = weight[comp.domain.id]
        for b in comp.bins:
            for key, est in b.dominant.items():
                per_dom[key] += est
    out = {}
    for dom, per_key in weight.items():
        ranked = sorted(per_key.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        out[dom] = {k for k, _ in ranked[:cap]}
    return out


def build_correlation_map(schema: Schema,
                          tables: dict[str, TableData],
                          column_domain: dict[str, str],
                          column_class: dict[tuple[str, str], str],
                          dominant_by_domain: dict[str, set]) -> dict:
    """Group each table's rows carrying dominant keys by key and record
    per-key attribute envelopes.
    Returns {(table, domain_id, attr): {key: env}}.

    Membership is decided once per distinct key with Python set semantics,
    so an INTEGER key 3 and a REAL key 3.0 of one domain match, and integers
    beyond 2**53 are compared exactly rather than through float64.
    """
    cmap: dict[tuple[str, str, str], dict] = {}
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
                env_by_key = _scan_attribute(
                    data.columns[cdef.name], data.null_mask[cdef.name],
                    keys, key_id, rows,
                    categorical=column_class.get(
                        (tdef.name, cdef.name)) == "categorical"
                    and data.columns[cdef.name].dtype == object)
                if env_by_key:
                    cmap[(tdef.name, dom, cdef.name)] = env_by_key
    return cmap


def _scan_attribute(avals: np.ndarray, amask: np.ndarray, keys: np.ndarray,
                    key_id: np.ndarray, rows: np.ndarray,
                    categorical: bool) -> dict:
    """Per-key envelopes of one attribute in one grouped pass.

    `rows` are the dominant-key rows stably sorted by `key_id` (an index into
    `keys`), so each key's values form one segment: a range is the segment's
    `reduceat` minimum and maximum, a set its distinct values.  Null and NaN
    values are skipped; `matches` never accepts either, so exclusion stays
    sound and the envelope does not depend on row order.  Keys enter the map
    in the order of their first recorded row.
    """
    rows = rows[~amask[rows]]
    vals = avals[rows]
    if vals.dtype.kind == "f":
        valid = ~np.isnan(vals)
        rows, vals = rows[valid], vals[valid]
    if len(rows) == 0:
        return {}
    ids = key_id[rows]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    seg_keys = keys[ids[starts]].tolist()
    if categorical:
        ends = np.r_[starts[1:], len(rows)]
        envs = [("set", frozenset(vals[s:e].tolist()))
                for s, e in zip(starts.tolist(), ends.tolist())]
    else:
        envs = [("range", lo, hi) for lo, hi in zip(
            np.minimum.reduceat(vals, starts).tolist(),
            np.maximum.reduceat(vals, starts).tolist())]
    return {seg_keys[g]: envs[g]
            for g in np.argsort(rows[starts], kind="stable").tolist()}


def envelope_excludes(env, pred: Predicate, min_only: bool = False) -> bool:
    """True iff no value inside the envelope can satisfy the predicate.

    `min_only` reproduces the minimum-value-only encoding: the recorded
    maximum is ignored (treated as unbounded), which decides upper-bound
    predicates and leaves lower-bound ones conservative.
    """
    if env[0] == "set":
        return not any(matches(pred, v) for v in env[1])
    lo, hi = env[1], env[2]
    if min_only:
        hi = float("inf")
    op, val = pred.op, pred.value
    if op == "=":
        return val < lo or val > hi
    if op == "<":
        return lo >= val
    if op == "<=":
        return lo > val
    if op == ">":
        return hi <= val
    if op == ">=":
        return hi < val
    if op == "between":
        a, b = val
        return hi < a or lo > b
    if op == "in":
        return not any(lo <= v <= hi for v in val)
    return False


def find_excluded_keys(query: Query, correlations: dict,
                       column_domain: dict[str, str],
                       min_only: bool = False) -> dict[str, frozenset]:
    """Per key domain, dominant keys whose envelopes reject some predicate.

    Exclusions union across predicates; attributes absent from the map
    contribute none.
    """
    if not correlations:
        return {}
    excluded: dict[str, set] = defaultdict(set)
    for pred in query.predicates:
        alias, attr = pred.column.split(".", 1)
        table = query.aliases[alias]
        for (tbl, dom, att), env_by_key in correlations.items():
            if tbl != table or att != attr:
                continue
            for key, env in env_by_key.items():
                if envelope_excludes(env, pred, min_only=min_only):
                    excluded[dom].add(key)
    return {dom: frozenset(keys) for dom, keys in excluded.items()}
