"""Ground-truth join cardinalities.

`oracle_count` counts bottom-up over the acyclic join tree (semi-join
counting, Yannakakis, VLDB 1981): every alias maps each value of the key it
shares with its parent to the number of result tuples its subtree yields for
that value.  A row's weight is the product of its children's weights at its
join keys, and the root's weights sum to the count.  Work is linear in the
rows of the tables and counts are Python ints, so there is no size cap and
no overflow.  `nested_loop_count` is a deliberately separate, row-at-a-time
implementation used to cross-check it on small instances.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from .catalog import TableData, check_join_tree
from .errors import CyclicJoinError, PlanError
from .predicate import matches
from .queryfront import Query


def oracle_count(query: Query, tables: dict[str, TableData],
                 cap=None) -> int:
    """Exact COUNT(*) of an equi-join query with filters whose joins connect
    its tables into one tree (`check_join_tree`, as `decompose` requires).

    Rows with a null join key never join; rows with a null on a predicate
    column never match.  Keys are compared as Python values, so INTEGER 3
    joins REAL 3.0.  `cap` is not read: counting needs no size cap, and the
    keyword stays only for callers that still pass it.
    """
    check_join_tree(query.aliases, query.join_edges, CyclicJoinError,
                    PlanError)
    adj: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for a, b in query.join_edges:
        (aa, ca), (ab, cb) = a.split(".", 1), b.split(".", 1)
        adj[aa].append((ca, ab, cb))
        adj[ab].append((cb, aa, ca))

    return sum(_weights(query, tables, adj, next(iter(query.aliases)),
                        None, None).values())


def _weights(query: Query, tables: dict[str, TableData], adj: dict,
             alias: str, parent: str | None, key_col: str | None) -> dict:
    """Subtree result tuples of `alias` per value of `key_col` (None at the
    root).  Not a closure: a self-calling closure is a cycle that keeps
    `tables` alive."""
    data = tables[query.aliases[alias]]
    links = [(col, _weights(query, tables, adj, child, alias, ccol))
             for col, child, ccol in adj[alias] if child != parent]
    preds = [(p, p.column.split(".", 1)[1]) for p in query.predicates
             if p.column.split(".", 1)[0] == alias]
    keep = np.ones(data.row_count, dtype=bool)
    for col in {col for col, _, _ in adj[alias]} | {c for _, c in preds}:
        keep &= ~data.null_mask[col]
    rows = np.flatnonzero(keep)
    for p, col in preds:
        rows = rows[[matches(p, v)
                     for v in data.columns[col][rows].tolist()]]
    keys = (data.columns[key_col][rows].tolist() if key_col
            else [None] * len(rows))
    child_keys = [(data.columns[col][rows].tolist(), w)
                  for col, w in links]
    out: dict = defaultdict(int)
    for i, key in enumerate(keys):
        weight = 1
        for values, w in child_keys:
            weight *= w.get(values[i], 0)
        if weight:
            out[key] += weight
    return out


def nested_loop_count(query: Query, tables: dict[str, TableData]) -> int:
    """Independent row-level nested-loop join over Python values, as in
    `oracle_count`; exponential, small inputs only."""
    aliases = list(query.aliases)
    data = {a: tables[t] for a, t in query.aliases.items()}
    values = {a: {c: col.tolist() for c, col in tables[t].columns.items()}
              for a, t in query.aliases.items()}
    preds_by_alias: dict[str, list] = defaultdict(list)
    for p in query.predicates:
        preds_by_alias[p.column.split(".", 1)[0]].append(p)
    edges = [((a.split(".")[0], a.split(".")[1]),
              (b.split(".")[0], b.split(".")[1]))
             for a, b in query.join_edges]
    join_cols: dict[str, set[str]] = defaultdict(set)
    for (ea, ca), (eb, cb) in edges:
        join_cols[ea].add(ca)
        join_cols[eb].add(cb)
    candidates = {a: [i for i in range(data[a].row_count)
                      if _row_passes(data[a], values[a], join_cols[a],
                                     preds_by_alias[a], i)]
                  for a in aliases}
    return _count_assignments(aliases, candidates, values, edges, 0, {})


def _row_passes(d: TableData, values: dict, join_cols: set,
                preds: list, i: int) -> bool:
    """Row i of one alias has non-null join keys and passes its predicates."""
    for col in join_cols:
        if d.null_mask[col][i]:
            return False
    for p in preds:
        col = p.column.split(".", 1)[1]
        if d.null_mask[col][i]:
            return False
        v = values[col][i]
        op, ref = p.op, p.value
        if op == "=":
            if v != ref:
                return False
        elif op == "<":
            if not v < ref:
                return False
        elif op == "<=":
            if not v <= ref:
                return False
        elif op == ">":
            if not v > ref:
                return False
        elif op == ">=":
            if not v >= ref:
                return False
        elif op == "between":
            if not ref[0] <= v <= ref[1]:
                return False
        else:  # in
            if v not in ref:
                return False
    return True


def _count_assignments(aliases: list, candidates: dict, values: dict,
                       edges: list, level: int, assignment: dict) -> int:
    """Result tuples extending `assignment` (alias -> row) over the aliases
    from `level` on.  Not a closure: a self-calling closure is a cycle that
    keeps the value lists alive."""
    if level == len(aliases):
        return 1
    alias = aliases[level]
    total = 0
    for i in candidates[alias]:
        ok = True
        for (ea, ca), (eb, cb) in edges:
            if ea == alias and eb in assignment:
                j = assignment[eb]
                if values[ea][ca][i] != values[eb][cb][j]:
                    ok = False
                    break
            elif eb == alias and ea in assignment:
                j = assignment[ea]
                if values[eb][cb][i] != values[ea][ca][j]:
                    ok = False
                    break
        if not ok:
            continue
        assignment[alias] = i
        total += _count_assignments(aliases, candidates, values, edges,
                                    level + 1, assignment)
        del assignment[alias]
    return total
