"""Ground-truth join cardinalities.

`oracle_count` executes the query as a sequence of hash joins over a
run-length-compressed intermediate (distinct tuples of still-needed join
columns with multiplicities), so counts far beyond memory limits stay exact
as long as the distinct-key structure is small.  `nested_loop_count` is a
deliberately separate, row-at-a-time implementation used to cross-check the
hash join on small instances.
"""
from __future__ import annotations

from collections import defaultdict

from .catalog import TableData
from .errors import OracleCapError, PlanError
from .histcore import _scalar
from .predicate import matches
from .queryfront import Query

DEFAULT_CAP = 10 ** 8


def _alias_rows(query: Query, alias: str, tables: dict[str, TableData],
                join_cols: set[str]) -> list[dict]:
    """Rows of one alias surviving its predicates, as dicts of needed columns.

    Rows with a null join key never participate; rows with a null on a
    predicate column never match.
    """
    data = tables[query.aliases[alias]]
    preds = [p for p in query.predicates if p.column.split(".", 1)[0] == alias]
    needed = set(join_cols)
    for p in preds:
        needed.add(p.column.split(".", 1)[1])
    rows = []
    for i in range(data.row_count):
        ok = True
        for col in join_cols:
            if data.null_mask[col][i]:
                ok = False
                break
        if not ok:
            continue
        for p in preds:
            col = p.column.split(".", 1)[1]
            if data.null_mask[col][i] or not matches(p, _scalar(data.columns[col][i])):
                ok = False
                break
        if not ok:
            continue
        rows.append({col: _scalar(data.columns[col][i]) for col in needed})
    return rows


def _join_order(query: Query) -> list[str]:
    """BFS over the join graph starting from the first FROM alias."""
    adj: dict[str, set[str]] = defaultdict(set)
    for a, b in query.join_edges:
        aa, ab = a.split(".")[0], b.split(".")[0]
        adj[aa].add(ab)
        adj[ab].add(aa)
    order = []
    first = next(iter(query.aliases))
    seen = {first}
    frontier = [first]
    while frontier:
        alias = frontier.pop(0)
        order.append(alias)
        for nxt in sorted(adj[alias]):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(order) != len(query.aliases):
        raise PlanError("disconnected join graph in oracle query")
    return order


def oracle_count(query: Query, tables: dict[str, TableData],
                 cap: int = DEFAULT_CAP) -> int:
    """Exact COUNT(*) of an acyclic equi-join query with filters."""
    join_cols: dict[str, set[str]] = defaultdict(set)
    for a, b in query.join_edges:
        for ref in (a, b):
            alias, col = ref.split(".", 1)
            join_cols[alias].add(col)

    if len(query.aliases) == 1:
        alias = next(iter(query.aliases))
        return len(_alias_rows(query, alias, tables, join_cols[alias]))

    order = _join_order(query)
    edges = [((a.split(".")[0], a.split(".")[1]),
              (b.split(".")[0], b.split(".")[1]))
             for a, b in query.join_edges]

    def edges_between(alias: str, processed: set[str]):
        out = []
        for (ea, ca), (eb, cb) in edges:
            if ea == alias and eb in processed:
                out.append(((eb, cb), ca))
            elif eb == alias and ea in processed:
                out.append(((ea, ca), cb))
        return out

    first = order[0]
    processed = {first}

    def needed_cols(processed: set[str]) -> list[tuple[str, str]]:
        need = set()
        for (ea, ca), (eb, cb) in edges:
            if ea in processed and eb not in processed:
                need.add((ea, ca))
            elif eb in processed and ea not in processed:
                need.add((eb, cb))
        return sorted(need)

    active = needed_cols(processed)
    inter: dict[tuple, int] = defaultdict(int)
    for row in _alias_rows(query, first, tables, join_cols[first]):
        inter[tuple(row[c] for a, c in active)] += 1

    for alias in order[1:]:
        conds = edges_between(alias, processed)
        probe_pos = [active.index(owner) for owner, _ in conds]
        probe_cols = [col for _, col in conds]
        new_processed = processed | {alias}
        new_active = needed_cols(new_processed)
        keep_pos = [active.index(ac) for ac in new_active if ac in active]
        own_new = [c for a, c in new_active if a == alias]

        index: dict[tuple, dict] = defaultdict(lambda: defaultdict(int))
        for row in _alias_rows(query, alias, tables, join_cols[alias]):
            k = tuple(row[c] for c in probe_cols)
            index[k][tuple(row[c] for c in own_new)] += 1

        new_inter: dict[tuple, int] = defaultdict(int)
        logical = 0
        for key, cnt in inter.items():
            bucket = index.get(tuple(key[p] for p in probe_pos))
            if not bucket:
                continue
            kept = tuple(key[p] for p in keep_pos)
            for bkey, bcnt in bucket.items():
                new_inter[kept + bkey] += cnt * bcnt
                logical += cnt * bcnt
        if logical > cap:
            raise OracleCapError(
                f"intermediate size {logical} exceeds cap {cap}")
        inter = new_inter
        processed = new_processed
        active = new_active

    return sum(inter.values())


def nested_loop_count(query: Query, tables: dict[str, TableData]) -> int:
    """Independent row-level nested-loop join; exponential, small inputs only."""
    aliases = list(query.aliases)
    data = {a: tables[t] for a, t in query.aliases.items()}
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

    def passes(alias: str, i: int) -> bool:
        d = data[alias]
        for col in join_cols[alias]:
            if d.null_mask[col][i]:
                return False
        for p in preds_by_alias[alias]:
            col = p.column.split(".", 1)[1]
            if d.null_mask[col][i]:
                return False
            v = d.columns[col][i]
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
                if _scalar(v) not in ref:
                    return False
        return True

    candidates = {a: [i for i in range(data[a].row_count) if passes(a, i)]
                  for a in aliases}

    def rec(level: int, assignment: dict[str, int]) -> int:
        if level == len(aliases):
            return 1
        alias = aliases[level]
        total = 0
        for i in candidates[alias]:
            ok = True
            for (ea, ca), (eb, cb) in edges:
                if ea == alias and eb in assignment:
                    j = assignment[eb]
                    if data[ea].columns[ca][i] != data[eb].columns[cb][j]:
                        ok = False
                        break
                elif eb == alias and ea in assignment:
                    j = assignment[ea]
                    if data[eb].columns[cb][i] != data[ea].columns[ca][j]:
                        ok = False
                        break
            if not ok:
                continue
            assignment[alias] = i
            total += rec(level + 1, assignment)
            del assignment[alias]
        return total

    return rec(0, {})
