import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.errors import CyclicJoinError, PlanError
from tkhist.oracle import nested_loop_count, oracle_count
from tkhist.predicate import Predicate
from tkhist.queryfront import Query, bind, parse_sql
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import make_table


def query(aliases, edges, preds=()):
    return Query(text="", aliases=dict(aliases), join_edges=list(edges),
                 predicates=list(preds))


class TestHashOracle:
    def test_two_table_exact(self):
        # r: key 1 x2, 2 x1; s: key 1 x1, 2 x2 -> 2*1 + 1*2 = 4
        tables = {"r": make_table("r", {"k": [1, 1, 2, 3]}),
                  "s": make_table("s", {"k": [1, 2, 2, 5]})}
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k")])
        assert oracle_count(q, tables) == 4

    def test_null_keys_never_join(self):
        tables = {"r": make_table("r", {"k": [1, 1]},
                                  nulls={"k": [False, True]}),
                  "s": make_table("s", {"k": [1]})}
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k")])
        assert oracle_count(q, tables) == 1

    def test_predicates_applied(self):
        tables = {"r": make_table("r", {"k": [1, 1, 2], "y": [5, 9, 5]}),
                  "s": make_table("s", {"k": [1, 2]})}
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k")],
                  [Predicate("r.y", "=", 5)])
        assert oracle_count(q, tables) == 2

    def test_single_table(self):
        tables = {"r": make_table("r", {"k": [1, 2, 3], "y": [1, 1, 2]})}
        q = query({"r": "r"}, [], [Predicate("r.y", "=", 1)])
        assert oracle_count(q, tables) == 2

    def test_self_alias_pair(self):
        # same table twice under different aliases
        tables = {"r": make_table("r", {"k": [1, 1, 2]})}
        q = query({"x": "r", "y": "r"}, [("x.k", "y.k")])
        assert oracle_count(q, tables) == 2 * 2 + 1

    def test_large_integer_keys_compare_exactly(self):
        big = 2 ** 53  # big + 1 has no float64 of its own
        tables = {"r": make_table("r", {"k": [big, big + 1]}),
                  "s": make_table("s", {"k": [float(big)]})}
        for aliases in ({"r": "r", "s": "s"}, {"s": "s", "r": "r"}):
            q = query(aliases, [("r.k", "s.k")])
            assert oracle_count(q, tables) == 1

    def test_count_past_int64(self):
        n = 20_000  # every row has key 1, so the 5-table count is n ** 5
        spec = SyntheticSpec(tables=5, rows=n, layout="mixed", distinct_keys=1)
        schema, tables = generate_synthetic(spec, seed=1)
        q = bind(parse_sql(
            "SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE t2.k1 = t1.k1"
            " AND t3.k1 = t1.k1 AND t4.k2 = t3.k2 AND t5.k3 = t4.k3"), schema)
        count = oracle_count(q, tables)
        assert count == n ** 5 and count > np.iinfo(np.int64).max

    def test_two_edges_between_one_pair_rejected(self):
        tables = {"r": make_table("r", {"k": [1], "j": [1]}),
                  "s": make_table("s", {"k": [1], "j": [1]})}
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k"), ("r.j", "s.j")])
        with pytest.raises(CyclicJoinError):
            oracle_count(q, tables)

    def test_disconnected_graph_rejected(self):
        tables = {n: make_table(n, {"k": [1]}) for n in ("r", "s", "t")}
        q = query({"r": "r", "s": "s", "t": "t"}, [("r.k", "s.k")])
        with pytest.raises(PlanError):
            oracle_count(q, tables)


    def test_tables_freed_by_reference_counting(self):
        class Tables(dict):  # a plain dict takes no weak reference
            pass

        tables = Tables(r=make_table("r", {"k": [1, 1, 2], "y": [5, 9, 5]}),
                        s=make_table("s", {"k": [1, 2]}))
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k")],
                  [Predicate("r.y", "=", 5)])
        ref = weakref.ref(tables)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert oracle_count(q, tables) == 2
            del tables
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_nested_loop_leaves_no_cycle(self):
        class Tables(dict):  # a plain dict takes no weak reference
            pass

        tables = Tables(r=make_table("r", {"k": [1, 1, 2], "y": [5, 9, 5]}),
                        s=make_table("s", {"k": [1, 2]}))
        q = query({"r": "r", "s": "s"}, [("r.k", "s.k")],
                  [Predicate("r.y", "=", 5)])
        ref = weakref.ref(tables)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert nested_loop_count(q, tables) == 2
            del tables
            assert ref() is None
            assert gc.collect() == 0  # nothing was left for the collector
        finally:
            if enabled:
                gc.enable()


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_agree(self, seed):
        rng = np.random.default_rng(seed)
        n_tables = int(rng.integers(2, 4))
        names = [f"t{i}" for i in range(n_tables)]
        tables = {}
        for name in names:
            n = int(rng.integers(5, 40))
            cols = {"k": rng.integers(0, 8, size=n).tolist(),
                    "y": rng.integers(0, 5, size=n).tolist()}
            tables[name] = make_table(name, cols)
        edges = [(f"{names[i + 1]}.k", f"{names[0]}.k")
                 for i in range(n_tables - 1)]
        preds = []
        if rng.random() < 0.5:
            preds.append(Predicate(f"{names[0]}.y", "<=",
                                   int(rng.integers(0, 5))))
        q = query({n: n for n in names}, edges, preds)
        assert oracle_count(q, tables) == nested_loop_count(q, tables)


@st.composite
def oracle_instances(draw):
    """A star or chain query over 2-4 aliases, some sharing a table.

    Each table has join keys `k` and `j` (INTEGER, or REAL in steps of 0.5
    so that 3 and 3.0 join and 2.5 joins no INTEGER), a numeric `y` and a
    categorical `c`, every column with nulls.  Keys may start at 2**53,
    where INTEGER 2**53 + 1 and the REAL it rounds to (2**53) must not
    join.  A star joins every alias on `k` to the first; a chain joins each
    alias's `k` to the previous `j`.
    """
    n_tables = draw(st.integers(min_value=1, max_value=3))
    base = draw(st.sampled_from([0, 2 ** 53]))
    tables = {}
    for t in range(n_tables):
        rows = draw(st.integers(min_value=1, max_value=9))
        real = draw(st.booleans())
        cols = {}
        for key in ("k", "j"):
            halves = draw(st.lists(st.integers(min_value=0, max_value=5),
                                   min_size=rows, max_size=rows))
            cols[key] = [base + h / 2 if real else base + h // 2
                         for h in halves]
        cols["y"] = draw(st.lists(st.integers(min_value=0, max_value=5),
                                  min_size=rows, max_size=rows))
        cols["c"] = draw(st.lists(st.sampled_from("abc"),
                                  min_size=rows, max_size=rows))
        nulls = {c: draw(st.lists(st.sampled_from([False] * 4 + [True]),
                                  min_size=rows, max_size=rows))
                 for c in cols}
        tables[f"r{t}"] = make_table(f"r{t}", cols, nulls=nulls)
    n_aliases = draw(st.integers(min_value=2, max_value=4))
    aliases = {f"a{i}": f"r{draw(st.integers(0, n_tables - 1))}"
               for i in range(n_aliases)}
    if draw(st.booleans()):  # star
        edges = [(f"a{i}.k", "a0.k") for i in range(1, n_aliases)]
    else:  # chain
        edges = [(f"a{i}.k", f"a{i - 1}.j") for i in range(1, n_aliases)]
    preds = []
    for alias in aliases:
        kind = draw(st.sampled_from(["none", "none", "y", "c"]))
        if kind == "y":
            op = draw(st.sampled_from(["=", "<", "<=", ">", ">=",
                                       "between"]))
            lo = draw(st.integers(min_value=0, max_value=5))
            hi = lo + draw(st.integers(min_value=0, max_value=3))
            preds.append(Predicate(f"{alias}.y", op,
                                   (lo, hi) if op == "between" else lo))
        elif kind == "c":
            values = draw(st.sets(st.sampled_from("abc"), min_size=1))
            preds.append(Predicate(f"{alias}.c", "in", frozenset(values))
                         if len(values) > 1 or draw(st.booleans())
                         else Predicate(f"{alias}.c", "=", min(values)))
    return tables, query(aliases, edges, preds)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(instance=oracle_instances())
    def test_matches_nested_loop(self, instance):
        tables, q = instance
        assert oracle_count(q, tables) == nested_loop_count(q, tables)
