import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain, schema_from_document
from tkhist.djpcd import (build_correlation_map, collect_dominant_keys,
                          envelope_excludes, find_excluded_keys)
from tkhist.estimator import discover_correlations, estimate
from tkhist.histcore import _scalar
from tkhist.joinengine import CompositeBin, CompositeHist
from tkhist.predicate import Predicate
from tkhist.queryfront import Query
from tkhist.state import BuildConfig, build_state

from conftest import make_table, two_table_schema


def reference_correlation_map(schema, tables, column_domain, column_class,
                              dominant_by_domain):
    """Per-row envelope scan: the reference for the grouped pass.  NaN
    attribute values are skipped like nulls."""
    cmap = {}
    for tdef in schema.tables:
        data = tables[tdef.name]
        for kdef in tdef.columns:
            dom = column_domain.get(f"{tdef.name}.{kdef.name}")
            dominant = dominant_by_domain.get(dom)
            if not dominant:
                continue
            kvals, kmask = data.columns[kdef.name], data.null_mask[kdef.name]
            hit = [i for i in range(data.row_count)
                   if not kmask[i] and _scalar(kvals[i]) in dominant]
            for cdef in tdef.columns:
                if cdef.name == kdef.name:
                    continue
                avals = data.columns[cdef.name]
                amask = data.null_mask[cdef.name]
                categorical = (column_class.get((tdef.name, cdef.name))
                               == "categorical" and avals.dtype == object)
                env_by_key = {}
                for i in hit:
                    a = _scalar(avals[i])
                    if amask[i] or a != a:
                        continue
                    key = _scalar(kvals[i])
                    if categorical:
                        env_by_key.setdefault(key, ("set", set()))[1].add(a)
                    elif key in env_by_key:
                        _, lo, hi = env_by_key[key]
                        env_by_key[key] = ("range", min(lo, a), max(hi, a))
                    else:
                        env_by_key[key] = ("range", a, a)
                if categorical:
                    env_by_key = {k: ("set", frozenset(v))
                                  for k, (_, v) in env_by_key.items()}
                if env_by_key:
                    cmap[(tdef.name, dom, cdef.name)] = env_by_key
    return cmap


def mixed_kind_schema():
    """r.k INTEGER joined to s.k REAL: one key domain over both kinds."""
    def table_doc(name, key_kind):
        return {"name": name, "file": f"{name}.csv", "columns": [
            {"name": "k", "kind": key_kind, "role": "key"},
            {"name": "a", "kind": "integer"},
            {"name": "x", "kind": "real"},
            {"name": "c", "kind": "categorical"}]}

    return schema_from_document({
        "tables": [table_doc("r", "integer"), table_doc("s", "real")],
        "foreign_keys": [{"from": "s.k", "to": "r.k"}]})


@st.composite
def mixed_kind_tables(draw):
    def table(name, real_key):
        n = draw(st.integers(min_value=1, max_value=40))
        col = lambda elems: draw(st.lists(elems, min_size=n, max_size=n))
        keys = col(st.integers(min_value=0, max_value=8))
        if real_key:
            keys = [float(v) + draw(st.sampled_from([0.0, 0.5])) for v in keys]
        columns = {
            "k": keys,
            "a": col(st.integers(min_value=-5, max_value=5)),
            "x": [float(v) for v in col(st.one_of(
                st.just(float("nan")),
                st.integers(min_value=-8, max_value=8).map(lambda v: v / 4)))],
            "c": col(st.sampled_from(["p", "q", "r"])),
        }
        nulls = {c: col(st.booleans()) for c in columns
                 if draw(st.booleans())}
        return make_table(name, columns, nulls)

    return {"r": table("r", False), "s": table("s", True)}


def make_domain(id="t.k"):
    d = KeyDomain(id=id, columns=frozenset({id}))
    d.set_boundaries(0, 10, 1)
    return d


class TestCollect:
    def test_keys_ranked_by_contribution(self):
        d = make_domain()
        comp = CompositeHist(d, [CompositeBin({1: 100.0, 2: 5.0, 3: 50.0})])
        out = collect_dominant_keys([comp], cap=2)
        assert out["t.k"] == {1, 3}

    def test_contributions_sum_across_composites(self):
        d = make_domain()
        c1 = CompositeHist(d, [CompositeBin({1: 10.0, 2: 30.0})])
        c2 = CompositeHist(d, [CompositeBin({1: 25.0})])
        out = collect_dominant_keys([c1, c2], cap=1)
        assert out["t.k"] == {1}  # 35 vs 30


class TestEnvelopes:
    @pytest.mark.parametrize("env,pred,expect", [
        (("range", 10, 20), Predicate("c", "<", 5), True),
        (("range", 10, 20), Predicate("c", "<", 15), False),
        (("range", 10, 20), Predicate("c", ">", 20), True),
        (("range", 10, 20), Predicate("c", ">=", 20), False),
        (("range", 10, 20), Predicate("c", "=", 25), True),
        (("range", 10, 20), Predicate("c", "=", 15), False),
        (("range", 10, 20), Predicate("c", "between", (21, 30)), True),
        (("range", 10, 20), Predicate("c", "between", (0, 10)), False),
        (("range", 10, 20), Predicate("c", "in", frozenset({1, 15})), False),
        (("range", 10, 20), Predicate("c", "in", frozenset({1, 2})), True),
        (("set", frozenset({"a", "b"})), Predicate("c", "=", "c"), True),
        (("set", frozenset({"a", "b"})), Predicate("c", "=", "a"), False),
    ])
    def test_disjointness(self, env, pred, expect):
        assert envelope_excludes(env, pred) is expect

    def test_min_only_ignores_upper_bound(self):
        env = ("range", 10, 20)
        # upper-bound predicates still decidable from the minimum
        assert envelope_excludes(env, Predicate("c", "<", 5), min_only=True)
        # lower-bound ones become conservative (no exclusion)
        assert not envelope_excludes(env, Predicate("c", ">", 100),
                                     min_only=True)
        assert envelope_excludes(env, Predicate("c", ">", 100), min_only=False)


class TestMapAndLookup:
    def setup_method(self):
        self.schema = two_table_schema()
        # keys 1,2 dominant; y tracks the key for dominant rows
        self.tables = {
            "r": make_table("r", {"k": [1, 1, 2, 7, 8],
                                  "y": [10, 11, 20, 99, 99]}),
            "s": make_table("s", {"k": [1, 2, 7], "y": [0, 0, 0]}),
        }

    def test_envelopes_recorded_per_key(self):
        cmap = build_correlation_map(
            self.schema, self.tables,
            {"r.k": "r.k", "s.k": "r.k"},
            {("r", "y"): "categorical", ("s", "y"): "categorical"},
            {"r.k": {1, 2}})
        env = cmap[("r", "r.k", "y")]
        assert env[1] == ("range", 10, 11)
        assert env[2] == ("range", 20, 20)

    @pytest.mark.parametrize("ys", [[float("nan"), 5.0], [5.0, float("nan")]])
    def test_nan_values_skipped_in_any_row_order(self, ys):
        ys = ys + [float("nan")]  # key 2 has only NaN: no envelope
        tables = {"r": make_table("r", {"k": [1, 1, 2], "y": ys}),
                  "s": make_table("s", {"k": [1], "y": [0]})}
        cmap = build_correlation_map(
            self.schema, tables, {"r.k": "r.k", "s.k": "r.k"}, {},
            {"r.k": {1, 2}})
        assert cmap[("r", "r.k", "y")] == {1: ("range", 5.0, 5.0)}

    @settings(max_examples=100, deadline=None)
    @given(tables=mixed_kind_tables(),
           dominant=st.sets(st.one_of(
               st.integers(min_value=0, max_value=8),
               st.integers(min_value=0, max_value=8).map(float),
               st.just(2.5)), min_size=1, max_size=6),
           a_class=st.sampled_from(["categorical", "numeric"]))
    def test_matches_reference_scan(self, tables, dominant, a_class):
        schema = mixed_kind_schema()
        column_domain = {"r.k": "r.k", "s.k": "r.k"}
        classes = [("a", a_class), ("x", "numeric"), ("c", "categorical")]
        column_class = {(t, c): cls for t in ("r", "s") for c, cls in classes}
        args = (schema, tables, column_domain, column_class,
                {"r.k": dominant})
        cmap = build_correlation_map(*args)
        ref = reference_correlation_map(*args)
        assert list(cmap) == list(ref)
        for name, env_by_key in cmap.items():
            assert list(env_by_key.items()) == list(ref[name].items())
            key_type = int if name[0] == "r" else float
            for key, env in env_by_key.items():
                assert type(key) is key_type
                assert list(map(type, env)) == list(map(type, ref[name][key]))

    def test_find_excluded_unions_predicates(self):
        corr = {("r", "r.k", "y"): {1: ("range", 10, 11),
                                    2: ("range", 20, 20)}}
        q = Query(text="", aliases={"r": "r", "s": "s"},
                  join_edges=[("r.k", "s.k")],
                  predicates=[Predicate("r.y", ">=", 15)])
        out = find_excluded_keys(q, corr, {"r.k": "r.k", "s.k": "r.k"})
        assert out == {"r.k": frozenset({1})}

    def test_no_correlations_no_exclusions(self):
        q = Query(text="", aliases={"r": "r"}, join_edges=[],
                  predicates=[Predicate("r.y", "=", 1)])
        assert find_excluded_keys(q, {}, {}) == {}


class TestEndToEnd:
    def test_exclusion_never_increases_estimate(self, rng):
        schema = two_table_schema()
        keys = np.concatenate([np.repeat([1, 2, 3], 200),
                               np.arange(4, 104)]).astype(np.int64)
        y = np.where(keys <= 3, keys, 50)
        tables = {
            "r": make_table("r", {"k": keys.tolist(), "y": y.tolist()}),
            "s": make_table("s", {"k": keys.tolist(), "y": y.tolist()}),
        }
        state = build_state(schema, tables, BuildConfig(bin_count=8, top_k=3))
        discover_correlations(state, tables)
        for sql in [
            "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y >= 10",
            "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y = 2",
            "SELECT COUNT(*) FROM r, s WHERE r.k = s.k",
        ]:
            with_d = estimate(sql, state, use_djpcd=True).estimate
            without = estimate(sql, state, use_djpcd=False).estimate
            assert with_d <= without + 1e-9

    def test_discovery_skips_without_templates(self):
        schema = two_table_schema()
        schema.templates = []
        tables = {"r": make_table("r", {"k": [1], "y": [1]}),
                  "s": make_table("s", {"k": [1], "y": [1]})}
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=1))
        assert discover_correlations(state, tables) == {}
