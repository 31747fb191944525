from collections import defaultdict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tkhist import djpcd
from tkhist.catalog import KeyDomain, infer_key_domains, schema_from_document
from tkhist.djpcd import (Envelopes, build_correlation_map,
                          collect_dominant_keys, find_excluded_keys)
from tkhist.errors import PlanError, UnsupportedQueryError
from tkhist.estimator import discover_correlations, estimate
from tkhist.oracle import oracle_count
from tkhist.predicate import Predicate, matches
from tkhist.queryfront import Query, bind, decompose, parse_sql
from tkhist.state import BuildConfig, build_state

from conftest import (_scalar, composites_of, envelope_dict, make_table,
                      two_table_schema)


def envelope_excludes(env, pred: Predicate) -> bool:
    """True iff no value inside the envelope ("range", lo, hi) or ("set",
    values) can satisfy the predicate: the per-key test that
    `Envelopes.excludes` replaced, kept as its reference."""
    if env[0] == "set":
        return not any(matches(pred, v) for v in env[1])
    lo, hi = env[1], env[2]
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


def section_of(env_by_key: dict, dtype=None) -> Envelopes:
    """The `Envelopes` of {key: envelope}, keys in sorted order; range bounds
    in `dtype`, or the one numpy gives them."""
    keys = sorted(env_by_key)
    envs = [env_by_key[key] for key in keys]
    if envs and envs[0][0] == "set":
        return Envelopes(np.asarray(keys), values=[env[1] for env in envs])
    return Envelopes(np.asarray(keys), *(
        np.asarray([env[i] for env in envs], dtype=dtype) for i in (1, 2)))


def reference_find_excluded_keys(query, correlations, column_domain):
    """`find_excluded_keys` as a loop over every section and its keys with
    `envelope_excludes`, keeping the sections of joined key columns."""
    joined = {ref for edge in query.join_edges for ref in edge}
    excluded = defaultdict(set)
    for pred in query.predicates:
        alias, attr = pred.column.split(".", 1)
        for (tbl, kc, att), section in correlations.items():
            if (tbl == query.aliases[alias] and att == attr
                    and f"{alias}.{kc}" in joined):
                excluded[column_domain[f"{tbl}.{kc}"]] |= {
                    key for key, env in envelope_dict(section).items()
                    if envelope_excludes(env, pred)}
    return {dom: frozenset(keys) for dom, keys in excluded.items()}


def reference_correlation_map(schema, tables, column_domain,
                              dominant_by_domain):
    """Per-row envelope scan: the reference for the grouped pass, a section
    per key column, a set envelope per object column.  NaN attribute values
    are skipped like nulls."""
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
                as_set = avals.dtype == object
                env_by_key = {}
                for i in hit:
                    a = _scalar(avals[i])
                    if amask[i] or a != a:
                        continue
                    key = _scalar(kvals[i])
                    if as_set:
                        env_by_key.setdefault(key, ("set", set()))[1].add(a)
                    elif key in env_by_key:
                        _, lo, hi = env_by_key[key]
                        env_by_key[key] = ("range", min(lo, a), max(hi, a))
                    else:
                        env_by_key[key] = ("range", a, a)
                if as_set:
                    env_by_key = {k: ("set", frozenset(v))
                                  for k, (_, v) in env_by_key.items()}
                if env_by_key:
                    cmap[(tdef.name, kdef.name, cdef.name)] = env_by_key
    return cmap


def sorted_scan_correlation_map(schema, tables, column_domain,
                                dominant_by_domain):
    """The sort-based scan that `build_correlation_map` replaced, kept as its
    reference: membership per distinct key of the column with Python set
    semantics, then one stable argsort of the hit rows by key, and per
    attribute a `reduceat` minimum and maximum, or a value set, over each
    key's segment."""
    cmap = {}
    for tdef in schema.tables:
        data = tables[tdef.name]
        for kdef in tdef.columns:
            dom = column_domain.get(f"{tdef.name}.{kdef.name}")
            dominant = dominant_by_domain.get(dom)
            if not dominant:
                continue
            keys, key_id = np.unique(data.columns[kdef.name],
                                     return_inverse=True)
            is_dominant = np.fromiter((v in dominant for v in keys.tolist()),
                                      dtype=bool, count=len(keys))
            hit = is_dominant[key_id] & ~data.null_mask[kdef.name]
            rows = np.flatnonzero(hit)
            rows = rows[np.argsort(key_id[rows], kind="stable")]
            for cdef in tdef.columns:
                if cdef.name == kdef.name:
                    continue
                avals = data.columns[cdef.name]
                seg = rows[~data.null_mask[cdef.name][rows]]
                vals = avals[seg]
                if vals.dtype.kind == "f":
                    seg, vals = seg[~np.isnan(vals)], vals[~np.isnan(vals)]
                if len(seg) == 0:
                    continue
                ids = key_id[seg]
                starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
                ends = np.r_[starts[1:], len(seg)]
                if avals.dtype == object:
                    section = Envelopes(keys[ids[starts]], values=[
                        frozenset(vals[a:b].tolist())
                        for a, b in zip(starts.tolist(), ends.tolist())])
                else:
                    section = Envelopes(
                        keys[ids[starts]], lo=np.minimum.reduceat(vals, starts),
                        hi=np.maximum.reduceat(vals, starts))
                cmap[(tdef.name, kdef.name, cdef.name)] = section
    return cmap


def mixed_kind_schema():
    """r.k INTEGER joined to s.k REAL: one key domain over both kinds."""
    def table_doc(name, key_kind):
        return {"name": name, "file": f"{name}.csv", "columns": [
            {"name": "k", "kind": key_kind},
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


def make_domain(id="t.k", lo=0, hi=10):
    d = KeyDomain(id=id, columns=frozenset({id}))
    d.set_boundaries(lo, hi, 1)
    return d


class TestCollect:
    def test_keys_ranked_by_contribution(self, monkeypatch):
        monkeypatch.setattr(djpcd, "DOMINANT_KEYS_PER_DOMAIN", 2)
        comp, = composites_of(make_domain(),
                              [({1: 100.0, 2: 5.0, 3: 50.0}, 0.0, 0.0)])
        out = collect_dominant_keys([comp])
        assert out["t.k"] == {1, 3}

    def test_contributions_sum_across_composites(self, monkeypatch):
        monkeypatch.setattr(djpcd, "DOMINANT_KEYS_PER_DOMAIN", 1)
        c1, c2 = composites_of(make_domain(), [({1: 10.0, 2: 30.0}, 0.0, 0.0)],
                               [({1: 25.0}, 0.0, 0.0)])
        out = collect_dominant_keys([c1, c2])
        assert out["t.k"] == {1}  # 35 vs 30


    @settings(max_examples=200, deadline=None)
    @given(weights=st.dictionaries(
        st.one_of(st.integers(-5, 30), st.integers(-5, 30).map(float),
                  st.sampled_from([2.5, 2 ** 53 + 1, 2.0 ** 53])),
        st.sampled_from([1.0, 2.0, 3.0, 0.5]), max_size=30),
        limit=st.integers(1, 12))
    def test_ties_at_the_cut_by_repr(self, weights, limit):
        """The kept keys are the first `limit` by (-weight, repr)."""
        comp, = composites_of(make_domain(lo=-5, hi=2 ** 54),
                              [(weights, 0.0, 0.0)])
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        want = {k for k, _ in ranked[:limit]}
        with mock.patch.object(djpcd, "DOMINANT_KEYS_PER_DOMAIN", limit):
            assert collect_dominant_keys([comp]).get("t.k", set()) == want


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
        (("range", 10, 20), Predicate("c", ">", 100), True),
    ])
    def test_disjointness(self, env, pred, expect):
        assert envelope_excludes(env, pred) is expect
        assert section_of({1: env}).excludes(pred).tolist() == [expect]


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
            {"r.k": {1, 2}})
        env = envelope_dict(cmap[("r", "k", "y")])
        assert env[1] == ("range", 10, 11)
        assert env[2] == ("range", 20, 20)

    @pytest.mark.parametrize("ys", [[float("nan"), 5.0], [5.0, float("nan")]])
    def test_nan_values_skipped_in_any_row_order(self, ys):
        ys = ys + [float("nan")]  # key 2 has only NaN: no envelope
        tables = {"r": make_table("r", {"k": [1, 1, 2], "y": ys}),
                  "s": make_table("s", {"k": [1], "y": [0]})}
        cmap = build_correlation_map(
            self.schema, tables, {"r.k": "r.k", "s.k": "r.k"},
            {"r.k": {1, 2}})
        assert envelope_dict(cmap[("r", "k", "y")]) == {
            1: ("range", 5.0, 5.0)}

    @settings(max_examples=100, deadline=None)
    @given(tables=mixed_kind_tables(),
           dominant=st.sets(st.one_of(
               st.integers(min_value=0, max_value=8),
               st.integers(min_value=0, max_value=8).map(float),
               st.just(2.5)), min_size=1, max_size=6))
    def test_matches_reference_scan(self, tables, dominant):
        schema = mixed_kind_schema()
        column_domain = {"r.k": "r.k", "s.k": "r.k"}
        args = (schema, tables, column_domain, {"r.k": dominant})
        cmap = build_correlation_map(*args)
        ref = reference_correlation_map(*args)
        assert list(cmap) == list(ref)
        for name, section in cmap.items():
            env_by_key = envelope_dict(section)
            assert len(section) == len(ref[name])
            assert list(env_by_key.items()) == sorted(ref[name].items())
            key_type = int if name[0] == "r" else float
            for key, env in env_by_key.items():
                assert type(key) is key_type
                assert list(map(type, env)) == list(map(type, ref[name][key]))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_sorted_scan(self, data):
        """Keys of an INTEGER and a REAL column of one domain at 2**53 and
        at the int64 limits, null keys, dominant keys absent from both
        columns or equal to a key of the other kind only, and NaN, null and
        string attributes: the same sections, key for key and bit for bit,
        as the sort-based scan."""
        near = [0, 2 ** 53, 2 ** 63 - 1, -2 ** 63]
        int_keys = st.one_of(st.integers(-3, 3), *(
            st.integers(max(v - 2, -2 ** 63), min(v + 2, 2 ** 63 - 1))
            for v in near))
        real_keys = st.one_of(
            st.integers(-6, 6).map(lambda v: v / 2),
            st.sampled_from([2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 63,
                             -2.0 ** 63, 1e300]))
        values = st.one_of(st.integers(-4, 4).map(lambda v: v / 2),
                           st.sampled_from([-0.0, float("nan"), 1e300]))

        def table(name, keys):
            n = data.draw(st.integers(1, 30))
            col = lambda elems: data.draw(
                st.lists(elems, min_size=n, max_size=n))
            return make_table(name, {
                "k": col(keys), "a": col(st.integers(-5, 5)),
                "x": [float(v) for v in col(values)],
                "c": col(st.sampled_from(["p", "q", "r"]))},
                {c: col(st.booleans()) for c in ("k", "a", "x", "c")})

        tables = {"r": table("r", int_keys), "s": table("s", real_keys)}
        dominant = data.draw(st.sets(st.one_of(
            int_keys, real_keys, st.sampled_from(
                [2 ** 53 + 1, 2 ** 63, -2 ** 63 - 1, 99, 99.0, 2.5])),
            min_size=1, max_size=12))
        args = (mixed_kind_schema(), tables, {"r.k": "r.k", "s.k": "r.k"},
                {"r.k": dominant})
        cmap = build_correlation_map(*args)
        ref = sorted_scan_correlation_map(*args)
        assert list(cmap) == list(ref)
        for name, section in cmap.items():
            want = ref[name]
            for col in ("keys", "lo", "hi"):
                got, exp = getattr(section, col), getattr(want, col)
                assert (got is None) == (exp is None)
                if got is not None:
                    assert got.dtype == exp.dtype
                    assert got.tobytes() == exp.tobytes()
            assert section.values == want.values

    def test_find_excluded_unions_predicates(self):
        corr = {("r", "k", "y"): section_of({1: ("range", 10, 11),
                                             2: ("range", 20, 20)})}
        q = Query(aliases={"r": "r", "s": "s"},
                  join_edges=[("r.k", "s.k")],
                  predicates=[Predicate("r.y", ">=", 15)])
        out = find_excluded_keys(q, corr, {"r.k": "r.k", "s.k": "r.k"})
        assert out == {"r.k": frozenset({1})}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_find_excluded_matches_per_key_reference(self, data):
        # int and real ranges and set envelopes, against literals at
        # 2**53 and past int64, where float64 rounding misleads numpy:
        # np.array([2.0**53]) == 2**53 + 1 is True, Python says False
        near = [0, 2 ** 53, 2 ** 63, -2 ** 63]
        ints = st.one_of(st.integers(-20, 20), *(
            st.integers(v - 3, v + 3) for v in near))
        reals = st.one_of(st.floats(-30, 30).map(lambda v: round(v * 2) / 2),
                          st.sampled_from([2.0 ** 53, 2.0 ** 53 + 2,
                                           2.0 ** 63, -2.0 ** 63, 1e300]))
        literals = st.one_of(ints, reals, st.integers(2 ** 64, 2 ** 70),
                             st.sampled_from([float("inf"), float("nan"),
                                              2 ** 1100]))
        keys = st.lists(st.integers(0, 30), unique=True, max_size=8)

        def ranges(bounds, dtype):
            pairs = data.draw(st.lists(st.tuples(bounds, bounds), max_size=8))
            return section_of({key: ("range", *sorted(pair)) for key, pair
                               in zip(data.draw(keys), pairs)}, dtype)

        int_y = ranges(ints.filter(lambda v: -2 ** 63 <= v < 2 ** 63),
                       np.int64)
        real_x = ranges(reals, np.float64)
        cat_keys = sorted(data.draw(keys))
        cat = Envelopes(np.asarray(cat_keys, dtype=np.int64), values=data.draw(
            st.lists(st.frozensets(st.sampled_from("abc"), min_size=1),
                     min_size=len(cat_keys), max_size=len(cat_keys))))
        # r.j is a key column of its own domain that the query never joins
        corr = {("r", "k", "y"): int_y, ("r", "k", "x"): real_x,
                ("r", "k", "c"): cat, ("s", "k", "y"): real_x,
                ("r", "j", "y"): real_x}
        column_domain = {"r.k": "r.k", "s.k": "r.k", "r.j": "r.j"}
        preds = []
        for _ in range(data.draw(st.integers(1, 3))):
            column = data.draw(st.sampled_from(["r.y", "r.x", "r.c", "s.y"]))
            op = data.draw(st.sampled_from(
                ["=", "<", "<=", ">", ">=", "between", "in"]))
            lits = st.sampled_from("abcd") if column == "r.c" else literals
            if op == "between":
                value = tuple(sorted(data.draw(st.tuples(lits, lits))))
            elif op == "in":
                value = data.draw(st.frozensets(lits, min_size=1, max_size=3))
            else:
                value = data.draw(lits)
            preds.append(Predicate(column, op, value))
        q = Query(aliases={"r": "r", "s": "s"},
                  join_edges=[("r.k", "s.k")], predicates=preds)
        assert find_excluded_keys(q, corr, column_domain) == \
            reference_find_excluded_keys(q, corr, column_domain)

    def test_no_correlations_no_exclusions(self):
        q = Query(aliases={"r": "r"}, join_edges=[],
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
            with_d = estimate(sql, state).estimate
            without = estimate(sql, replace(state, correlations={})).estimate
            assert with_d <= without + 1e-9

    def test_discovery_skips_without_templates(self):
        schema = two_table_schema()
        schema.templates = []
        tables = {"r": make_table("r", {"k": [1], "y": [1]}),
                  "s": make_table("s", {"k": [1], "y": [1]})}
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=1))
        assert discover_correlations(state, tables) == {}


def unsound_exclusions(state, tables, query: Query) -> list:
    """The (domain, key) pairs that `find_excluded_keys` excludes from
    `query` although result rows carry the key: with one alias that the
    query joins on the domain restricted to the key, the exact count is not
    0.  A domain that the query joins on no column is listed with key None:
    exclusion goes only through joined columns."""
    on = {state.column_domain[f"{query.aliases[alias]}.{col}"]: ref
          for edge in query.join_edges for ref in edge
          for alias, col in [ref.split(".", 1)]}
    bad = []
    for dom, keys in find_excluded_keys(query, state.correlations,
                                        state.column_domain).items():
        if dom not in on:
            bad.append((dom, None))
            continue
        for key in sorted(keys, key=repr):
            only_key = Query(aliases=query.aliases,
                             join_edges=query.join_edges,
                             predicates=[*query.predicates,
                                         Predicate(on[dom], "=", key)])
            if oracle_count(only_key, tables):
                bad.append((dom, key))
    return bad


def integer_table(name: str, *columns: str) -> dict:
    """A schema table document of INTEGER columns."""
    return {"name": name, "file": f"{name}.csv", "columns": [
        {"name": c, "kind": "integer"} for c in columns]}


def soundness_schema():
    """s holds two key columns of the domain r.k; t and w each hold one key
    column in r.k and one in the domain of v.b (id t.b)."""
    return schema_from_document({
        "tables": [integer_table("r", "k", "y"),
                   integer_table("s", "a", "b", "y"),
                   integer_table("t", "a", "b", "y"),
                   integer_table("w", "x", "b"),
                   integer_table("v", "b", "y")],
        "foreign_keys": [{"from": f, "to": to} for f, to in [
            ("s.a", "r.k"), ("s.b", "r.k"), ("t.a", "r.k"), ("w.x", "r.k"),
            ("t.b", "v.b"), ("w.b", "v.b")]],
        "templates": [["r.k=s.a", "r.k=t.a", "t.b=v.b"],
                      ["r.k=s.b", "r.k=w.x", "w.b=v.b"]]})


@st.composite
def soundness_cases(draw):
    """Small tables of `soundness_schema` (keys 0..5, values 0..9, some
    nulls), a build configuration, and a query that `decompose` accepts:
    a join tree grown one new table at a time, with one or two filters."""
    schema = soundness_schema()
    keys = {c for fk in schema.foreign_keys for c in fk}
    tables = {}
    for tdef in schema.tables:
        n = draw(st.integers(1, 25))
        columns, nulls = {}, {}
        for cdef in tdef.columns:
            top = 5 if f"{tdef.name}.{cdef.name}" in keys else 9
            columns[cdef.name] = draw(st.lists(st.integers(0, top),
                                               min_size=n, max_size=n))
            if draw(st.integers(0, 3)) == 0:
                nulls[cdef.name] = draw(st.lists(st.booleans(), min_size=n,
                                                 max_size=n))
        if tdef.name in ("r", "v"):  # every key, so each domain has width
            key = tdef.columns[0].name
            columns = {c: [*v, *([0] * 6 if c != key else range(6))]
                       for c, v in columns.items()}
            nulls = {c: [*m, *[False] * 6] for c, m in nulls.items()}
        tables[tdef.name] = make_table(tdef.name, columns, nulls)
    config = BuildConfig(bin_count=draw(st.integers(1, 3)),
                         top_k=draw(st.integers(1, 3)))

    domain = {c: d.id for d in infer_key_domains(schema) for c in d.columns}
    names = [draw(st.sampled_from([t.name for t in schema.tables]))]
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        joins = sorted((a, b) for a in domain for b in domain
                       if a.split(".")[0] in names
                       and b.split(".")[0] not in names
                       and domain[a] == domain[b])
        if not joins:
            break
        edge = draw(st.sampled_from(joins))
        edges.append(edge)
        names.append(edge[1].split(".")[0])
    preds = []
    for _ in range(draw(st.integers(1, 2))):
        table = draw(st.sampled_from(names))
        column = draw(st.sampled_from(
            [c.name for c in schema.table(table).columns]))
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "between",
                                   "in"]))
        value = draw(st.integers(0, 9))
        if op == "between":
            value = (value, draw(st.integers(value, 9)))
        elif op == "in":
            value = frozenset(draw(st.lists(st.integers(0, 9), min_size=1,
                                            max_size=3)))
        preds.append(Predicate(f"{table}.{column}", op, value))
    query = Query(aliases={t: t for t in names}, join_edges=edges,
                  predicates=preds)
    return schema, tables, config, query


class TestExclusionSoundness:
    """Key exclusion never removes true result mass (at build time; updates
    leave the map stale): a key excluded on a domain is carried by no
    result row, checked against the exact count."""

    @settings(max_examples=300, deadline=None)
    @given(case=soundness_cases())
    def test_excluded_keys_carry_no_result_rows(self, case):
        schema, tables, config, query = case
        state = build_state(schema, tables, config)
        try:
            decompose(query, state.column_domain)
        except (PlanError, UnsupportedQueryError):
            assume(False)
        discover_correlations(state, tables)
        assert unsound_exclusions(state, tables, query) == []

    def test_two_key_columns_in_one_domain(self):
        """s.a and s.b both join r.k.  Every row with a = 1 has y = 5, but
        the rows with b = 1 have y of 500 and more: excluding key 1 from
        `r.k = s.a AND s.y < 10` through b's envelope would drop 500 true
        rows."""
        schema = schema_from_document({
            "tables": [integer_table("r", "k"),
                       integer_table("s", "a", "b", "y")],
            "foreign_keys": [{"from": "s.a", "to": "r.k"},
                             {"from": "s.b", "to": "r.k"}],
            "templates": [["r.k=s.a"], ["r.k=s.b"]]})
        i = np.arange(2000)
        heavy = i < 500  # a = 1, y = 5
        tables = {
            "r": make_table("r", {"k": list(range(1, 51))}),
            "s": make_table("s", {
                "a": np.where(heavy, 1, 2 + i % 49).tolist(),
                "b": np.where(heavy, 2 + i % 49,
                              np.where(i % 10 == 0, 1, 2)).tolist(),
                "y": np.where(heavy, 5, 500 + i % 100).tolist()})}
        state = build_state(schema, tables, BuildConfig(bin_count=10,
                                                        top_k=5))
        discover_correlations(state, tables)
        sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.a AND s.y < 10"
        query = bind(parse_sql(sql), schema)
        excluded = find_excluded_keys(query, state.correlations,
                                      state.column_domain)
        assert excluded["r.k"] and 1 not in excluded["r.k"]
        assert unsound_exclusions(state, tables, query) == []
        assert oracle_count(query, tables) == 500

    def test_table_joined_on_one_of_its_domains(self):
        """t is joined on b alone, so its envelopes over a, where every row
        with a = 1 has z = 900, exclude nothing from the r.k group: the w
        rows with x = 1 reach the result."""
        schema = schema_from_document({
            "tables": [integer_table("r", "k"),
                       integer_table("w", "x", "y"),
                       integer_table("t", "a", "b", "z"),
                       integer_table("v", "b")],
            "foreign_keys": [{"from": "w.x", "to": "r.k"},
                             {"from": "t.a", "to": "r.k"},
                             {"from": "w.y", "to": "v.b"},
                             {"from": "t.b", "to": "v.b"}],
            "templates": [["r.k=w.x", "w.y=t.b", "t.b=v.b"],
                          ["r.k=t.a", "t.b=v.b"]]})
        i = np.arange(2000)
        tables = {
            "r": make_table("r", {"k": list(range(1, 21))}),
            "w": make_table("w", {"x": np.where(i < 1200, 1,
                                                1 + i % 20).tolist(),
                                  "y": (1 + i % 20).tolist()}),
            "t": make_table("t", {"a": (1 + i % 20).tolist(),
                                  "b": (1 + i % 19).tolist(),
                                  "z": np.where(i % 20 == 0, 900,
                                                i % 100).tolist()}),
            "v": make_table("v", {"b": list(range(1, 21))})}
        state = build_state(schema, tables, BuildConfig(bin_count=10,
                                                        top_k=5))
        discover_correlations(state, tables)
        assert state.correlations[("t", "a", "z")].excludes(
            Predicate("t.z", "<", 100))[0]  # key 1, of a's envelopes
        sql = ("SELECT COUNT(*) FROM r, w, t, v WHERE r.k = w.x "
               "AND w.y = t.b AND t.b = v.b AND t.z < 100")
        query = bind(parse_sql(sql), schema)
        assert "r.k" not in find_excluded_keys(query, state.correlations,
                                               state.column_domain)
        assert unsound_exclusions(state, tables, query) == []
