import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist import estimator, oracle
from tkhist.catalog import TableData, schema_from_document
from tkhist.djpcd import find_excluded_keys
from tkhist.errors import (EstimationError, ParseError, PlanError,
                           StateError, TKHistError, UnsupportedQueryError)
from tkhist.estimator import (PLAN_CACHE_SIZE, EstimationReport,
                              discover_correlations,
                              estimate, evaluate_workload, parse_workload,
                              q_error, ratio, run_plan, sweep)
from tkhist.queryfront import bind, decompose, parse_sql
from tkhist.state import BuildConfig, build_state, load_state, save_state
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import make_table, maps_of, two_table_schema


class TestMetrics:
    def test_hand_examples(self):
        assert q_error(10, 100) == 10
        assert ratio(10, 100) == pytest.approx(0.1)
        assert q_error(200, 100) == 2
        assert ratio(200, 100) == 2

    def test_zero_estimate_is_inf(self):
        assert q_error(0, 5) == math.inf

    def test_zero_truth_is_error(self):
        with pytest.raises(EstimationError):
            q_error(5, 0)
        with pytest.raises(EstimationError):
            ratio(5, 0)


@pytest.fixture
def small_state():
    schema = two_table_schema()
    tables = {
        "r": make_table("r", {"k": [1, 1, 2, 3, 9], "y": [5, 5, 7, 9, 9]}),
        "s": make_table("s", {"k": [1, 2, 2, 9], "y": [0, 1, 2, 3]}),
    }
    return build_state(schema, tables, BuildConfig(bin_count=4, top_k=10)), tables


class TestEstimate:
    def test_full_capture_join_exact(self, small_state):
        state, _ = small_state
        rep = estimate("SELECT COUNT(*) FROM r, s WHERE r.k = s.k", state)
        # 1:2*1 + 2:1*2 + 9:1*1
        assert rep.estimate == pytest.approx(5.0)
        assert rep.latency_ms > 0

    def test_single_table_no_predicates(self, small_state):
        state, _ = small_state
        rep = estimate("SELECT COUNT(*) FROM r", state)
        assert rep.estimate == 5.0

    def test_single_table_categorical_exact(self, small_state):
        state, _ = small_state
        rep = estimate("SELECT COUNT(*) FROM r WHERE r.y = 5", state)
        assert rep.estimate == pytest.approx(2.0)

    def test_key_predicate_filters_dominant_exactly(self, small_state):
        state, _ = small_state
        rep = estimate("SELECT COUNT(*) FROM r, s WHERE r.k = s.k "
                       "AND r.k = 1", state)
        assert rep.estimate == pytest.approx(2.0)

    def test_multi_table_without_joins_rejected(self, small_state):
        state, _ = small_state
        with pytest.raises(PlanError):
            estimate("SELECT COUNT(*) FROM r, s", state)

    @pytest.mark.parametrize("threshold", [10, 1])  # y categorical, numeric
    @pytest.mark.parametrize("sql,nulls,truth", [
        ("SELECT COUNT(*) FROM r WHERE r.y = 5", {"y": [0, 1, 1, 1]}, 1),
        ("SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y = 5",
         {"y": [0, 1, 1, 1]}, 1),
        ("SELECT COUNT(*) FROM r WHERE r.k = 1", {"k": [0, 0, 0, 1]}, 3),
    ])
    def test_null_filter_values_never_match(self, threshold, sql, nulls,
                                            truth):
        # every row of r has k = 1 and y = 5 unless null; a fraction over
        # the non-null rows alone would count the null rows as matching
        cols = [{"name": "k", "kind": "integer"}]
        schema = schema_from_document({
            "tables": [{"name": "r", "file": "r.csv", "columns": cols + [
                           {"name": "y", "kind": "integer"}]},
                       {"name": "s", "file": "s.csv", "columns": cols}],
            "foreign_keys": [{"from": "s.k", "to": "r.k"}],
            "categorical_threshold": threshold})
        tables = {"r": make_table("r", {"k": [1] * 4, "y": [5] * 4}, nulls),
                  "s": make_table("s", {"k": [1, 2]})}
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=0))
        query = bind(parse_sql(sql), state.schema)
        assert oracle.oracle_count(query, tables) == truth
        assert estimate(sql, state).estimate == truth

    @pytest.mark.parametrize("table, columns, nulls, truth", [
        ("r", {"k": [], "y": []}, None, 0),  # an empty table
        ("u", {"y": list(range(100))}, None, 50),  # no key column
        ("r", {"k": [1] * 100, "y": list(range(100))},
         {"k": [1] * 100}, 50),  # every key null: an empty grid
    ], ids=["empty-table", "no-key-column", "null-keys"])
    def test_filter_without_statistic_is_ignored(self, table, columns,
                                                 nulls, truth):
        # y is numeric (threshold 10), so no frequency histogram holds it
        cols = [{"name": "k", "kind": "integer"},
                {"name": "y", "kind": "integer"}]
        schema = schema_from_document({
            "tables": [{"name": "r", "file": "r.csv", "columns": cols},
                       {"name": "s", "file": "s.csv", "columns": cols[:1]},
                       {"name": "u", "file": "u.csv", "columns": cols[1:]}],
            "foreign_keys": [{"from": "s.k", "to": "r.k"}],
            "categorical_threshold": 10})
        tables = {"r": make_table("r", {"k": [1, 2], "y": [1, 2]}),
                  "s": make_table("s", {"k": [1, 2]}),
                  "u": make_table("u", {"y": [1, 2]})}
        tables[table] = make_table(table, columns, nulls)
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=0))
        sql = f"SELECT COUNT(*) FROM {table} WHERE {table}.y >= 50"
        assert oracle.oracle_count(bind(parse_sql(sql), schema),
                                   tables) == truth
        rows = state.table_rows[table]
        assert estimate(sql, state).estimate == rows

    def test_report_dict_shape(self, small_state):
        state, _ = small_state
        rep = estimate("SELECT COUNT(*) FROM r", state)
        d = rep.to_dict()
        assert set(d) == {"query", "estimate", "latency_ms", "used_djpcd"}


class TestStateLifetime:
    """An estimate or a discovery run leaves no reference cycle that keeps
    the state alive until the cyclic garbage collector runs: nothing the
    state caches (key indexes, lifts, bridges, bound plans) refers back to
    it."""

    @pytest.mark.parametrize("run, kinds", [
        (lambda st, tables: [estimate(sql, st) for sql in (
            "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1 AND t1.y > 5",
            f"SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE {CHAIN5}")],
         {"index", "lift", "bridge", "plans"}),
        (lambda st, tables: discover_correlations(st, tables),
         {"index", "lift", "bridge"}),  # discovery plans no SQL text
    ], ids=["estimate", "discover"])
    def test_state_freed_by_reference_counting(self, run, kinds, tmp_path):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=5, rows=300, layout="mixed",
                          distinct_keys=30), seed=4)
        path = str(tmp_path / "state.json")
        save_state(build_state(schema, tables,
                               BuildConfig(bin_count=5, top_k=3)), path)
        state = load_state(path)
        ref = weakref.ref(state)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run(state, tables)
            assert {key[0] for key in state.cache} == kinds
            del state
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


@pytest.fixture(scope="module")
def chain_state():
    schema, tables = generate_synthetic(
        SyntheticSpec(tables=3, rows=200, layout="chain", distinct_keys=20),
        seed=3)
    return build_state(schema, tables, BuildConfig(bin_count=4, top_k=2))


@pytest.fixture(scope="module")
def mixed_small():
    schema, tables = generate_synthetic(
        SyntheticSpec(tables=5, rows=60, layout="mixed", distinct_keys=8),
        seed=2)
    return schema, tables, build_state(schema, tables,
                                       BuildConfig(bin_count=3, top_k=2))


def _error_type(run):
    """The type of the TKHistError that `run()` raises, or None."""
    try:
        run()
    except TKHistError as exc:
        return type(exc)
    return None


class TestJoinTreeRule:
    """`estimate` answers only a query whose joins connect its tables into
    one tree, the rule that `oracle_count` applies."""

    def test_disconnected_join_in_one_domain_rejected(self):
        schema, tables = generate_synthetic(SyntheticSpec(
            tables=4, rows=2000, layout="star", distinct_keys=50), seed=0)
        state = build_state(schema, tables,
                            BuildConfig(bin_count=10, top_k=100))
        sql = ("SELECT COUNT(*) FROM t1, t2, t3, t4 "
               "WHERE t1.k1 = t2.k1 AND t3.k1 = t4.k1")
        with pytest.raises(PlanError, match="disconnected join graph"):
            estimate(sql, state)
        with pytest.raises(PlanError, match="disconnected join graph"):
            oracle.oracle_count(bind(parse_sql(sql), schema), tables)

    def test_edge_written_qualified_and_bare_is_one_edge(self):
        schema = schema_from_document({
            "tables": [
                {"name": "r", "columns": [{"name": "k"}]},
                {"name": "s", "columns": [{"name": "j"}]}],
            "foreign_keys": [{"from": "s.j", "to": "r.k"}]})
        tables = {"r": make_table("r", {"k": [1, 2, 2]}),
                  "s": make_table("s", {"j": [2, 2, 1]})}
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=5))
        sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.j AND k = j"
        assert oracle.oracle_count(bind(parse_sql(sql), schema), tables) == 5
        assert estimate(sql, state).estimate == 5.0

    @pytest.mark.parametrize("sql, error, message", [
        ("SELECT COUNT(* FROM t1", ParseError,
         "expected ')', found 'from' (at byte 15)"),
        ("SELECT COUNT(*) FROM t1, t2 t1", ParseError,
         "duplicate alias 't1' (at byte 28)"),
        ("SELECT COUNT(*) FROM a, a WHERE a.k = 1", ParseError,
         "duplicate alias 'a' (at byte 24)"),
        ("SELECT COUNT(*) FROM a AS x, b AS x", ParseError,
         "duplicate alias 'x' (at byte 34)"),
        ("SELECT COUNT(*) FROM t1 WHERE t1.y < *", ParseError,
         "expected literal, found '*' (at byte 37)"),
        ("SELECT COUNT(*) FROM t1 WHERE t1.y 3", ParseError,
         "expected comparison operator, found 3 (at byte 35)"),
        ("SELECT COUNT(*) FROM t1 WHERE t1.y = 1 )", ParseError,
         "trailing input ')' (at byte 39)"),
        ("SELECT COUNT(*) FROM t1 OR t1.y = 1", UnsupportedQueryError,
         "OR is not supported (at byte 24)"),
        ("SELECT COUNT(*) FROM t1 WHERE t9.y = 1", UnsupportedQueryError,
         "unknown alias 't9'"),
        ("SELECT COUNT(*) FROM t1 WHERE zzz = 1", UnsupportedQueryError,
         "unknown column 'zzz'"),
        ("SELECT COUNT(*) FROM t1, t2 WHERE t1.y = t2.y", PlanError,
         "column 't1.y' belongs to no key domain"),
        ("SELECT COUNT(*) FROM t1, t3 WHERE t1.k1 = t3.k2", PlanError,
         "join edge t1.k1 = t3.k2 spans two key domains"),
    ], ids=["expect", "duplicate-alias", "duplicate-table",
            "duplicate-as-alias", "literal", "operator", "trailing",
            "or-after-from", "unknown-alias", "unknown-column",
            "no-key-domain", "two-key-domains"])
    def test_query_front_error(self, chain_state, sql, error, message):
        with pytest.raises(error) as err:
            estimate(sql, chain_state)
        assert str(err.value) == message

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_estimate_and_oracle_accept_the_same_queries(self, mixed_small,
                                                          data):
        """Random table subsets of the mixed layout, joined by random lists
        of its key-column pairs within one key domain (the foreign keys and
        the t2-t3 pair that closes a cycle), each pair in either order and
        possibly repeated."""
        schema, tables, state = mixed_small
        names = data.draw(st.lists(st.sampled_from(sorted(tables)),
                                   min_size=1, unique=True))
        pairs = [(a, b) for a in state.column_domain
                 for b in state.column_domain
                 if a < b and state.column_domain[a] == state.column_domain[b]
                 and {a.split(".")[0], b.split(".")[0]} <= set(names)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=6)
                          if pairs else st.just([]))
        edges = [e[::-1] if data.draw(st.booleans()) else e for e in edges]
        sql = (f"SELECT COUNT(*) FROM {', '.join(names)}"
               + "".join(f"{' AND' if i else ' WHERE'} {a} = {b}"
                         for i, (a, b) in enumerate(edges)))
        accepted = _error_type(lambda: estimate(sql, state))
        assert accepted == _error_type(lambda: oracle.oracle_count(
            bind(parse_sql(sql), schema), tables)), sql


CHAIN3 = ("SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
          "AND t3.k2 = t2.k2")


class TestPlanCache:
    """A loaded state keeps each SQL text's bound query and plan, at most
    PLAN_CACHE_SIZE of them, the oldest dropped first: an estimate of a text
    seen before neither parses, binds nor decomposes it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The calls to the query front through the estimator's module
        attributes, by name."""
        counts = {}
        for name in ("parse_sql", "bind", "decompose"):
            def counted(*args, _fn=getattr(estimator, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(estimator, name, counted)
        return counts

    @pytest.fixture
    def state(self, chain_state):
        return dataclasses.replace(chain_state, cache={})  # an empty cache

    def test_repeat_skips_parse_bind_and_decompose(self, state, calls):
        first = estimate(CHAIN3, state).estimate
        assert calls == {"parse_sql": 1, "bind": 1, "decompose": 1}
        calls.clear()
        again = estimate(CHAIN3, state).estimate
        assert calls == {}
        assert again.hex() == first.hex()

    def test_oldest_entries_dropped_past_the_bound(self, state):
        sqls = [f"SELECT COUNT(*) FROM t1 WHERE t1.y < {i}"
                for i in range(PLAN_CACHE_SIZE + 3)]
        for sql in sqls:
            estimate(sql, state)
        assert list(state.cache[("plans",)]) == sqls[3:]

    @pytest.mark.parametrize("sql, error", [
        ("SELECT COUNT(* FROM t1", ParseError),
        ("SELECT COUNT(*) FROM t1, t2 WHERE t1.y = t2.y", PlanError),
    ])
    def test_failing_text_is_not_kept(self, state, calls, sql, error):
        for attempt in (1, 2):
            with pytest.raises(error):
                estimate(sql, state)
            assert calls["parse_sql"] == attempt
            assert sql not in state.cache.get(("plans",), {})

    def test_partial_state_raises_before_any_lookup(self, chain_state,
                                                    calls, tmp_path):
        path = str(tmp_path / "state.json")
        save_state(chain_state, path)
        partial = load_state(path, table="t1")
        with pytest.raises(StateError):
            estimate(CHAIN3, partial)
        assert calls == {}
        assert partial.cache == {}


class TestWorkload:
    def test_parse_comments_blanks_truth(self, tmp_path):
        p = tmp_path / "wl.txt"
        p.write_text("-- a comment\n\n"
                     "SELECT COUNT(*) FROM r\n"
                     "SELECT COUNT(*) FROM r, s WHERE r.k = s.k || 5\n")
        entries = parse_workload(str(p))
        assert entries == [("SELECT COUNT(*) FROM r", None),
                           ("SELECT COUNT(*) FROM r, s WHERE r.k = s.k", 5.0)]

    def test_truth_split_outside_string_literals(self, tmp_path):
        # a `||` inside a quoted literal (quotes doubled inside it) is the
        # query's, the first after an even number of quotes the truth's
        sql = ("SELECT COUNT(*) FROM t5 WHERE t5.y = 'a||b' "
               "AND t5.z = 'it''s||'")
        p = tmp_path / "wl.txt"
        p.write_text(f"{sql}\n{sql} ||3\n")
        assert parse_workload(str(p)) == [(sql, None), (sql, 3.0)]
        assert [pred.value for pred in parse_sql(sql).predicates] == \
            ["a||b", "it's||"]

    def test_evaluate_with_oracle_truths(self, small_state):
        state, tables = small_state
        entries = [("SELECT COUNT(*) FROM r, s WHERE r.k = s.k", None),
                   ("SELECT COUNT(*) FROM r, s WHERE r.k = s.k", 5.0)]
        reports, summary = evaluate_workload(state, entries, tables=tables)
        assert all(r.truth == 5.0 for r in reports)
        assert summary.median_q == pytest.approx(1.0)
        assert summary.failed == 0
        assert summary.mean_latency_ms > 0

    def summary_of(self, monkeypatch, state, estimates):
        """The summary of one query per estimate, each with truth 1, so
        that each q-error is max(e, 1 / e), and inf for e = 0."""
        values = iter(estimates)
        monkeypatch.setattr(estimator, "estimate", lambda sql, st:
                            EstimationReport(query=sql, estimate=next(values),
                                             latency_ms=1.0, used_djpcd=False))
        entries = [("SELECT COUNT(*) FROM r", 1.0)] * len(estimates)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return evaluate_workload(state, entries)[1]

    @pytest.mark.parametrize("estimates, expected", [
        ([1.0, 0.0], [math.inf] * 4),
        ([0.0], [math.inf] * 4),
        # p50 sits on the 2, the others between the 2 and the inf
        ([1.0, 0.5, 0.0], [2.0, math.inf, math.inf, math.inf]),
        # p50 and p90 sit on 6 and 10, with the inf next to the 10
        ([float(e) for e in range(1, 11)] + [0.0],
         [6.0, 10.0, math.inf, math.inf]),
    ])
    def test_percentiles_touching_inf_read_inf(self, monkeypatch, small_state,
                                               estimates, expected):
        summary = self.summary_of(monkeypatch, small_state[0], estimates)
        got = [summary.median_q, summary.p90_q, summary.p95_q, summary.p99_q]
        assert got == pytest.approx(expected)
        assert summary.max_q == math.inf

    def test_finite_percentiles_are_numpys(self, monkeypatch, small_state):
        estimates = [1.0, 3.0, 0.25, 7.5, 1.1, 0.9, 40.0]
        qerrs = [max(e, 1 / e) for e in estimates]
        summary = self.summary_of(monkeypatch, small_state[0], estimates)
        assert [summary.median_q, summary.p90_q, summary.p95_q,
                summary.p99_q] == [float(np.percentile(qerrs, p))
                                   for p in (50, 90, 95, 99)]

    def test_bad_query_reported_not_raised(self, small_state):
        state, _ = small_state
        entries = [("SELECT COUNT(*) FROM nope", None),
                   ("SELECT COUNT(*) FROM r", None)]
        reports, summary = evaluate_workload(state, entries)
        assert summary.failed == 1
        assert reports[0].error is not None
        assert reports[1].error is None

    def test_literal_past_float64_fails_its_query_only(self, small_state):
        state, tables = small_state
        join = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"
        entries = [(f"{join} AND r.k > 1{'0' * 400}", None), (join, None)]
        reports, summary = evaluate_workload(state, entries, tables=tables)
        assert (summary.queries, summary.failed) == (2, 1)
        assert "float64 range" in reports[0].error
        assert reports[1].error is None and reports[1].estimate == 5.0


class TestSweep:
    def test_grid_points_and_size_growth(self):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=2, rows=400, distinct_keys=40), seed=9)
        entries = [("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1", None)]
        points = sweep(schema, tables, entries, [5, 10], [0, 4])
        assert len(points) == 4
        by = {(p.bin_count, p.top_k): p for p in points}
        # more bins and larger containers can only grow the state file
        assert by[(10, 0)].state_bytes > by[(5, 0)].state_bytes
        assert by[(5, 4)].state_bytes > by[(5, 0)].state_bytes
        assert all(p.median_q is not None for p in points)

    SWEEP_QUERIES = [
        ("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1", None),
        ("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 AND t1.y < 50",
         None),
        ("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 AND t2.y >= 20",
         None)]

    def check_points(self, monkeypatch, tmp_path, **kwargs):
        """Truths are counted once per sweep, and each point is the one
        that evaluating its grid state gives, built with discovery unless
        `use_djpcd=False` is passed."""
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=2, rows=400, distinct_keys=40), seed=9)
        calls = []
        count = oracle.oracle_count

        def counting(query, tabs):
            calls.append(query)
            return count(query, tabs)

        monkeypatch.setattr(oracle, "oracle_count", counting)
        points = sweep(schema, tables, self.SWEEP_QUERIES, [5, 10], [0, 4],
                       **kwargs)
        assert len(calls) == 3
        for p in points:
            st = build_state(schema, tables, BuildConfig(bin_count=p.bin_count,
                                                         top_k=p.top_k))
            if kwargs.get("use_djpcd", True):
                discover_correlations(st, tables)
            _, summ = evaluate_workload(st, self.SWEEP_QUERIES,
                                        tables=tables)
            size = save_state(st, str(tmp_path / "grid.json"))
            assert (p.state_bytes, p.median_q) == (size, summ.median_q)

    def test_truths_counted_once_per_sweep(self, monkeypatch, tmp_path):
        # by default each grid state is built as `tkhist build` builds it
        self.check_points(monkeypatch, tmp_path)

    def test_points_without_discovery(self, monkeypatch, tmp_path):
        self.check_points(monkeypatch, tmp_path, use_djpcd=False)

    def test_failing_truth_fails_at_every_point(self, monkeypatch):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=2, rows=400, distinct_keys=40), seed=9)
        queries = self.SWEEP_QUERIES[:2] + [("SELECT COUNT(*) FROM nope", None)]

        def failing(query, tabs):
            if query.predicates:
                raise TKHistError("oracle failed")
            return 7

        errors = []
        score = estimator.evaluate_workload

        def recording(*args, **kwargs):
            reports, summ = score(*args, **kwargs)
            errors.append([r.error for r in reports])
            return reports, summ

        monkeypatch.setattr(oracle, "oracle_count", failing)
        monkeypatch.setattr(estimator, "evaluate_workload", recording)
        points = sweep(schema, tables, queries, [5, 10], [0, 4])
        assert len(points) == len(errors) == 4
        for errs in errors:
            assert errs[0] is None and errs[1] == "oracle failed"
            assert "nope" in errs[2]


@pytest.fixture(scope="module")
def mixed_corr_state():
    schema, tables = generate_synthetic(
        SyntheticSpec(tables=5, rows=2000, layout="mixed", distinct_keys=200,
                      correlated=True), seed=3)
    state = build_state(schema, tables, BuildConfig(bin_count=20, top_k=5))
    discover_correlations(state, tables)
    return state


CHAIN5 = ("t2.k1 = t1.k1 AND t3.k1 = t1.k1 AND t4.k2 = t3.k2 "
          "AND t5.k3 = t4.k3")


def _post_order(group):
    """The groups of `group`'s subtree, each after its children."""
    for link in group.children:
        yield from _post_order(link.group)
    yield group


class TestExclusionAtLift:
    """Excluded keys are dropped when each member is lifted; the star fold
    and chain translation must not bring one back into any group."""

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        "AND t3.k1 = t1.k1 AND t1.y >= 20",
        "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 AND t2.y <= 5",
        "SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 "
        "AND t4.k2 = t3.k2 AND t4.y >= 20",
        "SELECT COUNT(*) FROM t3, t4, t5 WHERE t4.k2 = t3.k2 "
        "AND t5.k3 = t4.k3 AND t5.y BETWEEN 30 AND 90",
        f"SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE {CHAIN5} "
        "AND t1.y >= 15 AND t4.y < 12",
    ])
    def test_no_group_holds_an_excluded_key(self, mixed_corr_state, sql):
        state = mixed_corr_state
        query = bind(parse_sql(sql), state.schema)
        plan = decompose(query, state.column_domain)
        excluded = find_excluded_keys(query, state.correlations,
                                      state.column_domain)

        def held(composites):
            return {k for d, comp in composites.items()
                    for dom in maps_of(comp)
                    for k in dom.keys() & excluded.get(d, frozenset())}

        plain = run_plan(state, query, plan)
        assert held(plain)  # the query does exercise exclusion
        record = run_plan(state, query, plan, excluded)
        assert list(record) == list(plain) == [
            g.domain_id for g in _post_order(plan.root)]
        assert held(record) == set()


class TestCachedLifts:
    """Exclusion and filters never write the lifts and bridges a state
    caches: after excluded, key-filtered and filtered estimates, an
    unfiltered one equals a fresh load's bit for bit."""

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        "AND t3.k1 = t1.k1",
        f"SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE {CHAIN5}",
    ])
    def test_unfiltered_estimate_equals_a_fresh_loads(self, mixed_corr_state,
                                                      tmp_path, sql):
        path = str(tmp_path / "state.json")
        save_state(mixed_corr_state, path)
        used = load_state(path)
        excluded_sql = ("SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
                        "AND t3.k1 = t1.k1 AND t1.y >= 20")
        query = bind(parse_sql(excluded_sql), used.schema)
        assert find_excluded_keys(query, used.correlations,
                                  used.column_domain)  # exclusion runs
        for other in (excluded_sql,
                      "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 "
                      "AND t1.k1 <= 100 AND t2.k1 > 3",
                      f"SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE "
                      f"{CHAIN5} AND t4.y < 12 AND t4.k2 <= 50"):
            estimate(other, used)
        assert estimate(sql, used).estimate == estimate(
            sql, load_state(path)).estimate


class TestMisalignedSkews:
    """Aim 3 on skews that do not line up: every key column of t2..t5 is
    relabelled by its table's own permutation of the keys, so that one
    table's heavy keys are not the next one's.  At full capture (k at least
    the distinct keys) every single-domain estimate, a star or two tables,
    equals the exact count."""

    KEYS = 60
    SHAPES = [("t1", "t2"), ("t1", "t3"), ("t1", "t2", "t3"), ("t3", "t4"),
              ("t4", "t5")]

    @pytest.mark.parametrize("seed", range(6))
    def test_full_capture_exact(self, seed):
        schema, tables = generate_synthetic(SyntheticSpec(
            tables=5, rows=800, layout="mixed", distinct_keys=self.KEYS),
            seed=seed)
        rng = np.random.default_rng(seed)
        for t in ("t2", "t3", "t4", "t5"):
            perm = rng.permutation(np.arange(1, self.KEYS + 1))
            keys = {c.split(".")[1] for fk in schema.foreign_keys
                    for c in fk if c.startswith(f"{t}.")}
            data = tables[t]
            tables[t] = TableData(
                name=t, columns={c: perm[v - 1] if c in keys else v
                                 for c, v in data.columns.items()},
                null_mask=data.null_mask, row_count=data.row_count)
        state = build_state(schema, tables,
                            BuildConfig(bin_count=8, top_k=self.KEYS))
        for shape in self.SHAPES:
            edges = [f"{a} = {b}" for a, b in schema.foreign_keys
                     if {a.split(".")[0], b.split(".")[0]} <= set(shape)]
            sql = (f"SELECT COUNT(*) FROM {', '.join(shape)} WHERE "
                   + " AND ".join(edges))
            truth = oracle.oracle_count(bind(parse_sql(sql), schema), tables)
            assert estimate(sql, state).estimate == truth, sql
