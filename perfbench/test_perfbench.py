"""Checks of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import itertools

import numpy as np
import pytest

from tkhist.catalog import TableData
from tkhist.oracle import nested_loop_count, oracle_count
from tkhist.queryfront import bind, parse_sql
from tkhist.synth import SyntheticSpec, generate_synthetic

import workloads as wl
from tracing import Tracer
from truth import ExactCounter

MIXED = [
    "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
    "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 AND t3.k1 = t1.k1"
    " AND t2.y <= 12",
    "SELECT COUNT(*) FROM t3, t4 WHERE t4.k2 = t3.k2 AND t3.y BETWEEN 3 AND 9",
    "SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 AND t4.k2 = t3.k2"
    " AND t4.y IN (2, 5, 7)",
    "SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE t2.k1 = t1.k1"
    " AND t3.k1 = t1.k1 AND t4.k2 = t3.k2 AND t5.k3 = t4.k3 AND t5.y >= 6",
    "SELECT COUNT(*) FROM t4, t5 WHERE t5.k3 = t4.k3 AND t4.y < 4"
    " AND t5.y = 3",
    "SELECT COUNT(*) FROM t2 WHERE t2.y > 10",
]


@pytest.fixture(scope="module")
def small_mixed():
    spec = SyntheticSpec(tables=5, rows=400, layout="mixed", skew=1.1,
                         distinct_keys=40, correlated=True)
    return generate_synthetic(spec, seed=5)


@pytest.mark.parametrize("sql", MIXED)
def test_exact_count_matches_oracle(small_mixed, sql):
    schema, tables = small_mixed
    query = bind(parse_sql(sql), schema)
    assert ExactCounter(tables).count(query) == oracle_count(
        query, tables, cap=10 ** 18)


def test_exact_count_matches_nested_loop():
    spec = SyntheticSpec(tables=5, rows=12, layout="mixed", skew=1.0,
                         distinct_keys=4, correlated=True)
    schema, tables = generate_synthetic(spec, seed=9)
    counter = ExactCounter(tables)
    for sql in MIXED:
        query = bind(parse_sql(sql), schema)
        assert counter.count(query) == nested_loop_count(query, tables), sql


def test_exact_count_beyond_int64():
    n = 20_000  # every row has key 1, so the 5-table count is n ** 5
    spec = SyntheticSpec(tables=5, rows=n, layout="mixed", distinct_keys=1)
    schema, tables = generate_synthetic(spec, seed=1)
    query = bind(parse_sql(MIXED[4].replace(" AND t5.y >= 6", "")), schema)
    count = ExactCounter(tables).count(query)
    assert count == n ** 5 and count > np.iinfo(np.int64).max


def test_replace_drops_cached_tuples(small_mixed):
    schema, tables = small_mixed
    counter = ExactCounter(tables)
    query = bind(parse_sql(MIXED[0]), schema)
    before = counter.count(query)
    t2 = tables["t2"]
    doubled = TableData(
        name="t2",
        columns={c: np.concatenate([v, v]) for c, v in t2.columns.items()},
        null_mask={c: np.concatenate([v, v]) for c, v in t2.null_mask.items()},
        row_count=2 * t2.row_count)
    counter.replace("t2", doubled)
    assert counter.count(query) == 2 * before


def test_nulls_never_join_or_match():
    from tkhist.catalog import schema_from_document
    doc = {"tables": [
        {"name": n, "file": f"{n}.csv",
         "columns": [{"name": "k", "kind": "integer", "role": "key"},
                     {"name": "y", "kind": "integer", "role": "attribute"}]}
        for n in ("r", "s")],
        "foreign_keys": [{"from": "s.k", "to": "r.k"}]}
    schema = schema_from_document(doc)
    ones = np.ones(4, dtype=np.int64)

    def table(name, nulls_k, nulls_y):
        return TableData(name=name, columns={"k": ones.copy(), "y": ones * 5},
                         null_mask={"k": np.array(nulls_k),
                                    "y": np.array(nulls_y)}, row_count=4)

    tables = {"r": table("r", [False, True, False, False],
                         [False, False, True, False]),
              "s": table("s", [False, False, False, True], [False] * 4)}
    query = bind(parse_sql("SELECT COUNT(*) FROM r, s WHERE s.k = r.k "
                           "AND r.y >= 5"), schema)
    assert ExactCounter(tables).count(query) == oracle_count(query, tables) == 6


def test_design_and_stream_queries_are_distinct_and_bind(small_mixed):
    schema, tables = small_mixed
    lit = wl.Literals(tables)
    design = wl.design_queries(schema, lit)
    stream = list(itertools.islice(wl.filtered_stream(schema, lit, 3), 600))
    assert len(set(stream)) == len(stream)
    assert set(stream[:len(design)]) == set(design)
    for sql in stream + wl.join_queries(schema, 3) + wl.update_queries(schema, lit):
        bind(parse_sql(sql), schema)
    assert next(wl.filtered_stream(schema, lit, 3)) == stream[0]


def test_tracer_spans_and_restore():
    from tkhist import joinengine, estimator
    original = joinengine.jtkh_join
    spec = SyntheticSpec(tables=3, rows=300, layout="star", distinct_keys=30)
    schema, tables = generate_synthetic(spec, seed=2)
    from tkhist.state import BuildConfig, build_state
    state = build_state(schema, tables, BuildConfig(bin_count=10, top_k=3))
    tracer = Tracer()
    tracer.install("q0")
    try:
        estimator.estimate("SELECT COUNT(*) FROM t1, t2, t3 WHERE "
                           "t2.k1 = t1.k1 AND t3.k1 = t1.k1", state)
    finally:
        tracer.uninstall()
    assert joinengine.jtkh_join is original
    spans = tracer.by_trace()["q0"]
    assert spans["joinengine.jtkh_join"]["calls"] == 2
    root = spans["estimator.estimate"]
    inner = sum(v["s"] for k, v in spans.items()
                if k in ("queryfront.parse_bind", "queryfront.decompose",
                         "estimator.run_plan"))
    assert root["self_s"] == pytest.approx(root["s"] - inner, abs=1e-9)
    assert all(v["self_s"] >= 0 for v in spans.values())
