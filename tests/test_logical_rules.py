"""The logical rules that estimates obey, as properties over synth's mixed
layout (Wang et al., "Are We Ready For Learned Cardinality Estimation?",
VLDB 2021): consistency, monotonicity and fidelity-A.  Each rule is checked
bit for bit, on states built with discovery, over a categorical and a
numeric `y` and over independent and key-correlated data."""
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import schema_from_document
from tkhist.estimator import discover_correlations, estimate
from tkhist.state import BuildConfig, build_state
from tkhist.synth import SyntheticSpec, generate_synthetic

SHAPES = [  # the mixed layout's join trees: FROM list and join edges
    (["t2"], []),
    (["t1", "t2"], [("t2.k1", "t1.k1")]),
    (["t3", "t4"], [("t4.k2", "t3.k2")]),
    (["t1", "t2", "t3"], [("t2.k1", "t1.k1"), ("t3.k1", "t1.k1")]),
    (["t1", "t3", "t4"], [("t3.k1", "t1.k1"), ("t4.k2", "t3.k2")]),
    (["t3", "t4", "t5"], [("t4.k2", "t3.k2"), ("t5.k3", "t4.k3")]),
    (["t1", "t2", "t3", "t4", "t5"],
     [("t2.k1", "t1.k1"), ("t3.k1", "t1.k1"), ("t4.k2", "t3.k2"),
      ("t5.k3", "t4.k3")]),
]


@functools.cache
def mixed_state(seed: int, correlated: bool, numeric: bool):
    """A discovered state of the mixed layout and its tables; `y` holds
    fewer distinct values than the default threshold, so it is numeric
    only under a threshold of 10."""
    schema, tables = generate_synthetic(
        SyntheticSpec(tables=5, rows=600, layout="mixed", distinct_keys=100,
                      correlated=correlated), seed=seed)
    if numeric:
        schema = schema_from_document({**schema.document,
                                       "categorical_threshold": 10})
    state = build_state(schema, tables, BuildConfig(bin_count=8, top_k=3))
    discover_correlations(state, tables)
    return state, tables


states = st.builds(mixed_state, st.integers(0, 2), st.booleans(),
                   st.booleans())
literals = st.integers(-5, 1015)  # past both ends of every y


def count_sql(tables, edges, filters=()) -> str:
    where = [f"{a} = {b}" for a, b in edges] + list(filters)
    sql = "SELECT COUNT(*) FROM " + ", ".join(tables)
    return sql + (" WHERE " + " AND ".join(where) if where else "")


@st.composite
def filtered_shapes(draw):
    """A join tree, plus up to two range or point filters on its tables."""
    tables, edges = draw(st.sampled_from(SHAPES))
    filters = draw(st.lists(st.builds(
        "{}.y {} {}".format, st.sampled_from(tables),
        st.sampled_from(["<", "<=", "=", ">=", ">"]), literals), max_size=2))
    return tables, edges, filters


class TestLogicalRules:
    @settings(max_examples=100, deadline=None)
    @given(state=states, shape=filtered_shapes(), data=st.data())
    def test_consistency(self, state, shape, data):
        # any order of the FROM list and of the join edges, either side
        # of each edge first, gives the same estimate
        state, _ = state
        tables, edges, filters = shape
        order = data.draw(st.permutations(tables))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                                   max_size=len(edges)))
        written = [(b, a) if flip else (a, b)
                   for (a, b), flip in zip(data.draw(st.permutations(edges)),
                                           flips)]
        assert (estimate(count_sql(order, written, filters), state).estimate
                == estimate(count_sql(tables, edges, filters),
                            state).estimate)

    @settings(max_examples=150, deadline=None)
    @given(state=states, shape=filtered_shapes(), data=st.data(),
           lo=literals, hi=literals)
    def test_monotonicity(self, state, shape, data, lo, hi):
        # estimates never fall as a <= literal rises, and never rise as a
        # >= literal rises, whatever the other filters
        state, _ = state
        tables, edges, filters = shape
        alias = data.draw(st.sampled_from(tables))
        lo, hi = sorted((lo, hi))

        def est(op, value):
            return estimate(count_sql(tables, edges, [
                *filters, f"{alias}.y {op} {value}"]), state).estimate

        assert est("<=", lo) <= est("<=", hi)
        assert est(">=", lo) >= est(">=", hi)

    @settings(max_examples=60, deadline=None)
    @given(state=states, shape=st.sampled_from(SHAPES), data=st.data())
    def test_fidelity_a(self, state, shape, data):
        # on data without nulls, a filter that spans the column's values
        # gives the unfiltered estimate
        state, tables_data = state
        tables, edges = shape
        alias = data.draw(st.sampled_from(tables))
        y = tables_data[alias].columns["y"]
        lo, hi = int(y.min()), int(y.max())
        unfiltered = estimate(count_sql(tables, edges), state).estimate
        for spanning in (f">= {lo}", f"<= {hi}", f"BETWEEN {lo} AND {hi}"):
            assert estimate(count_sql(tables, edges, [
                f"{alias}.y {spanning}"]), state).estimate == unfiltered
