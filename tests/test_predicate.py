import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import DomainMismatchError, TKHistError
from tkhist.estimator import _lift_alias, _single_table_fraction
from tkhist.histcore import TKHist2D, build_tkhist2d
from tkhist.joinengine import apply_filters
from tkhist.predicate import (Predicate, key_bin_fractions, matches,
                              satisfying_intervals, selectivity_2d)
from tkhist.queryfront import bind, parse_sql
from tkhist.state import BuildConfig, build_state

from conftest import (categorical_axis, composites_of, domain_bin, make_table,
                      numeric_axis, two_table_schema)


def make_domain(lo=0, hi=100, bins=10):
    d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
    d.set_boundaries(lo, hi, bins)
    return d


def _overlap_fraction(lo: float, hi: float,
                      intervals: list[tuple[float, float]]) -> float:
    """The per-bin overlap loop that `predicate.key_bin_fractions` replaced."""
    width = hi - lo
    if width <= 0:
        return 0.0
    covered = 0.0
    for a, b in intervals:
        covered += max(0.0, min(b, hi) - max(a, lo))
    return min(covered / width, 1.0)


def reference_fractions(lo, hi, n, pred, integer):
    """Bin j of n over [lo, hi] spans lo + j*w .. lo + (j+1)*w, as in the
    former `KeyDomain.bin_interval` and `AttrBinning.interval`."""
    w = (hi - lo) / n
    intervals = satisfying_intervals(pred, integer)
    return np.array([_overlap_fraction(lo + j * w, lo + (j + 1) * w,
                                       intervals) for j in range(n)])


def reference_selectivity_2d(h, pred, integer):
    """The former numeric branch of `selectivity_2d`, over the loop."""
    sat = reference_fractions(h.attr.lo, h.attr.hi, h.attr.bin_count, pred,
                              integer)
    mass = h.grid.sum(axis=1).astype(np.float64)
    hit = h.grid @ sat
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(mass > 0, hit / np.maximum(mass, 1e-300), 1.0)
    return np.clip(frac, 0.0, 1.0)


class TestMatches:
    @pytest.mark.parametrize("op,val,v,expect", [
        ("=", 5, 5, True), ("=", 5, 6, False),
        ("<", 5, 4, True), ("<", 5, 5, False),
        ("<=", 5, 5, True), (">", 5, 6, True), (">=", 5, 5, True),
        ("between", (2, 4), 3, True), ("between", (2, 4), 5, False),
        ("in", frozenset({1, 3}), 3, True), ("in", frozenset({1, 3}), 2, False),
    ])
    def test_operators(self, op, val, v, expect):
        assert matches(Predicate("c", op, val), v) is expect

    def test_null_never_matches(self):
        assert not matches(Predicate("c", "=", 5), None)

    def test_between_order_enforced(self):
        with pytest.raises(TKHistError):
            Predicate("c", "between", (4, 2))


class TestIntervals:
    def test_integer_unit_cells(self):
        assert satisfying_intervals(Predicate("c", "=", 5), True) == [(5, 6)]
        assert satisfying_intervals(Predicate("c", "<=", 5), True) == \
            [(-float("inf"), 6)]
        assert satisfying_intervals(Predicate("c", ">", 5), True) == \
            [(6, float("inf"))]
        assert satisfying_intervals(Predicate("c", "between", (2, 4)), True) == \
            [(2, 5)]

    def test_real_intervals(self):
        assert satisfying_intervals(Predicate("c", "<", 5), False) == \
            [(-float("inf"), 5)]
        assert satisfying_intervals(Predicate("c", ">=", 5), False) == \
            [(5, float("inf"))]


class TestSelectivity2D:
    def build(self, keys, attrs, key_bins=4, attr_bins=5):
        d = make_domain(0, 100, key_bins)
        binning = numeric_axis(np.asarray(attrs), attr_bins)
        h = build_tkhist2d(np.asarray(keys), np.asarray(attrs), d, binning)
        return d, h

    def test_matches_full_scan_when_boundary_aligned(self, rng):
        keys = rng.integers(0, 101, size=2000)
        attrs = rng.integers(0, 101, size=2000)
        attrs[0], attrs[1] = 0, 100  # pin the binning range
        d, h = self.build(keys, attrs, key_bins=4, attr_bins=10)
        pred = Predicate("c", "<", 50)  # falls on an attribute bin boundary
        frac = selectivity_2d(h, pred, integer=True, rows=h.key_marginal())
        for i in range(4):
            in_bin = [(kk, aa) for kk, aa in zip(keys, attrs)
                      if domain_bin(d, kk) == i]
            hit = sum(1 for _, aa in in_bin if aa < 50)
            assert frac[i] == pytest.approx(hit / len(in_bin))

    def test_empty_key_bin_is_neutral(self):
        d, h = self.build([1, 2, 3], [5, 5, 5], key_bins=4)
        frac = selectivity_2d(h, Predicate("c", "=", 5), integer=True,
                              rows=h.key_marginal())
        assert frac[3] == 1.0

    def test_categorical_axis(self):
        d = make_domain(0, 10, 1)
        attrs = np.array(["a", "b", "a", "c"], dtype=object)
        h = build_tkhist2d(np.array([1, 2, 3, 4]), attrs, d,
                           categorical_axis(attrs))
        frac = selectivity_2d(h, Predicate("c", "=", "a"), integer=False,
                              rows=h.key_marginal())
        assert frac[0] == pytest.approx(0.5)

    def test_partial_overlap_interpolates(self):
        # single attr bin [0, 10); predicate < 5 covers half of it
        d = make_domain(0, 10, 1)
        attrs = np.array([0, 9])
        binning = numeric_axis(np.array([0, 10]), 1)
        h = build_tkhist2d(np.array([1, 2]), attrs, d, binning)
        frac = selectivity_2d(h, Predicate("c", "<", 5), integer=True,
                              rows=h.key_marginal())
        assert frac[0] == pytest.approx(0.5)


class TestCombine:
    """Per-bin fractions of one alias's predicates multiply at lift."""

    def test_product_per_bin(self):
        # two key bins [0, 5) and [5, 10]; y and z are categorical, so each
        # per-bin fraction is an exact share of the bin's rows
        tables = {"r": make_table("r", {"k": [1, 2, 3, 4, 6, 7, 8, 9, 10],
                                        "y": [1, 1, 9, 9, 1, 1, 1, 1, 1],
                                        "z": [5, 5, 0, 0, 5, 0, 0, 0, 0]}),
                  "s": make_table("s", {"k": [0, 10], "y": [0, 0],
                                        "z": [0, 0]})}
        state = build_state(two_table_schema(("y", "z")), tables,
                            BuildConfig(bin_count=2, top_k=0))
        query = bind(parse_sql("SELECT COUNT(*) FROM r, s WHERE r.k = s.k "
                               "AND r.y < 5 AND r.z >= 3"), state.schema)
        hy, hz = state.hists2d[("r", "k", "y")], state.hists2d[("r", "k", "z")]
        fy = selectivity_2d(hy, query.predicates[0], integer=True,
                            rows=hy.key_marginal())
        fz = selectivity_2d(hz, query.predicates[1], integer=True,
                            rows=hz.key_marginal())
        assert fy.tolist() == [0.5, 1.0] and fz.tolist() == [0.5, 0.2]
        comp = _lift_alias(state, query, "r", "k", frozenset())
        assert comp.background.tolist() == [4 * 0.25, 5 * 0.2]

    def test_length_mismatch_rejected(self):
        comp, = composites_of(make_domain(0, 10, 2), [({}, 0.0, 0.0)] * 2)
        with pytest.raises(DomainMismatchError):
            apply_filters(comp, np.array([1.0]))


class TestCategorical:
    def test_exact_fraction(self):
        tables = {"r": make_table("r", {"k": [1, 2, 3, 4], "y": [7, 7, 7, 8]}),
                  "s": make_table("s", {"k": [1], "y": [7]})}
        state = build_state(two_table_schema(), tables,
                            BuildConfig(bin_count=4, top_k=1))
        assert state.freq_hists[("r", "y")] == {7: 3, 8: 1}
        assert _single_table_fraction(
            state, "r", Predicate("r.y", "=", 7)) == pytest.approx(0.75)
        assert _single_table_fraction(
            state, "r", Predicate("r.y", "in", frozenset({7, 8}))) == 1.0


class TestKeyBinFractions:
    def test_boundary_aligned_equality(self):
        d = make_domain(0, 100, 10)
        fr = key_bin_fractions(d, Predicate("k", "<", 20), integer=True)
        assert fr.tolist() == [1.0, 1.0] + [0.0] * 8

    def test_point_predicate_unit_cell(self):
        d = make_domain(0, 100, 10)
        fr = key_bin_fractions(d, Predicate("k", "=", 25), integer=True)
        assert fr[2] == pytest.approx(0.1)
        assert fr.sum() == pytest.approx(0.1)

    @settings(max_examples=40, deadline=None)
    @given(val=st.integers(min_value=0, max_value=99),
           op=st.sampled_from(["<", "<=", ">", ">=", "="]))
    def test_fractions_in_unit_interval(self, val, op):
        d = make_domain(0, 100, 7)
        fr = key_bin_fractions(d, Predicate("k", op, val), integer=True)
        assert (fr >= 0).all() and (fr <= 1).all()


@st.composite
def axis_predicates(draw):
    """An equi-width axis of 1-8 bins and a predicate on it.

    INTEGER axes have integral ends, some past 2**53 where ints and floats
    part; REAL axes have float ends.  Operands lie on a bin edge, next to
    one, inside a bin or outside the axis (INTEGER ones also past 2**64);
    `<`/`>` give infinite half-intervals and IN gives several cells.
    """
    integer = draw(st.booleans())
    n = draw(st.integers(1, 8))
    if integer:
        base = draw(st.sampled_from([0, -40, 2 ** 60]))
        lo = base + draw(st.integers(-20, 20))
        hi = lo + draw(st.integers(1, 120)) * (4096 if base else 1)
    else:
        lo = draw(st.floats(-100, 100))
        hi = lo + draw(st.floats(0.5, 200))
    w = (hi - lo) / n
    edges = [lo + j * w for j in range(n + 1)]
    if integer:
        points = [int(e) + d for e in edges for d in (-1, 0, 1)]
        points += [int(lo) - 10, int(hi) + 10, 10 ** 20 + 1, -(10 ** 20)]
    else:
        points = [e + d for e in edges for d in (-0.25, 0.0, 0.25)]
        points += [lo - 10.0, hi + 10.0, draw(st.floats(lo, hi))]
    points += [int(e + w / 2) if integer else e + w / 2 for e in edges[:-1]]
    operand = st.sampled_from(points)
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "between", "in"]))
    if op == "between":
        value = tuple(sorted([draw(operand), draw(operand)]))
    elif op == "in":
        value = frozenset(draw(st.lists(operand, min_size=1, max_size=4)))
    else:
        value = draw(operand)
    return integer, lo, hi, n, Predicate("c", op, value)


class TestBinFractionsDifferential:
    """The shared overlap routine against the former per-bin loop, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=axis_predicates())
    def test_key_bin_fractions_equal_loop(self, case):
        integer, lo, hi, n, pred = case
        d = make_domain(lo, hi, n)
        got = key_bin_fractions(d, pred, integer=integer)
        assert got.dtype == np.float64
        assert got.tolist() == reference_fractions(d.lo, d.hi, n, pred,
                                                   integer).tolist()

    @settings(max_examples=400, deadline=None)
    @given(case=axis_predicates(), data=st.data())
    def test_selectivity_2d_equals_loop(self, case, data):
        integer, lo, hi, n, pred = case
        m = data.draw(st.integers(1, 4))  # key bins; some get no rows
        counts = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]),
                                    min_size=m * n, max_size=m * n))
        axis = KeyDomain(id="t.c", columns=frozenset())
        axis.set_boundaries(lo, hi, n)
        h = TKHist2D(key_domain=make_domain(0, 10, m), attr=axis,
                     grid=np.asarray(counts, dtype=np.int64).reshape(m, n))
        got = selectivity_2d(h, pred, integer, h.key_marginal())
        assert got.tolist() == \
            reference_selectivity_2d(h, pred, integer).tolist()
