import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import TKHistError
from tkhist.estimator import _single_table_fraction
from tkhist.histcore import (build_tkhist2d, categorical_binning,
                             numeric_binning)
from tkhist.predicate import (BinSelectivity, Predicate,
                              combine_table_selectivity, key_bin_fractions,
                              matches, satisfying_intervals, selectivity_2d)
from tkhist.state import BuildConfig, build_state

from conftest import make_table, two_table_schema


def make_domain(lo=0, hi=100, bins=10):
    d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
    d.set_boundaries(lo, hi, bins)
    return d


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
        binning = numeric_binning(np.asarray(attrs), attr_bins, integer=True)
        h = build_tkhist2d(np.asarray(keys), np.asarray(attrs), d, binning)
        return d, h

    def test_matches_full_scan_when_boundary_aligned(self, rng):
        keys = rng.integers(0, 101, size=2000)
        attrs = rng.integers(0, 101, size=2000)
        attrs[0], attrs[1] = 0, 100  # pin the binning range
        d, h = self.build(keys, attrs, key_bins=4, attr_bins=10)
        pred = Predicate("c", "<", 50)  # falls on an attribute bin boundary
        frac = selectivity_2d(h, pred).fractions
        for i in range(4):
            in_bin = [(kk, aa) for kk, aa in zip(keys, attrs)
                      if d.bin_of(kk) == i]
            hit = sum(1 for _, aa in in_bin if aa < 50)
            assert frac[i] == pytest.approx(hit / len(in_bin))

    def test_empty_key_bin_is_neutral(self):
        d, h = self.build([1, 2, 3], [5, 5, 5], key_bins=4)
        frac = selectivity_2d(h, Predicate("c", "=", 5)).fractions
        assert frac[3] == 1.0

    def test_categorical_axis(self):
        d = make_domain(0, 10, 1)
        attrs = np.array(["a", "b", "a", "c"], dtype=object)
        h = build_tkhist2d(np.array([1, 2, 3, 4]), attrs, d,
                           categorical_binning(attrs))
        frac = selectivity_2d(h, Predicate("c", "=", "a")).fractions
        assert frac[0] == pytest.approx(0.5)

    def test_partial_overlap_interpolates(self):
        # single attr bin [0, 10); predicate < 5 covers half of it
        d = make_domain(0, 10, 1)
        attrs = np.array([0, 9])
        binning = numeric_binning(np.array([0, 10]), 1, integer=True)
        h = build_tkhist2d(np.array([1, 2]), attrs, d, binning)
        frac = selectivity_2d(h, Predicate("c", "<", 5)).fractions
        assert frac[0] == pytest.approx(0.5)


class TestCombine:
    def test_product_per_bin(self):
        a = BinSelectivity(np.array([0.5, 1.0]))
        b = BinSelectivity(np.array([0.5, 0.2]))
        out = combine_table_selectivity([a, b])
        assert out.fractions.tolist() == [0.25, 0.2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TKHistError):
            combine_table_selectivity([BinSelectivity(np.array([1.0])),
                                       BinSelectivity(np.array([1.0, 1.0]))])

    def test_fraction_bounds_enforced(self):
        with pytest.raises(TKHistError):
            BinSelectivity(np.array([1.5]))


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
