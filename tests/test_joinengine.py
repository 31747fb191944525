from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import DomainMismatchError
from tkhist.estimator import _lift_alias, run_plan
from tkhist.histcore import build_tkhist1d, build_tkhist2d, domain_binning
from tkhist.joinengine import (CompositeBin, CompositeHist, apply_filters,
                               chain_translate, jtkh_join, join_star_group,
                               lift, propagate_ndv, selinger_bin_estimate)
from tkhist.queryfront import bind, decompose, parse_sql
from tkhist.state import BuildConfig, build_state

from conftest import make_table, two_table_schema


def make_domain(lo=0, hi=100, bins=4, id="t.k"):
    d = KeyDomain(id=id, columns=frozenset({id}))
    d.set_boundaries(lo, hi, bins)
    return d


def comp_of(domain, bins):
    return CompositeHist(domain=domain, bins=bins)


def two_table_state(r_keys, s_keys, top_k):
    """One-bin state over r(k, y) and s(k, y) and the query joining them."""
    tables = {"r": make_table("r", {"k": r_keys, "y": [0] * len(r_keys)}),
              "s": make_table("s", {"k": s_keys, "y": [0] * len(s_keys)})}
    state = build_state(two_table_schema(), tables,
                        BuildConfig(bin_count=1, top_k=top_k))
    query = bind(parse_sql("SELECT COUNT(*) FROM r, s WHERE r.k = s.k"),
                 state.schema)
    return state, query


class TestSelinger:
    def test_formula(self):
        assert selinger_bin_estimate(10, 2, 6, 3) == pytest.approx(20.0)

    def test_empty_side_is_zero(self):
        assert selinger_bin_estimate(10, 0, 6, 3) == 0.0
        assert selinger_bin_estimate(0, 0, 0, 0) == 0.0

    def test_ndv_propagates_as_min(self):
        assert propagate_ndv(5, 3) == 3


class TestBinJoin:
    def test_hand_computed_bin(self):
        # a: container {1:3, 2:1}, background 4 rows over 2 keys (BAC 2)
        # b: container {1:2},      background 6 rows over 3 keys (BAC 2)
        d = make_domain(bins=1)
        a = comp_of(d, [CompositeBin({1: 3.0, 2: 1.0}, 4.0, 2.0)])
        b = comp_of(d, [CompositeBin({1: 2.0}, 6.0, 3.0)])
        out = jtkh_join(a, b)
        bin0 = out.bins[0]
        assert bin0.dominant == {1: 6.0, 2: 2.0}  # 3*2 exact, 1*BAC_b cross
        assert bin0.background_est == pytest.approx(4 * 6 / 3)
        assert bin0.ndv_est == 2.0

    def test_excluded_keys_skipped(self):
        # r: {1: 3, 2: 1}, s: {1: 2, 2: 5}, every key in a container
        state, query = two_table_state([1, 1, 1, 2], [1, 1, 2, 2, 2, 2, 2],
                                       top_k=5)
        plan = decompose(query, state.column_domain)
        excluded = {state.column_domain["r.k"]: frozenset({1})}
        out = run_plan(state, query, plan, excluded)
        assert out.bins[0].dominant == {2: 5.0}

    def test_zero_product_entries_dropped(self):
        d = make_domain(bins=1)
        a = comp_of(d, [CompositeBin({1: 3.0}, 0.0, 0.0)])
        b = comp_of(d, [CompositeBin({}, 0.0, 0.0)])  # empty other side
        out = jtkh_join(a, b)
        assert out.bins[0].dominant == {}
        assert out.bins[0].total() == 0.0

    def test_domain_mismatch_rejected(self):
        a = comp_of(make_domain(id="t.k"), [CompositeBin()])
        b = comp_of(make_domain(id="u.j"), [CompositeBin()])
        with pytest.raises(DomainMismatchError):
            jtkh_join(a, b)

    def test_k0_join_equals_selinger_per_bin(self, rng):
        d = make_domain(0, 100, 8)
        va = rng.integers(0, 101, size=500)
        vb = rng.integers(0, 101, size=300)
        ha = build_tkhist1d(va, d, k=0)
        hb = build_tkhist1d(vb, d, k=0)
        out = jtkh_join(lift(ha), lift(hb))
        for i, b in enumerate(out.bins):
            assert b.dominant == {}
            expect = selinger_bin_estimate(ha.bins[i].nv, ha.bins[i].ndv,
                                           hb.bins[i].nv, hb.bins[i].ndv)
            assert b.background_est == expect  # bit-for-bit

    def test_full_capture_two_table_exact(self, rng):
        d = make_domain(0, 50, 5)
        va = rng.integers(0, 51, size=400)
        vb = rng.integers(0, 51, size=300)
        ha = build_tkhist1d(va, d, k=1000)
        hb = build_tkhist1d(vb, d, k=1000)
        ca, cb = Counter(va.tolist()), Counter(vb.tolist())
        truth = sum(ca[k] * cb[k] for k in ca)
        assert jtkh_join(lift(ha), lift(hb)).total() == pytest.approx(truth)

    @settings(max_examples=40, deadline=None)
    @given(va=st.lists(st.integers(0, 60), max_size=120),
           vb=st.lists(st.integers(0, 60), max_size=120),
           k=st.integers(0, 5))
    def test_join_total_is_symmetric(self, va, vb, k):
        d = make_domain(0, 60, 3)
        ha = lift(build_tkhist1d(np.asarray(va, dtype=np.int64), d, k=k))
        hb = lift(build_tkhist1d(np.asarray(vb, dtype=np.int64), d, k=k))
        ab = jtkh_join(ha, hb).total()
        ba = jtkh_join(hb, ha).total()
        assert ab == pytest.approx(ba)


class TestStarFold:
    def test_three_way_full_capture_exact(self, rng):
        d = make_domain(0, 30, 3)
        cols = [rng.integers(0, 31, size=200) for _ in range(3)]
        hists = [lift(build_tkhist1d(c, d, k=1000)) for c in cols]
        counters = [Counter(c.tolist()) for c in cols]
        truth = sum(counters[0][k] * counters[1][k] * counters[2][k]
                    for k in counters[0])
        assert join_star_group(hists).total() == pytest.approx(truth)

    def test_single_factor_applies_exclusion(self):
        # r: container {1: 5, 2: 3}, background key 3 with 2 rows
        state, query = two_table_state([1] * 5 + [2] * 3 + [3] * 2, [1],
                                       top_k=2)
        comp = _lift_alias(state, query, "r", "k", frozenset({1}))
        out = join_star_group([comp])
        assert out.bins[0].dominant == {2: 3.0}
        assert out.bins[0].background_est == 2.0


class TestFiltersAndExclusion:
    def test_background_scaled_dominant_kept(self):
        d = make_domain(bins=2)
        comp = comp_of(d, [CompositeBin({1: 4.0}, 10.0, 5.0),
                           CompositeBin({}, 8.0, 2.0)])
        out = apply_filters(comp, np.array([0.5, 0.25]))
        assert out.bins[0].dominant == {1: 4.0}
        assert out.bins[0].background_est == 5.0
        assert out.bins[1].background_est == 2.0
        assert out.bins[0].ndv_est == 5.0


class TestChainTranslate:
    def test_mass_distributed_by_bridge_grid(self, rng):
        src = make_domain(0, 10, 2, id="a.k1")
        dst = make_domain(0, 10, 2, id="b.k2")
        # bridge rows: (k1, k2) pairs
        k1 = np.array([1, 1, 1, 8, 8])
        k2 = np.array([2, 2, 9, 9, 9])
        bridge = build_tkhist2d(k1, k2, src, domain_binning(dst, integer=True))
        target = build_tkhist1d(k2, dst, k=1)
        comp = comp_of(src, [CompositeBin({}, 30.0, 3.0),
                             CompositeBin({}, 12.0, 2.0)])
        out = chain_translate(comp, bridge, target)
        # src bin0 mass 30 splits 2/3 : 1/3; src bin1 mass 12 all to dst bin1
        assert out.domain.id == "b.k2"
        assert out.bins[0].background_est == pytest.approx(20.0)
        assert out.bins[1].background_est == pytest.approx(10.0 + 12.0)
        assert out.bins[0].dominant == {}
        # conservation when every source bin has bridge support
        assert out.bins[0].background_est + out.bins[1].background_est == \
            pytest.approx(comp.total())

    def test_ndv_from_target_histogram(self):
        src = make_domain(0, 10, 1, id="a.k1")
        dst = make_domain(0, 10, 1, id="b.k2")
        k1 = np.array([1, 2, 3])
        k2 = np.array([4, 4, 5])
        bridge = build_tkhist2d(k1, k2, src, domain_binning(dst, integer=True))
        target = build_tkhist1d(k2, dst, k=1)  # container {4:2}, background {5}
        comp = comp_of(src, [CompositeBin({}, 6.0, 2.0)])
        out = chain_translate(comp, bridge, target)
        assert out.bins[0].ndv_est == 2.0  # background + container distincts

    def test_domain_checks(self):
        src = make_domain(0, 10, 1, id="a.k1")
        dst = make_domain(0, 10, 1, id="b.k2")
        other = make_domain(0, 10, 1, id="c.k3")
        bridge = build_tkhist2d(np.array([1]), np.array([2]), src,
                                domain_binning(dst, integer=True))
        target = build_tkhist1d(np.array([2]), other, k=0)
        comp = comp_of(other, [CompositeBin()])
        with pytest.raises(DomainMismatchError):
            chain_translate(comp, bridge, target)  # composite on wrong domain
        comp2 = comp_of(src, [CompositeBin()])
        with pytest.raises(DomainMismatchError):
            chain_translate(comp2, bridge, target)  # target on wrong domain
