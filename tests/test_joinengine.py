from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import DomainMismatchError
from tkhist.estimator import _lift_alias, run_plan
from tkhist.histcore import build_tkhist1d, build_tkhist2d
from tkhist.joinengine import (CompositeHist, apply_filters, chain_translate,
                               jtkh_join, join_star_group, lift,
                               selinger_bin_estimate)
from tkhist.queryfront import bind, decompose, parse_sql
from tkhist.state import BuildConfig, build_state
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import make_table, two_table_schema


def make_domain(lo=0, hi=100, bins=4, id="t.k"):
    d = KeyDomain(id=id, columns=frozenset({id}))
    d.set_boundaries(lo, hi, bins)
    return d


def comp_of(domain, bins):
    """A composite from per-bin (dominant, background, ndv) triples."""
    return CompositeHist(domain=domain, dominant=[dict(b[0]) for b in bins],
                         background=np.array([b[1] for b in bins], dtype=float),
                         ndv=np.array([b[2] for b in bins], dtype=float))


EMPTY_BIN = ({}, 0.0, 0.0)


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
        d = make_domain(bins=1)
        out = jtkh_join(comp_of(d, [({}, 1.0, 5.0)]),
                        comp_of(d, [({}, 1.0, 3.0)]))
        assert out.ndv[0] == 3


class TestBinJoin:
    def test_hand_computed_bin(self):
        # a: container {1:3, 2:1}, background 4 rows over 2 keys (BAC 2)
        # b: container {1:2},      background 6 rows over 3 keys (BAC 2)
        d = make_domain(bins=1)
        a = comp_of(d, [({1: 3.0, 2: 1.0}, 4.0, 2.0)])
        b = comp_of(d, [({1: 2.0}, 6.0, 3.0)])
        out = jtkh_join(a, b)
        assert out.dominant[0] == {1: 6.0, 2: 2.0}  # 3*2 exact, 1*BAC_b cross
        assert out.background[0] == pytest.approx(4 * 6 / 3)
        assert out.ndv[0] == 2.0

    def test_excluded_keys_skipped(self):
        # r: {1: 3, 2: 1}, s: {1: 2, 2: 5}, every key in a container
        state, query = two_table_state([1, 1, 1, 2], [1, 1, 2, 2, 2, 2, 2],
                                       top_k=5)
        plan = decompose(query, state.column_domain)
        excluded = {state.column_domain["r.k"]: frozenset({1})}
        out = run_plan(state, query, plan, excluded)
        assert list(out) == [plan.root.domain_id]
        assert out[plan.root.domain_id].dominant[0] == {2: 5.0}

    def test_zero_product_entries_dropped(self):
        d = make_domain(bins=1)
        a = comp_of(d, [({1: 3.0}, 0.0, 0.0)])
        b = comp_of(d, [EMPTY_BIN])  # empty other side
        out = jtkh_join(a, b)
        assert out.dominant[0] == {}
        assert out.total() == 0.0

    def test_domain_mismatch_rejected(self):
        a = comp_of(make_domain(id="t.k"), [EMPTY_BIN])
        b = comp_of(make_domain(id="u.j"), [EMPTY_BIN])
        with pytest.raises(DomainMismatchError):
            jtkh_join(a, b)

    def test_k0_join_equals_selinger_per_bin(self, rng):
        d = make_domain(0, 100, 8)
        va = rng.integers(0, 101, size=500)
        vb = rng.integers(0, 101, size=300)
        ha = build_tkhist1d(va, d, k=0)
        hb = build_tkhist1d(vb, d, k=0)
        out = jtkh_join(lift(ha), lift(hb))
        for i, dom in enumerate(out.dominant):
            assert dom == {}
            expect = selinger_bin_estimate(ha.bins[i].nv, int(ha.ndv[i]),
                                           hb.bins[i].nv, int(hb.ndv[i]))
            assert out.background[i] == expect  # bit-for-bit

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
        assert out.dominant[0] == {2: 3.0}
        assert out.background[0] == 2.0


class TestFiltersAndExclusion:
    def test_background_scaled_dominant_kept(self):
        d = make_domain(bins=2)
        comp = comp_of(d, [({1: 4.0}, 10.0, 5.0), ({}, 8.0, 2.0)])
        out = apply_filters(comp, np.array([0.5, 0.25]))
        assert out.dominant[0] == {1: 4.0}
        assert out.background[0] == 5.0
        assert out.background[1] == 2.0
        assert out.ndv[0] == 5.0


class TestChainTranslate:
    def test_mass_distributed_by_bridge_grid(self, rng):
        src = make_domain(0, 10, 2, id="a.k1")
        dst = make_domain(0, 10, 2, id="b.k2")
        # bridge rows: (k1, k2) pairs
        k1 = np.array([1, 1, 1, 8, 8])
        k2 = np.array([2, 2, 9, 9, 9])
        bridge = build_tkhist2d(k1, k2, src, dst)
        target = build_tkhist1d(k2, dst, k=1)
        comp = comp_of(src, [({}, 30.0, 3.0), ({}, 12.0, 2.0)])
        out = chain_translate(comp, bridge, target)
        # src bin0 mass 30 splits 2/3 : 1/3; src bin1 mass 12 all to dst bin1
        assert out.domain.id == "b.k2"
        assert out.background[0] == pytest.approx(20.0)
        assert out.background[1] == pytest.approx(10.0 + 12.0)
        assert out.dominant[0] == {}
        # conservation when every source bin has bridge support
        assert out.background[0] + out.background[1] == \
            pytest.approx(comp.total())

    def test_ndv_from_target_histogram(self):
        src = make_domain(0, 10, 1, id="a.k1")
        dst = make_domain(0, 10, 1, id="b.k2")
        k1 = np.array([1, 2, 3])
        k2 = np.array([4, 4, 5])
        bridge = build_tkhist2d(k1, k2, src, dst)
        target = build_tkhist1d(k2, dst, k=1)  # container {4:2}, background {5}
        comp = comp_of(src, [({}, 6.0, 2.0)])
        out = chain_translate(comp, bridge, target)
        assert out.ndv[0] == 2.0  # background + container distincts

    def test_domain_checks(self):
        src = make_domain(0, 10, 1, id="a.k1")
        dst = make_domain(0, 10, 1, id="b.k2")
        other = make_domain(0, 10, 1, id="c.k3")
        bridge = build_tkhist2d(np.array([1]), np.array([2]), src, dst)
        target = build_tkhist1d(np.array([2]), other, k=0)
        comp = comp_of(other, [EMPTY_BIN])
        with pytest.raises(DomainMismatchError):
            chain_translate(comp, bridge, target)  # composite on wrong domain
        comp2 = comp_of(src, [EMPTY_BIN])
        with pytest.raises(DomainMismatchError):
            chain_translate(comp2, bridge, target)  # target on wrong domain


# ---------------------------------------------------------------------------
# Reference: the per-bin algebra written bin by bin in Python floats.  The
# array implementation must match it exactly, dict order included.

@dataclass
class RefBin:
    dominant: dict
    background_est: float
    ndv_est: float

    @property
    def bac_est(self) -> float:
        return self.background_est / self.ndv_est if self.ndv_est > 0 else 0.0

    def total(self) -> float:
        return self.background_est + sum(self.dominant.values())


def ref_bins(comp):
    return [RefBin(dict(d), bg, ndv) for d, bg, ndv in zip(
        comp.dominant, comp.background.tolist(), comp.ndv.tolist())]


def ref_join(a_bins, b_bins):
    out = []
    for ba, bb in zip(a_bins, b_bins):
        dom = {}
        for key, ca in ba.dominant.items():
            cb = bb.dominant.get(key)
            est = ca * cb if cb is not None else ca * bb.bac_est
            if est > 0:
                dom[key] = est
        for key, cb in bb.dominant.items():
            if key in ba.dominant:
                continue
            est = cb * ba.bac_est
            if est > 0:
                dom[key] = est
        ndv_a, ndv_b = ba.ndv_est, bb.ndv_est
        selinger = (0.0 if ndv_a <= 0 or ndv_b <= 0 else
                    ba.background_est * bb.background_est / max(ndv_a, ndv_b))
        out.append(RefBin(dom, selinger, min(ndv_a, ndv_b)))
    return out


def ref_filters(bins, fractions):
    return [RefBin(dict(b.dominant), b.background_est * float(f), b.ndv_est)
            for f, b in zip(fractions, bins)]


def ref_chain(bins, bridge, target):
    totals = np.array([b.total() for b in bins])
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    out = []
    for j, mass in enumerate(totals @ weights):
        ndv = (float(target.ndv[j] + len(target.bins[j].topk)) if mass > 0
               else 0.0)
        out.append(RefBin({}, float(mass), ndv))
    return out


def ref_total(bins):
    return sum(b.total() for b in bins)


def typed_items(maps):
    """Each map's items in order, with each value's type, so that an int
    count and its float are told apart."""
    return [[(k, type(v), v) for k, v in d.items()] for d in maps]


def assert_matches(comp, bins):
    assert len(comp.dominant) == len(bins)
    assert typed_items(comp.dominant) == typed_items(b.dominant for b in bins)
    assert comp.background.tolist() == [b.background_est for b in bins]
    assert comp.ndv.tolist() == [b.ndv_est for b in bins]
    assert comp.total() == ref_total(bins)


masses = st.one_of(st.just(0.0), st.floats(0, 1e4, allow_nan=False),
                   st.integers(1, 1000).map(float))
ndvs = st.one_of(st.just(0.0), st.integers(1, 50).map(float))
bin_triples = st.builds(
    lambda dom, bg_ndv: (dom, *bg_ndv),
    # few keys, so that keys overlap; float estimates or a lifted
    # histogram's int counts
    st.one_of(st.dictionaries(st.integers(0, 6), masses, max_size=4),
              st.dictionaries(st.integers(0, 6), st.integers(0, 1000),
                              max_size=4)),
    # an empty background (no mass, no NDV, or neither) half the time
    st.one_of(st.tuples(masses, ndvs), st.tuples(st.just(0.0), ndvs),
              st.tuples(masses, st.just(0.0)),
              st.just((0.0, 0.0))))


@st.composite
def composites(draw, n_bins, count):
    d = make_domain(0, 10, n_bins)
    return [comp_of(d, draw(st.lists(bin_triples, min_size=n_bins,
                                     max_size=n_bins)))
            for _ in range(count)]


@st.composite
def star_groups(draw):
    return draw(composites(draw(st.integers(1, 4)), draw(st.integers(1, 4))))


class TestAgainstPerBinReference:
    @settings(max_examples=200, deadline=None)
    @given(group=star_groups())
    def test_join_and_star_fold(self, group):
        if len(group) >= 2:
            a, b = group[0], group[1]
            assert_matches(jtkh_join(a, b), ref_join(ref_bins(a), ref_bins(b)))
        expect = ref_bins(group[0])
        for comp in group[1:]:
            expect = ref_join(expect, ref_bins(comp))
        assert_matches(join_star_group(group), expect)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_bins=st.integers(1, 4))
    def test_join_leaves_inputs_unchanged(self, data, n_bins):
        a, b = data.draw(composites(n_bins, 2))
        before = typed_items(a.dominant + b.dominant)
        out = jtkh_join(a, b)
        assert typed_items(a.dominant + b.dominant) == before
        assert not any(o is d for o in out.dominant
                       for d in a.dominant + b.dominant)

    @settings(max_examples=100, deadline=None)
    @given(group=star_groups(), data=st.data())
    def test_filters(self, group, data):
        comp = group[0]
        fractions = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
            min_size=len(comp.dominant), max_size=len(comp.dominant))))
        assert_matches(apply_filters(comp, fractions),
                       ref_filters(ref_bins(comp), fractions))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_src=st.integers(1, 4), n_dst=st.integers(1, 4),
           k=st.integers(0, 2))
    def test_chain_translate(self, data, n_src, n_dst, k):
        src = make_domain(0, 10, n_src, id="a.k1")
        dst = make_domain(0, 10, n_dst, id="b.k2")
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 10),
                                             st.integers(0, 10)), max_size=30))
        k1 = np.array([p[0] for p in pairs], dtype=np.int64)
        k2 = np.array([p[1] for p in pairs], dtype=np.int64)
        bridge = build_tkhist2d(k1, k2, src, dst)
        target = build_tkhist1d(k2, dst, k=k)
        comp = data.draw(composites(n_src, 1))[0]
        comp.domain = src
        assert_matches(chain_translate(comp, bridge, target),
                       ref_chain(ref_bins(comp), bridge, target))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_bins=st.integers(1, 20))
    def test_total_sums_bins_in_order(self, data, n_bins):
        comp = data.draw(composites(n_bins, 1))[0]
        assert comp.total() == ref_total(ref_bins(comp))


@st.composite
def join_operands(draw):
    """Two composites over one domain: int or float counts, empty maps,
    zero-BAC bins, overlapping or disjoint keys, and at times an operand
    carried across a bridge or a join whose maps are unbuilt."""
    n = draw(st.integers(1, 4))
    a, b, c = draw(composites(n, 3))
    if draw(st.booleans()):  # b's keys are disjoint from a's
        b.dominant = [{k + 7: v for k, v in d.items()} for d in b.dominant]
    side = draw(st.sampled_from(["plain", "chain", "join"]))
    if side == "chain":
        src = make_domain(0, 10, draw(st.integers(1, 4)), id="a.k1")
        pairs = draw(st.lists(st.tuples(st.integers(0, 10),
                                        st.integers(0, 10)), max_size=30))
        k1 = np.array([p[0] for p in pairs], dtype=np.int64)
        k2 = np.array([p[1] for p in pairs], dtype=np.int64)
        source = draw(composites(src.bin_count, 1))[0]
        source.domain = src
        b = chain_translate(source, build_tkhist2d(k1, k2, src, b.domain),
                            build_tkhist1d(k2, b.domain, k=1))
    elif side == "join":
        b = jtkh_join(b, c)
    return (b, a) if draw(st.booleans()) else (a, b)


class TestJoinMass:
    """A join's totals come from its operands, before its maps exist."""

    @settings(max_examples=300, deadline=None)
    @given(pair=join_operands())
    def test_totals_equal_the_maps_built_after(self, pair):
        out = jtkh_join(*pair)
        totals = out.bin_totals()
        total = out.total()
        built = [bg + sum(d.values())
                 for bg, d in zip(out.background.tolist(), out.dominant)]
        np.testing.assert_allclose(totals, built, rtol=1e-12, atol=0)
        assert total == pytest.approx(sum(built), rel=1e-12, abs=0)

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        "AND t3.k1 = t1.k1",
    ])
    def test_estimate_builds_no_root_map(self, monkeypatch, sql):
        from tkhist import estimator
        spec = SyntheticSpec(tables=3, rows=300, layout="star",
                             distinct_keys=30)
        schema, tables = generate_synthetic(spec, seed=2)
        state = build_state(schema, tables, BuildConfig(bin_count=10, top_k=3))
        roots = []

        def recorded(*args):
            composites = run_plan(*args)
            roots.append(list(composites.values())[-1])
            return composites

        monkeypatch.setattr(estimator, "run_plan", recorded)
        value = estimator.estimate(sql, state).estimate
        root, = roots
        assert root._maps is None  # summed from its operands only
        assert value == root.total() > 0
