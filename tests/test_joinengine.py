import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain, schema_from_document
from tkhist.errors import DomainMismatchError, TKHistError
from tkhist.estimator import _lift_alias, estimate, run_plan
from tkhist.histcore import build_tkhist1d, build_tkhist2d
from tkhist.joinengine import (CompositeHist, KeyIndex, apply_filters,
                               bridge_weights, chain_translate, jtkh_join,
                               join_star_group, selinger_bin_estimate)
from tkhist.predicate import key_bin_fractions, matches
from tkhist.queryfront import bind, decompose, parse_sql
from tkhist.state import BuildConfig, build_state
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import (composites_of, dominant_maps, key_array, lifted,
                      make_table, maps_of, two_table_schema)


def make_domain(lo=0, hi=100, bins=4, id="t.k"):
    d = KeyDomain(id=id, columns=frozenset({id}))
    d.set_boundaries(lo, hi, bins)
    return d


def comp_of(domain, bins):
    """A composite from per-bin (dominant, background, ndv) triples, over a
    key index of its own keys."""
    return composites_of(domain, bins)[0]


def index_of(hist):
    """A key index of one histogram's containers, listed as "h"."""
    return KeyIndex(hist.domain, {"h": hist.topk_keys})


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


class TestKeyIndex:
    def test_sorted_union_bins_and_positions(self):
        d = make_domain(0, 100, 2)
        index = KeyIndex(d, {"a": np.array([3, 60]), "b": np.array([3, 7])})
        assert index.keys.tolist() == [3, 7, 60]
        assert index.bins.tolist() == [0, 0, 1]
        assert {n: p.tolist() for n, p in index.positions.items()} == {
            "a": [0, 2], "b": [0, 1]}

    def test_mixed_kinds_match_by_value(self):
        # 3 and 3.0 are one key; 2**53 + 1 has no float64 equal, and numpy
        # would read 2.0**53 == 2**53 + 1
        d = make_domain(0, 2 ** 54, 1)
        index = KeyIndex(d, {
            "r": np.array([3, 2 ** 53 + 1], dtype=np.int64),
            "s": np.array([2.5, 3.0, 2.0 ** 53], dtype=np.float64)})
        assert index.keys.tolist() == [2.5, 3, 2.0 ** 53, 2 ** 53 + 1]
        assert [type(k) for k in index.keys.tolist()] == [float, int, float,
                                                          int]
        assert index.positions["r"].tolist() == [1, 3]
        assert index.positions["s"].tolist() == [0, 1, 2]

    def test_no_keys(self):
        index = KeyIndex(make_domain(bins=3), {})
        assert len(index.keys) == 0
        assert len(index.filled) == len(index.starts) == 0
        comp = comp_of(make_domain(bins=3), [EMPTY_BIN] * 3)
        assert comp.bin_totals().tolist() == [0.0] * 3

    def test_segments_skip_empty_bins(self):
        index = KeyIndex(make_domain(0, 100, 5),
                         {"a": np.array([3, 4, 70, 99])})
        assert index.bins.tolist() == [0, 0, 3, 4]
        assert index.filled.tolist() == [0, 3, 4]
        assert index.starts.tolist() == [0, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_bins=st.integers(1, 12),
           kind=st.sampled_from(["integer", "real", "mixed"]))
    def test_bins_are_contiguous_segments(self, data, n_bins, kind):
        """`bins` never decreases and each non-empty bin's segment holds
        exactly its keys, on INTEGER, REAL and mixed-kind (object)
        indexes, with empty bins, one-key bins, or no key at all; a bin's
        total is its background plus its keys' masses, under the rule of
        `assert_bin_totals`."""
        d = make_domain(0, 60, n_bins)
        ints = st.lists(st.integers(0, 60), max_size=60)
        reals = st.lists(st.floats(0, 60), max_size=60)
        draws = {"integer": [ints, ints], "real": [reals],
                 "mixed": [ints, reals]}[kind]
        key_arrays = {i: key_array(sorted(set(data.draw(keys))))
                      for i, keys in enumerate(draws)
                      if data.draw(st.booleans())}
        index = KeyIndex(d, key_arrays)
        assert (np.diff(index.bins) >= 0).all()
        union = {k for a in key_arrays.values() for k in a.tolist()}
        width = (d.hi - d.lo) / d.bin_count
        bin_of = {k: min(math.floor((float(k) - d.lo) / width), n_bins - 1)
                  for k in union}
        assert index.filled.tolist() == sorted(set(bin_of.values()))
        ends = index.starts.tolist()[1:] + [len(index.keys)]
        for b, start, end in zip(index.filled.tolist(),
                                 index.starts.tolist(), ends):
            segment = index.keys[start:end].tolist()
            assert segment == sorted(k for k in union if bin_of[k] == b)
        n = len(index.keys)
        comp = CompositeHist(
            index=index,
            factor=np.array(data.draw(st.lists(
                masses, min_size=n, max_size=n)), dtype=np.float64),
            dominant=np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool),
            background=np.array(data.draw(st.lists(
                st.one_of(st.just(0.0), masses), min_size=n_bins,
                max_size=n_bins)), dtype=np.float64),
            ndv=np.zeros(n_bins))
        expect = comp.background + np.bincount(index.bins, weights=comp.mass,
                                               minlength=n_bins)
        assert_bin_totals(index, comp.bin_totals().tolist(), expect.tolist())


class TestSelinger:
    def test_formula(self):
        assert selinger_bin_estimate(10, 2, 6, 3) == pytest.approx(20.0)

    def test_empty_side_is_zero(self):
        assert selinger_bin_estimate(10, 0, 6, 3) == 0.0
        assert selinger_bin_estimate(0, 0, 0, 0) == 0.0

    def test_ndv_propagates_as_min(self):
        a, b = composites_of(make_domain(bins=1), [({}, 1.0, 5.0)],
                             [({}, 1.0, 3.0)])
        assert jtkh_join(a, b).ndv[0] == 3


class TestBinJoin:
    def test_hand_computed_bin(self):
        # a: container {1:3, 2:1}, background 4 rows over 2 keys (BAC 2)
        # b: container {1:2},      background 6 rows over 3 keys (BAC 2)
        a, b = composites_of(make_domain(bins=1),
                             [({1: 3.0, 2: 1.0}, 4.0, 2.0)],
                             [({1: 2.0}, 6.0, 3.0)])
        out = jtkh_join(a, b)
        assert maps_of(out) == [{1: 6.0, 2: 2.0}]  # 3*2 exact, 1*BAC_b cross
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
        assert maps_of(out[plan.root.domain_id]) == [{2: 5.0}]

    def test_zero_product_entries_dropped(self):
        a, b = composites_of(make_domain(bins=1), [({1: 3.0}, 0.0, 0.0)],
                             [EMPTY_BIN])  # empty other side
        out = jtkh_join(a, b)
        assert maps_of(out) == [{}]
        assert out.total() == 0.0

    def test_domain_mismatch_rejected(self):
        a = comp_of(make_domain(id="t.k"), [EMPTY_BIN])
        b = comp_of(make_domain(id="u.j"), [EMPTY_BIN])
        with pytest.raises(DomainMismatchError):
            jtkh_join(a, b)
        c = comp_of(make_domain(id="t.k"), [EMPTY_BIN])
        with pytest.raises(DomainMismatchError):
            jtkh_join(a, c)  # one domain, but another key index

    def test_empty_star_group_rejected(self):
        with pytest.raises(TKHistError, match="^empty star group$"):
            join_star_group([])

    def test_k0_join_equals_selinger_per_bin(self, rng):
        d = make_domain(0, 100, 8)
        va = rng.integers(0, 101, size=500)
        vb = rng.integers(0, 101, size=300)
        ha = build_tkhist1d(va, d, k=0)
        hb = build_tkhist1d(vb, d, k=0)
        out = jtkh_join(*lifted(ha, hb))
        assert len(out.mass) == 0
        for i in range(d.bin_count):
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
        assert jtkh_join(*lifted(ha, hb)).total() == pytest.approx(truth)

    @settings(max_examples=40, deadline=None)
    @given(va=st.lists(st.integers(0, 60), max_size=120),
           vb=st.lists(st.integers(0, 60), max_size=120),
           k=st.integers(0, 5))
    def test_join_total_is_symmetric(self, va, vb, k):
        d = make_domain(0, 60, 3)
        ha, hb = lifted(build_tkhist1d(np.asarray(va, dtype=np.int64), d, k=k),
                        build_tkhist1d(np.asarray(vb, dtype=np.int64), d, k=k))
        ab = jtkh_join(ha, hb).total()
        ba = jtkh_join(hb, ha).total()
        assert ab == pytest.approx(ba)


class TestStarFold:
    def test_three_way_full_capture_exact(self, rng):
        d = make_domain(0, 30, 3)
        cols = [rng.integers(0, 31, size=200) for _ in range(3)]
        hists = lifted(*(build_tkhist1d(c, d, k=1000) for c in cols))
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
        assert maps_of(out) == [{2: 3.0}]
        assert out.background[0] == 2.0


class TestFiltersAndExclusion:
    def test_background_scaled_dominant_kept(self):
        comp = comp_of(make_domain(bins=2),
                       [({1: 4.0}, 10.0, 5.0), ({}, 8.0, 2.0)])
        out = apply_filters(comp, np.array([0.5, 0.25]))
        assert maps_of(out) == [{1: 4.0}, {}]
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
        index = index_of(target)
        out = chain_translate(comp, bridge_weights(bridge, target), index)
        # src bin0 mass 30 splits 2/3 : 1/3; src bin1 mass 12 all to dst bin1
        assert out.domain.id == "b.k2" and out.index is index
        assert out.background[0] == pytest.approx(20.0)
        assert out.background[1] == pytest.approx(10.0 + 12.0)
        assert out.mass.tolist() == [0.0] * len(index.keys)
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
        out = chain_translate(comp, bridge_weights(bridge, target),
                              index_of(target))
        assert out.ndv[0] == 2.0  # background + container distincts

    def test_domain_checks(self):
        src = make_domain(0, 10, 1, id="a.k1")
        dst = make_domain(0, 10, 1, id="b.k2")
        other = make_domain(0, 10, 1, id="c.k3")
        bridge = build_tkhist2d(np.array([1]), np.array([2]), src, dst)
        target = build_tkhist1d(np.array([2]), other, k=0)
        with pytest.raises(DomainMismatchError):
            # target on wrong domain
            bridge_weights(bridge, target)
        right = build_tkhist1d(np.array([2]), dst, k=0)
        weights = bridge_weights(bridge, right)
        with pytest.raises(DomainMismatchError):
            # composite on wrong domain
            chain_translate(comp_of(other, [EMPTY_BIN]), weights,
                            index_of(right))
        with pytest.raises(DomainMismatchError):
            # key index on wrong domain
            chain_translate(comp_of(src, [EMPTY_BIN]), weights,
                            index_of(target))


class TestJoinMass:
    """An estimate's root is a mass vector over its domain's key index."""

    @pytest.mark.parametrize("sql", [
        "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        "AND t3.k1 = t1.k1",
    ])
    def test_estimate_builds_no_root_map(self, monkeypatch, sql):
        """The root holds no dict map, and a lift without exclusion reads
        the histogram's flat arrays: the estimate builds no `Bin1D` view."""
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
        assert isinstance(root.mass, np.ndarray)
        assert root.mass.dtype == np.float64
        assert root.index is estimator.key_index(state, root.domain.id)
        assert len(root.mass) == len(root.index.keys)
        assert value == root.total() > 0
        assert not any("bins" in h.__dict__ for h in state.hists1d.values())


# ---------------------------------------------------------------------------
# Reference: the per-bin algebra written bin by bin in Python floats, each
# bin's dominant keys a dict, key -> factor, and each bin's BAC the factor
# of a key dominant nowhere in it.  A key dominant in either operand of a
# join stays dominant, and a join's BAC is the product of its operands'.
# The vector implementation must give every key the same factor, every bin
# the same dominant keys, and every total to 1e-12.

@dataclass
class RefBin:
    dominant: dict
    background_est: float
    ndv_est: float
    bac_est: float


def ref_bin(dominant, background, ndv) -> RefBin:
    """A bin whose BAC is its background over its NDV, 0 where NDV is 0."""
    return RefBin(dominant, background, ndv,
                  background / ndv if ndv > 0 else 0.0)


def ref_bins(comp):
    """The reference bins of a composite that is not a join."""
    return [ref_bin(d, bg, ndv) for d, bg, ndv in zip(
        dominant_maps(comp), comp.background.tolist(), comp.ndv.tolist())]


def ref_lift(hist):
    return [ref_bin(dict(b.topk), float(b.nv), float(ndv))
            for b, ndv in zip(hist.bins, hist.ndv.tolist())]


def ref_join(a_bins, b_bins):
    out = []
    for ba, bb in zip(a_bins, b_bins):
        dom = {key: ba.dominant.get(key, ba.bac_est)
               * bb.dominant.get(key, bb.bac_est)
               for key in sorted({**ba.dominant, **bb.dominant})}
        ndv_a, ndv_b = ba.ndv_est, bb.ndv_est
        selinger = (0.0 if ndv_a <= 0 or ndv_b <= 0 else
                    ba.background_est * bb.background_est / max(ndv_a, ndv_b))
        out.append(RefBin(dom, selinger, min(ndv_a, ndv_b),
                          ba.bac_est * bb.bac_est))
    return out


def ref_filters(bins, fractions):
    return [ref_bin(dict(b.dominant), b.background_est * float(f), b.ndv_est)
            for f, b in zip(fractions, bins)]


def ref_chain(totals, bridge, target):
    """The reference bins of a chain translation of a composite whose bin
    totals are `totals`."""
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    out = []
    for j, mass in enumerate(totals @ weights):
        ndv = (float(target.ndv[j] + len(target.bins[j].topk)) if mass > 0
               else 0.0)
        out.append(ref_bin({}, float(mass), ndv))
    return out


def ref_bin_totals(bins):
    """Each bin's background plus its dominant masses, added in key order."""
    return [b.background_est + sum(b.dominant.values()) for b in bins]


def ref_total(bins):
    return sum(ref_bin_totals(bins))


def assert_bin_totals(index, totals, expect):
    """Each bin's total is the sequential `expect`, bit for bit where the
    bin holds at most two keys of `index`, whose sum has one grouping, and
    to 1e-12 where `bin_totals`' segment sum may group its adds otherwise."""
    sizes = np.bincount(index.bins, minlength=len(expect)).tolist()
    for size, got, want in zip(sizes, totals, expect):
        if size <= 2:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def assert_matches(comp, bins):
    """Each key's factor times its bin's scale is the reference's: its
    dominant value, or else its bin's BAC, exactly."""
    # dict equality: the same keys per bin, each with an equal value
    assert dominant_maps(comp) == [b.dominant for b in bins]
    assert maps_of(comp) == [{k: v for k, v in b.dominant.items() if v}
                             for b in bins]
    rest = ~comp.dominant
    assert comp.key_factors()[rest].tolist() == [
        bins[i].bac_est for i in comp.index.bins[rest].tolist()]
    assert comp.background.tolist() == [b.background_est for b in bins]
    assert comp.ndv.tolist() == [b.ndv_est for b in bins]
    assert comp.total() == pytest.approx(ref_total(bins), rel=1e-12, abs=0)


# positive dominant masses: zero means "not dominant" in a mass vector
masses = st.one_of(st.floats(0, 1e4, exclude_min=True),
                   st.integers(1, 1000).map(float))
ndvs = st.one_of(st.just(0.0), st.integers(1, 50).map(float))
backgrounds = st.one_of(
    # an empty background (no mass, no NDV, or neither) half the time
    st.tuples(st.one_of(st.just(0.0), masses), ndvs),
    st.tuples(st.just(0.0), ndvs),
    st.tuples(st.one_of(st.just(0.0), masses), st.just(0.0)),
    st.just((0.0, 0.0)))
# few keys, so that keys overlap; float estimates or a lifted histogram's
# int counts
dominants = st.one_of(st.dictionaries(st.integers(0, 10), masses, max_size=6),
                      st.dictionaries(st.integers(0, 10), st.integers(1, 1000),
                                      max_size=6))
# a translated bin: mass and the bridge's NDV, or neither
translated_bins = st.one_of(st.just((0.0, 0.0)),
                            st.tuples(masses, st.integers(1, 50).map(float)))
# per-bin filter fractions, zero and one among them
fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1))
# a member as drawn; filtered by per-bin fractions; or, as a chain
# translation gives it, with no dominant key
KINDS = ("drawn", "filtered", "translated")


@st.composite
def members(draw, n_bins, count, id="t.k"):
    """`count` composites over one key index of a domain of `n_bins` bins
    over 0..10, each key in its own bin, each with its reference bins."""
    d = make_domain(0, 10, n_bins, id=id)
    specs, kinds = [], []
    for _ in range(count):
        kinds.append(draw(st.sampled_from(KINDS)))
        dominant = {} if kinds[-1] == "translated" else draw(dominants)
        spec = [({}, *draw(backgrounds)) for _ in range(n_bins)]
        bins = d.bins_of(np.array(list(dominant), dtype=np.int64)).tolist()
        for (key, m), i in zip(dominant.items(), bins):
            spec[i][0][key] = m
        specs.append(spec)
    out = []
    for comp, kind in zip(composites_of(d, *specs), kinds):
        ref = ref_bins(comp)
        if kind == "filtered":
            fractions = np.array(draw(st.lists(fraction, min_size=n_bins,
                                               max_size=n_bins)))
            comp, ref = apply_filters(comp, fractions), ref_filters(ref,
                                                                    fractions)
        out.append((comp, ref))
    return out


@st.composite
def per_bin_child(draw, index):
    """A composite that is per bin only over `index`, as chain translation
    gives it: each bin's BAC as its scale; with its reference bins.  A bin
    holds mass and a positive NDV, or neither, as a translated bin does."""
    n = index.domain.bin_count
    spec = [draw(translated_bins) for _ in range(n)]
    background, ndv = (np.array(col, dtype=np.float64) for col in zip(*spec))
    comp = CompositeHist(
        index=index, factor=index.ones, dominant=index.no_keys,
        background=background, ndv=ndv,
        scale=np.divide(background, ndv, out=np.zeros(n), where=ndv > 0))
    return comp, [ref_bin({}, bg, nv) for bg, nv in spec]


@st.composite
def star_folds(draw):
    """A star group's operands in fold order: 0-3 members of its own, then
    0-2 translated children, per bin only, and at least one operand."""
    n_bins = draw(st.integers(1, 4))
    group = draw(members(n_bins, draw(st.integers(1, 3))))
    children = draw(st.integers(0, 2))
    own = group[:draw(st.integers(0 if children else 1, len(group)))]
    index = group[0][0].index
    return own + [draw(per_bin_child(index)) for _ in range(children)]


@st.composite
def star_groups(draw):
    return draw(members(draw(st.integers(1, 4)), draw(st.integers(1, 4))))


class TestAgainstPerBinReference:
    @settings(max_examples=200, deadline=None)
    @given(group=star_groups())
    def test_join_and_star_fold(self, group):
        comps, refs = zip(*group)
        if len(group) >= 2:
            assert_matches(jtkh_join(comps[0], comps[1]),
                           ref_join(refs[0], refs[1]))
        expect = refs[0]
        for ref in refs[1:]:
            expect = ref_join(expect, ref)
        assert_matches(join_star_group(list(comps)), expect)

    @settings(max_examples=200, deadline=None)
    @given(group=star_groups())
    def test_joined_bac_is_the_selinger_bac(self, group):
        """The factor a join gives a key dominant on neither side, the
        product of the operands' BACs, is the joined bin's background over
        its NDV: to 1e-12, or within 1e-300 where a BAC is subnormal."""
        out = join_star_group([comp for comp, _ in group])
        with np.errstate(invalid="ignore", divide="ignore"):
            bac = np.where(out.ndv > 0, out.background / out.ndv, 0.0)
        rest = ~out.dominant
        assert out.key_factors()[rest].tolist() == pytest.approx(
            bac[out.index.bins[rest]].tolist(), rel=1e-12, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_bins=st.integers(1, 4),
           per_bin=st.sampled_from([(), (0,), (1,), (0, 1)]),
           cached=st.booleans())
    def test_join_leaves_inputs_unchanged(self, data, n_bins, per_bin,
                                          cached):
        """A join writes neither operand, nor the index's shared arrays,
        which stay read-only, nor a cached lift, whose arrays stay
        read-only.  Its arrays are new, but beside one operand that is per
        bin only it keeps the other side's key arrays and the per-bin
        operand's scale."""
        operands = [comp for comp, _ in data.draw(members(n_bins, 2))]
        for i in per_bin:
            operands[i] = data.draw(per_bin_child(operands[i].index))[0]
        a, b = operands
        index = a.index
        arrays = [(c.factor, c.dominant, c.background, c.ndv, c.scale)
                  for c in (a, b)]
        frozen = [x for c, xs in zip((a, b), arrays)
                  if cached and not c.per_bin for x in xs[:4]]
        for x in frozen:  # as `identity_lift` leaves a lift it caches
            x.flags.writeable = False
        before = [[None if x is None else x.copy() for x in xs]
                  for xs in arrays]
        out = jtkh_join(a, b)
        for xs, olds in zip(arrays, before):
            for x, old in zip(xs, olds):
                assert (x is None) == (old is None)
                assert x is None or x.tobytes() == old.tobytes()
        assert not any(x.flags.writeable
                       for x in (index.ones, index.no_keys, *frozen))
        assert index.ones.tolist() == [1.0] * len(index.keys)
        assert not index.no_keys.any()
        keyed = [c for c in (a, b) if not c.per_bin]
        reused = ()
        if len(keyed) == 1:  # the keyed operand is unscaled: kept whole
            by_bin, = (c for c in (a, b) if c.per_bin)
            reused = keyed[0].factor, keyed[0].dominant, by_bin.scale
            assert all(x is y for x, y in zip(
                (out.factor, out.dominant, out.scale), reused))
        produced = [x for x in (out.factor, out.dominant, out.background,
                                out.ndv, out.scale)
                    if x is not None and not any(x is y for y in reused)]
        assert not any(np.shares_memory(x, y) for x in produced
                       for xs in arrays for y in xs if y is not None)

    @settings(max_examples=100, deadline=None)
    @given(group=star_groups(), data=st.data())
    def test_filters(self, group, data):
        comp, ref = group[0]
        n = len(comp.background)
        fractions = np.array(data.draw(st.lists(fraction, min_size=n,
                                                max_size=n)))
        assert_matches(apply_filters(comp, fractions),
                       ref_filters(ref, fractions))

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
        (comp, ref), = data.draw(members(n_src, 1, id="a.k1"))
        index = index_of(target)
        out = chain_translate(comp, bridge_weights(bridge, target), index)
        assert out.per_bin and out.index is index
        assert_matches(out, ref_chain(comp.bin_totals(), bridge, target))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_bins=st.integers(1, 20))
    def test_total_sums_bins_in_order(self, data, n_bins):
        """`total()` adds the bin totals from bin 0 in order, and each bin's
        total is its reference's under the rule of `assert_bin_totals`."""
        (comp, ref), = data.draw(members(n_bins, 1))
        totals = comp.bin_totals().tolist()
        assert comp.total() == sum(totals)
        assert_bin_totals(comp.index, totals, ref_bin_totals(ref))


def materialised(comp):
    """`comp` in per-key form: each key's factor times its bin's scale, in
    arrays of its own, so that no join takes it for a per-bin operand."""
    return CompositeHist(index=comp.index, factor=comp.key_factors().copy(),
                         dominant=comp.dominant.copy(),
                         background=comp.background, ndv=comp.ndv)


def scaled_sums(comp):
    """Each bin's background plus its scale times the key-order sum of its
    dominant keys' unscaled factors, in Python floats."""
    scale = (np.ones(len(comp.background)) if comp.scale is None
             else comp.scale).tolist()
    sums = [[] for _ in comp.background]
    for b, f, dom in zip(comp.index.bins.tolist(), comp.factor.tolist(),
                         comp.dominant.tolist()):
        sums[b].append(f * dom)
    return [bg + sc * sum(keys) if keys else bg for bg, sc, keys
            in zip(comp.background.tolist(), scale, sums)]


def assert_per_key_equal(out, expect):
    """Background, NDV and each key's mass bit for bit; bin totals by the
    rule of `assert_bin_totals` against the scale applied after a key-order
    sum, and to 1e-12 against the per-key composite's."""
    for got, want in [(out.background, expect.background),
                      (out.ndv, expect.ndv), (out.mass, expect.mass)]:
        assert got.tobytes() == want.tobytes()
    totals = out.bin_totals().tolist()
    assert_bin_totals(out.index, totals, scaled_sums(out))
    assert totals == pytest.approx(expect.bin_totals().tolist(), rel=1e-12,
                                   abs=0)


class TestPerBinOperands:
    """Star folds over translated children, which are per bin only, against
    the same fold over their per-key (materialised) form, the algebra that
    spreads each BAC onto every key."""

    @settings(max_examples=200, deadline=None)
    @given(fold=star_folds())
    def test_fold_matches_materialised_reference(self, fold):
        comps, refs = zip(*fold)
        out = join_star_group(list(comps))
        assert_per_key_equal(
            out, join_star_group([materialised(c) for c in comps]))
        expect = refs[0]
        for ref in refs[1:]:
            expect = ref_join(expect, ref)
        assert_matches(out, expect)

    SQL = ("SELECT COUNT(*) FROM b1, b2, c1, c2 WHERE b1.k = b2.k "
           "AND b1.p = c1.p AND b2.q = c2.q")

    @pytest.mark.parametrize("top_k", [0, 2, 50])
    def test_group_of_bridges_only(self, monkeypatch, top_k):
        """The root group's every member bridges to a child, so its fold
        sees only per-bin operands: it gives what the per-key fold gives."""
        cols = {"b1": ["k", "p"], "b2": ["k", "q"], "c1": ["p"],
                "c2": ["q"]}
        schema = schema_from_document({
            "tables": [{"name": t, "file": f"{t}.csv", "columns": [
                {"name": c, "kind": "integer"} for c in cs]}
                for t, cs in cols.items()],
            "foreign_keys": [{"from": "b2.k", "to": "b1.k"},
                             {"from": "c1.p", "to": "b1.p"},
                             {"from": "c2.q", "to": "b2.q"}]})
        rng = np.random.default_rng(top_k)
        tables = {t: make_table(t, {c: rng.zipf(1.5, 300).clip(1, 40)
                                    .tolist() for c in cs})
                  for t, cs in cols.items()}
        state = build_state(schema, tables,
                            BuildConfig(bin_count=4, top_k=top_k))
        query = bind(parse_sql(self.SQL), state.schema)
        plan = decompose(query, state.column_domain)
        assert plan.root.members == [] and len(plan.root.children) == 2
        root = run_plan(state, query, plan)[plan.root.domain_id]
        assert estimate(self.SQL, state).estimate == root.total()
        monkeypatch.setattr("tkhist.estimator.chain_translate",
                            lambda *args: materialised(chain_translate(*args)))
        expect = run_plan(state, query, plan)[plan.root.domain_id]
        assert not expect.per_bin
        assert_per_key_equal(root, expect)


def mixed_kind_schema():
    """r.k INTEGER joined to s.k REAL: one key domain over both kinds."""
    def table_doc(name, key_kind):
        return {"name": name, "file": f"{name}.csv", "columns": [
            {"name": "k", "kind": key_kind},
            {"name": "y", "kind": "integer"}]}

    return schema_from_document({
        "tables": [table_doc("r", "integer"), table_doc("s", "real")],
        "foreign_keys": [{"from": "s.k", "to": "r.k"}],
        "templates": [["r.k=s.k"]]})


@settings(max_examples=100, deadline=None)
@given(r_keys=st.lists(st.sampled_from(
           [0, 1, 3, 5, 8, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1]),
           min_size=1, max_size=30),
       s_keys=st.lists(st.sampled_from(
           [0.0, 0.5, 1.0, 3.0, 4.5, 8.0, 2.0 ** 53 - 2, 2.0 ** 53,
            2.0 ** 53 + 2]), min_size=1, max_size=30),
       bins=st.integers(1, 3), k=st.integers(0, 4),
       where=st.sampled_from(["", " AND r.k <= 9007199254740992",
                              " AND s.k >= 3", " AND r.k = 9007199254740993"]))
def test_mixed_kind_domain_matches_dict_reference(r_keys, s_keys, bins, k,
                                                  where):
    """INTEGER and REAL keys of one domain, at 2**53 - 1, 2**53 and
    2**53 + 1, join by Python value as the per-bin dicts do: the vector
    join gives every key the reference's value and the estimate its total.
    """
    tables = {"r": make_table("r", {"k": r_keys, "y": [0] * len(r_keys)}),
              "s": make_table("s", {"k": s_keys, "y": [0] * len(s_keys)})}
    state = build_state(mixed_kind_schema(), tables,
                        BuildConfig(bin_count=bins, top_k=k))
    sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k" + where
    query = bind(parse_sql(sql), state.schema)
    plan = decompose(query, state.column_domain)
    expect = None
    for alias, col in plan.root.members:
        hist = state.hists1d[(query.aliases[alias], col)]
        member = ref_lift(hist)
        for pred in query.predicates:
            if pred.column == f"{alias}.{col}":
                member = [ref_bin({k: v for k, v in b.dominant.items()
                                   if matches(pred, k)}, b.background_est,
                                  b.ndv_est) for b in member]
                member = ref_filters(member, key_bin_fractions(
                    hist.domain, pred, integer=alias == "r"))  # r.k INTEGER
        expect = member if expect is None else ref_join(expect, member)
    root = run_plan(state, query, plan)[plan.root.domain_id]
    assert dominant_maps(root) == [b.dominant for b in expect]
    assert estimate(sql, state).estimate == pytest.approx(
        ref_total(expect), rel=1e-12, abs=0)
