from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import DomainBoundsError, TKHistError
from tkhist.histcore import (Bin1D, TKHist1D, _scalar, build_frequency_hist,
                             build_tkhist1d, build_tkhist2d,
                             categorical_binning, numeric_binning,
                             domain_binning)


def make_domain(lo=0, hi=100, bins=10):
    d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
    d.set_boundaries(lo, hi, bins)
    return d


keys_strategy = st.lists(st.integers(min_value=0, max_value=100),
                         min_size=0, max_size=300)


def reference_build_tkhist1d(values, domain, k, null_mask=None):
    """Per-bin Counter build: the reference for the grouped pass."""
    if null_mask is not None:
        values = values[~null_mask]
    idx = domain.bins_of(values)
    bins = [Bin1D() for _ in range(domain.bin_count)]
    total = 0
    for i in range(domain.bin_count):
        in_bin = values[idx == i]
        if len(in_bin) == 0:
            continue
        counts = Counter(_scalar(v) for v in in_bin)
        total += len(in_bin)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        b = bins[i]
        for key, cnt in ranked[:k]:
            b.topk[key] = cnt
        for key, cnt in ranked[k:]:
            b.nv += cnt
            b.background.add(key)
    return TKHist1D(domain=domain, bins=bins, total_rows=total, k=k)


@st.composite
def key_columns(draw):
    """Int or real keys over few distinct values (frequency ties), with an
    optional null mask; real keys are multiples of 0.5 so none is -0.0."""
    ints = draw(st.lists(st.integers(min_value=0, max_value=60),
                         min_size=0, max_size=200))
    if draw(st.booleans()):
        values = np.asarray(ints, dtype=np.int64)
    else:
        values = np.asarray(ints, dtype=np.float64) * 0.5
    nulls = None
    if draw(st.booleans()):
        nulls = np.asarray(draw(st.lists(st.booleans(), min_size=len(ints),
                                         max_size=len(ints))), dtype=bool)
    return values, nulls


class TestBuild1D:
    def test_small_example_by_hand(self):
        # bin [0,50): key 1 x4, 2 x2, 3 x1; k=1 keeps only key 1
        d = make_domain(0, 100, 2)
        vals = np.array([1, 1, 1, 1, 2, 2, 3, 60])
        h = build_tkhist1d(vals, d, k=1)
        nv, ndv, bac, topk = h.bin_stats(0)
        assert dict(topk) == {1: 4}
        assert (nv, ndv) == (3, 2)
        assert bac == pytest.approx(1.5)
        assert h.bins[1].topk == {60: 1}

    def test_tie_breaks_toward_smaller_key(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([5, 5, 3, 3, 7]), d, k=1)
        assert dict(h.bins[0].topk) == {3: 2}

    def test_k_zero_everything_background(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 1, 2]), d, k=0)
        assert h.bins[0].topk == {}
        assert (h.bins[0].nv, h.bins[0].ndv) == (3, 2)

    def test_nulls_skipped(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 2, 3]), d, k=5,
                           null_mask=np.array([False, True, False]))
        assert h.total_rows == 2

    @settings(max_examples=60, deadline=None)
    @given(values=keys_strategy, k=st.integers(min_value=0, max_value=8))
    def test_bin_mass_identity(self, values, k):
        # NV + sum(container) must equal the exact per-bin row count
        d = make_domain(0, 100, 7)
        vals = np.asarray(values, dtype=np.int64)
        h = build_tkhist1d(vals, d, k=k)
        exact = Counter(d.bin_of(v) for v in values)
        for i, b in enumerate(h.bins):
            assert b.nv + sum(b.topk.values()) == exact.get(i, 0)
        assert h.total_rows == len(values)

    @settings(max_examples=40, deadline=None)
    @given(values=keys_strategy, k=st.integers(min_value=0, max_value=8))
    def test_container_holds_most_frequent(self, values, k):
        d = make_domain(0, 100, 4)
        h = build_tkhist1d(np.asarray(values, dtype=np.int64), d, k=k)
        for b in h.bins:
            if not b.topk or not b.background:
                continue
            min_in = min(b.topk.values())
            per_bg = Counter(v for v in values
                             if v in b.background)
            assert min_in >= max(per_bg.values())


    @settings(max_examples=400, deadline=None)
    @given(column=key_columns(), k=st.integers(min_value=0, max_value=10),
           bins=st.integers(min_value=1, max_value=12))
    def test_matches_reference_build(self, column, k, bins):
        values, nulls = column
        d = make_domain(0, 60, bins)
        h = build_tkhist1d(values, d, k=k, null_mask=nulls)
        ref = reference_build_tkhist1d(values, d, k=k, null_mask=nulls)
        assert h.total_rows == ref.total_rows
        kept = values if nulls is None else values[~nulls]
        per_bin = Counter(d.bins_of(kept).tolist())
        key_type = int if values.dtype == np.int64 else float
        for i, (b, rb) in enumerate(zip(h.bins, ref.bins)):
            assert list(b.topk.items()) == list(rb.topk.items())
            assert all(type(key) is key_type and type(c) is int
                       for key, c in b.topk.items())
            assert all(type(key) is key_type for key in b.background)
            assert type(b.nv) is int
            assert (b.nv, b.background) == (rb.nv, rb.background)
            assert b.nv + sum(b.topk.values()) == per_bin.get(i, 0)


class TestInsert:
    def test_container_hit_increments_exactly(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 1, 2]), d, k=1)
        h.insert(1)
        assert h.bins[0].topk[1] == 3
        assert h.total_rows == 4

    def test_background_insert_updates_nv_ndv(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 1, 2]), d, k=1)
        h.insert(3)
        h.insert(3)
        b = h.bins[0]
        assert (b.nv, b.ndv) == (3, 2)  # membership frozen, 3 stays background

    def test_out_of_domain_insert_rejected(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1]), d, k=1)
        with pytest.raises(DomainBoundsError):
            h.insert(11)

    @settings(max_examples=40, deadline=None)
    @given(initial=keys_strategy, extra=keys_strategy)
    def test_insert_preserves_mass_identity(self, initial, extra):
        d = make_domain(0, 100, 5)
        h = build_tkhist1d(np.asarray(initial, dtype=np.int64), d, k=3)
        for v in extra:
            h.insert(v)
        exact = Counter(d.bin_of(v) for v in initial + extra)
        for i, b in enumerate(h.bins):
            assert b.total() == exact.get(i, 0)


class TestHist2D:
    def test_grid_counts_match_scan(self, rng):
        d = make_domain(0, 50, 5)
        keys = rng.integers(0, 51, size=400)
        attrs = rng.integers(0, 20, size=400)
        binning = numeric_binning(attrs, 4, integer=True)
        h = build_tkhist2d(keys, attrs, d, binning)
        assert h.grid.sum() == 400
        for i in range(5):
            for j in range(4):
                expect = sum(1 for kk, aa in zip(keys, attrs)
                             if d.bin_of(kk) == i and binning.bin_of(aa) == j)
                assert h.grid[i, j] == expect

    def test_categorical_axis(self):
        d = make_domain(0, 10, 2)
        keys = np.array([1, 2, 8])
        attrs = np.array(["a", "b", "a"], dtype=object)
        h = build_tkhist2d(keys, attrs, d, categorical_binning(attrs))
        assert h.grid.tolist() == [[1, 1], [1, 0]]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                                   st.sampled_from(["a", "b", "c", "d"])),
                         min_size=1, max_size=80),
           as_int=st.booleans())
    def test_categorical_grid_matches_row_scan(self, rows, as_int):
        d = make_domain(0, 10, 3)
        keys = np.array([kk for kk, _ in rows])
        attrs = [a for _, a in rows]
        attrs = (np.array([ord(a) for a in attrs]) if as_int
                 else np.asarray(attrs, dtype=object))
        binning = categorical_binning(attrs)
        h = build_tkhist2d(keys, attrs, d, binning)
        expect = np.zeros_like(h.grid)
        for kk, aa in zip(keys, attrs):
            expect[d.bin_of(kk), binning.bin_of(aa)] += 1
        assert h.grid.tolist() == expect.tolist()

    def test_categorical_value_missing_from_binning(self):
        d = make_domain(0, 10, 2)
        binning = categorical_binning(np.array(["a"], dtype=object))
        with pytest.raises(TKHistError, match="'b'"):
            build_tkhist2d(np.array([1, 2]),
                           np.array(["a", "b"], dtype=object), d, binning)

    def test_insert_unseen_categorical_grows_grid(self):
        d = make_domain(0, 10, 2)
        attrs = np.array(["a"], dtype=object)
        h = build_tkhist2d(np.array([1]), attrs, d, categorical_binning(attrs))
        h.insert(7, "z")
        assert h.grid.shape == (2, 2)
        assert h.grid[1, 1] == 1

    def test_null_rows_excluded(self):
        d = make_domain(0, 10, 2)
        keys = np.array([1, 2, 3])
        attrs = np.array([5, 6, 7])
        h = build_tkhist2d(keys, attrs, d, numeric_binning(attrs, 2, True),
                           key_nulls=np.array([False, True, False]),
                           attr_nulls=np.array([False, False, True]))
        assert h.grid.sum() == 1

    def test_domain_binning_is_bin_aligned(self):
        d = make_domain(0, 100, 10)
        b = domain_binning(d, integer=True)
        assert b.n_bins == 10
        assert b.attr_domain_id == "t.k"
        assert b.bin_of(15) == d.bin_of(15)


def test_frequency_hist_exact():
    vals = np.array(["x", "y", "x", "x"], dtype=object)
    assert build_frequency_hist(vals) == {"x": 3, "y": 1}
