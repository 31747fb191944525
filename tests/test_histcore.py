import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain
from tkhist.errors import DomainBoundsError, TKHistError
from tkhist.histcore import (TKHist1D, add_value_counts, axis_length,
                             build_tkhist1d, build_tkhist2d)

from conftest import (_scalar, attr_bin, categorical_axis, domain_bin,
                      make_table, numeric_axis)


def make_domain(lo=0, hi=100, bins=10):
    d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
    d.set_boundaries(lo, hi, bins)
    return d


keys_strategy = st.lists(st.integers(min_value=0, max_value=100),
                         min_size=0, max_size=300)


def reference_build_tkhist1d(values, domain, k, null_mask=None):
    """Per-bin Counter build: the reference for the grouped pass.  Returns
    the histogram and the container and background offsets it counted."""
    if null_mask is not None:
        values = values[~null_mask]
    idx = domain.bins_of(values)
    keys, counts, tk, nv, background, offsets = [], [], [0], [], [], [0]
    for i in range(domain.bin_count):
        counted = Counter(_scalar(v) for v in values[idx == i])
        ranked = sorted(counted.items(), key=lambda kv: (-kv[1], kv[0]))
        held = sorted(ranked[:k])  # the k most frequent, stored in key order
        keys += [key for key, _ in held]
        counts += [cnt for _, cnt in held]
        tk.append(len(keys))
        nv.append(sum(cnt for _, cnt in ranked[k:]))
        background += sorted(key for key, _ in ranked[k:])
        offsets.append(len(background))
    h = TKHist1D(domain=domain, topk_keys=np.asarray(keys, dtype=values.dtype),
                 topk_counts=np.asarray(counts, dtype=np.int64),
                 nv=np.asarray(nv, np.int64),
                 background=np.asarray(background, dtype=values.dtype))
    return h, tk, offsets


def reference_insert(h, keys):
    """The per-key dict loop that `TKHist1D.insert` replaced, on copies of
    h's bins: each distinct key adds its count to its container entry, or
    else to its bin's NV and the background set.  Returns the containers,
    NV, background keys and row total it leaves."""
    containers = [dict(b.topk) for b in h.bins]
    nv = [b.nv for b in h.bins]
    background = set(h.background.tolist())
    keys, counts = np.unique(keys.astype(h.background.dtype),
                             return_counts=True)
    for key, cnt, i in zip(keys.tolist(), counts.tolist(),
                           h.domain.bins_of(keys).tolist()):
        if key in containers[i]:
            containers[i][key] += cnt
        else:
            nv[i] += cnt
            background.add(key)
    total = sum(nv) + sum(sum(c.values()) for c in containers)
    return containers, nv, sorted(background), total


def background_of(h, i):
    """The background keys of bin i as a set."""
    lo, hi = h.background_offsets[i], h.background_offsets[i + 1]
    return set(h.background[lo:hi].tolist())


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
        b = h.bins[0]
        assert b.topk == {1: 4}
        assert (b.nv, h.ndv[0]) == (3, 2)
        assert b.nv / h.ndv[0] == pytest.approx(1.5)
        assert background_of(h, 0) == {2, 3}
        assert h.bins[1].topk == {60: 1}

    def test_tie_breaks_toward_smaller_key(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([5, 5, 3, 3, 7]), d, k=1)
        assert dict(h.bins[0].topk) == {3: 2}

    def test_k_zero_everything_background(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 1, 2]), d, k=0)
        assert h.bins[0].topk == {}
        assert (h.bins[0].nv, h.ndv[0]) == (3, 2)

    def test_nulls_skipped(self):
        # the build counts the rows it is given; a NaN key is a null
        d = make_domain(0, 10, 1)
        data = make_table("t", {"k": [1.0, float("nan"), 3.0, 4.0]},
                          nulls={"k": [False, False, False, True]})
        h = build_tkhist1d(data.non_null("k"), d, k=5)
        assert h.total_rows == 2
        assert h.topk_keys.tolist() == [1.0, 3.0]

    @settings(max_examples=60, deadline=None)
    @given(values=keys_strategy, k=st.integers(min_value=0, max_value=8))
    def test_bin_mass_identity(self, values, k):
        # NV + sum(container) must equal the exact per-bin row count
        d = make_domain(0, 100, 7)
        vals = np.asarray(values, dtype=np.int64)
        h = build_tkhist1d(vals, d, k=k)
        exact = Counter(domain_bin(d, v) for v in values)
        for i, b in enumerate(h.bins):
            assert b.nv + sum(b.topk.values()) == exact.get(i, 0)
        assert h.total_rows == len(values)

    @settings(max_examples=40, deadline=None)
    @given(values=keys_strategy, k=st.integers(min_value=0, max_value=8))
    def test_container_holds_most_frequent(self, values, k):
        d = make_domain(0, 100, 4)
        h = build_tkhist1d(np.asarray(values, dtype=np.int64), d, k=k)
        for i, b in enumerate(h.bins):
            if not b.topk or not h.ndv[i]:
                continue
            min_in = min(b.topk.values())
            per_bg = Counter(v for v in values
                             if v in background_of(h, i))
            assert min_in >= max(per_bg.values())


    @settings(max_examples=400, deadline=None)
    @given(column=key_columns(), k=st.integers(min_value=0, max_value=10),
           bins=st.integers(min_value=1, max_value=12))
    def test_matches_reference_build(self, column, k, bins):
        values, nulls = column
        d = make_domain(0, 60, bins)
        kept = values if nulls is None else values[~nulls]
        h = build_tkhist1d(kept, d, k=k)
        ref, tk, offsets = reference_build_tkhist1d(values, d, k=k,
                                                    null_mask=nulls)
        # the offsets the constructor derives are the ones counted per bin
        assert ref.topk_offsets.tolist() == tk
        assert ref.background_offsets.tolist() == offsets
        assert h.total_rows == ref.total_rows
        assert (h.topk_keys.dtype, h.topk_counts.dtype) == (values.dtype,
                                                           np.int64)
        assert h.topk_offsets.tolist() == ref.topk_offsets.tolist()
        per_bin = Counter(d.bins_of(kept).tolist())
        key_type = int if values.dtype == np.int64 else float
        assert h.background.dtype == values.dtype
        assert h.background.tolist() == ref.background.tolist()
        assert h.background_offsets.tolist() == ref.background_offsets.tolist()
        for i, (b, rb) in enumerate(zip(h.bins, ref.bins)):
            assert list(b.topk.items()) == list(rb.topk.items())
            assert all(type(key) is key_type and type(c) is int
                       for key, c in b.topk.items())
            assert type(b.nv) is int
            assert b.nv == rb.nv
            assert b.nv + sum(b.topk.values()) == per_bin.get(i, 0)


class TestConstructor:
    """`TKHist1D` checks its own arrays and derives both offset arrays."""

    @staticmethod
    def make(**changed):
        # bins [0, 5) and [5, 10]: containers 1 | 6, background 2, 3 | 7
        arrays = {"topk_keys": [1, 6], "topk_counts": [3, 2], "nv": [2, 1],
                  "background": [2, 3, 7], **changed}
        return TKHist1D(make_domain(0, 10, 2),
                        **{name: np.asarray(a) for name, a in arrays.items()})

    def test_offsets_derived_from_the_keys_bins(self):
        h = self.make()
        assert h.topk_offsets.tolist() == [0, 1, 2]
        assert h.background_offsets.tolist() == [0, 2, 3]
        assert h.ndv.tolist() == [2, 1]
        assert h.bin_rows().tolist() == [5, 3]

    @pytest.mark.parametrize("changed, error, message", [
        ({"topk_keys": [6, 1]}, TKHistError,
         "unsorted or repeated container keys"),
        ({"background": [3, 2, 7]}, TKHistError,
         "unsorted or repeated background keys"),
        ({"topk_keys": [1, 1]}, TKHistError,
         "unsorted or repeated container keys"),
        ({"background": [2, 2, 7]}, TKHistError,
         "unsorted or repeated background keys"),
        ({"topk_keys": [1.0, float("nan")]}, TKHistError,
         "unsorted or repeated container keys"),
        ({"background": [2.0, float("nan"), 7.0]}, TKHistError,
         "unsorted or repeated background keys"),
        ({"background": [float("nan")], "nv": [1, 0]}, DomainBoundsError,
         "value nan outside domain 't.k'"),
        ({"background": [2, 6, 7]}, TKHistError,
         "a key both in a container and in the background"),
        ({"background": [2, 3, 11]}, DomainBoundsError,
         "value 11.0 outside domain 't.k' bounds [0.0, 10.0]"),
        ({"topk_keys": [-1, 6]}, DomainBoundsError,
         "value -1.0 outside domain 't.k'"),
        ({"nv": [2]}, TKHistError, "1 nv entries for 2 bins"),
        ({"topk_counts": [3]}, TKHistError, "2 topk_keys and 1 topk_counts"),
        ({"topk_counts": [3, 2, 1]}, TKHistError,
         "2 topk_keys and 3 topk_counts"),
    ], ids=["unsorted-container-keys", "unsorted-background",
            "repeated-container-key", "repeated-background-key",
            "nan-container-key", "nan-between-background-keys",
            "lone-nan-background-key", "key-in-both-arrays",
            "background-key-outside-domain", "container-key-outside-domain",
            "short-nv", "short-counts", "long-counts"])
    @pytest.mark.filterwarnings("error")  # no NaN slips into an int cast
    def test_broken_arrays_rejected(self, changed, error, message):
        with pytest.raises(TKHistError, match=re.escape(message)) as info:
            self.make(**changed)
        assert type(info.value) is error


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
        assert (h.bins[0].nv, h.ndv[0]) == (3, 2)  # membership frozen, 3 stays background
        assert h.background.tolist() == [2, 3]

    def test_real_keys_into_integer_histogram_rejected(self):
        d = make_domain(0, 10, 1)
        h = build_tkhist1d(np.array([1, 2]), d, k=0)
        with pytest.raises(TKHistError, match="float64 keys"):
            h.insert(np.array([2.5]))
        h.insert(np.array([3]))  # integer keys into a real histogram are fine
        r = build_tkhist1d(np.array([1.5]), d, k=0)
        r.insert(np.array([3]))
        assert r.background.tolist() == [1.5, 3.0]

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
        exact = Counter(domain_bin(d, v) for v in initial + extra)
        for i, b in enumerate(h.bins):
            assert b.nv + sum(b.topk.values()) == exact.get(i, 0)
        assert h.bin_rows().tolist() == [exact.get(i, 0) for i in range(5)]

    @settings(max_examples=150, deadline=None)
    @given(column=key_columns(),
           batches=st.lists(key_columns(), min_size=1, max_size=3),
           k=st.integers(min_value=0, max_value=6),
           bins=st.integers(min_value=1, max_value=9))
    def test_insert_matches_per_key_loop(self, column, batches, k, bins):
        values, nulls = column
        h = build_tkhist1d(values if nulls is None else values[~nulls],
                           make_domain(0, 60, bins), k=k)
        key_type = int if values.dtype == np.int64 else float
        for added, _ in batches:
            added = added.astype(values.dtype)
            containers, nv, background, total = reference_insert(h, added)
            h.insert(added)
            # the views keep each container's order: inserts rank nothing
            assert [list(b.topk.items()) for b in h.bins] == \
                [list(c.items()) for c in containers]
            # container keys stay in key order, which `insert` bisects
            assert np.all(h.topk_keys[1:] > h.topk_keys[:-1])
            assert all(type(key) is key_type and type(c) is int
                       for b in h.bins for key, c in b.topk.items())
            assert [b.nv for b in h.bins] == h.nv.tolist() == nv
            assert h.background.tolist() == background
            assert h.total_rows == total
            assert h.bin_rows().tolist() == [
                v + sum(c.values()) for v, c in zip(nv, containers)]

    @settings(max_examples=100, deadline=None)
    @given(column=key_columns(), extra=key_columns(),
           k=st.integers(min_value=0, max_value=6),
           bins=st.integers(min_value=1, max_value=9))
    def test_insert_matches_rebuild_background(self, column, extra, k, bins):
        # a batch insert leaves the background keys a rebuild with the same
        # containers would have: every distinct key outside the containers
        values, nulls = column
        added = extra[0].astype(values.dtype)
        d = make_domain(0, 60, bins)
        kept = values if nulls is None else values[~nulls]
        h = build_tkhist1d(kept, d, k=k)
        h.insert(added)
        rebuilt = build_tkhist1d(np.concatenate([kept, added]), d, k=0)
        held = {key for b in h.bins for key in b.topk}
        assert h.background.dtype == values.dtype
        assert h.background.tolist() == [
            key for key in rebuilt.background.tolist() if key not in held]
        assert (h.ndv + [len(b.topk) for b in h.bins]).tolist() == \
            rebuilt.ndv.tolist()
        if k == 0:
            assert h.background_offsets.tolist() == \
                rebuilt.background_offsets.tolist()


class TestHist2D:
    def test_grid_counts_match_scan(self, rng):
        d = make_domain(0, 50, 5)
        keys = rng.integers(0, 51, size=400)
        attrs = rng.integers(0, 20, size=400)
        binning = numeric_axis(attrs, 4)
        h = build_tkhist2d(keys, attrs, d, binning)
        assert h.grid.sum() == 400
        for i in range(5):
            for j in range(4):
                expect = sum(1 for kk, aa in zip(keys, attrs)
                             if domain_bin(d, kk) == i and attr_bin(binning, aa) == j)
                assert h.grid[i, j] == expect

    def test_categorical_axis(self):
        d = make_domain(0, 10, 2)
        keys = np.array([1, 2, 8])
        attrs = np.array(["a", "b", "a"], dtype=object)
        h = build_tkhist2d(keys, attrs, d, categorical_axis(attrs))
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
        binning = categorical_axis(attrs)
        h = build_tkhist2d(keys, attrs, d, binning)
        expect = np.zeros_like(h.grid)
        for kk, aa in zip(keys, attrs):
            expect[domain_bin(d, kk), attr_bin(binning, aa)] += 1
        assert h.grid.tolist() == expect.tolist()

    @settings(max_examples=80, deadline=None)
    @given(categorical=st.booleans(),
           batches=st.lists(st.lists(st.tuples(st.integers(0, 10),
                                               st.integers(-5, 15)),
                                     min_size=1, max_size=40),
                            min_size=1, max_size=4))
    def test_grid_equals_add_at_reference(self, categorical, batches):
        """Build on the first batch and insert the others, a categorical
        axis widened first onto the sorted values seen so far; every cell
        then holds what `np.add.at` counts over all rows, binned by the
        final axis, which for a categorical one is a build's on all rows."""
        d = make_domain(0, 10, 3)

        def columns(rows):
            keys, attrs = np.array(rows, dtype=np.int64).T
            return keys, attrs.astype(object) if categorical else attrs

        keys, attrs = columns(batches[0])
        axis = (categorical_axis(attrs) if categorical
                else numeric_axis(attrs, 4))
        h = build_tkhist2d(keys, attrs, d, axis)
        for rows in batches[1:]:
            keys, attrs = columns(rows)
            if categorical:
                h.widen(sorted(set(h.attr) | set(attrs.tolist())))
            h.insert(keys, attrs)
        keys, attrs = columns([row for rows in batches for row in rows])
        if categorical:
            axis = categorical_axis(attrs)
        assert h.attr == axis
        expect = np.zeros((d.bin_count, axis_length(axis)), dtype=np.int64)
        np.add.at(expect, (d.bins_of(keys),
                           [attr_bin(axis, a) for a in attrs]), 1)
        assert h.grid.dtype == np.int64
        assert h.grid.tolist() == expect.tolist()

    def test_categorical_value_missing_from_binning(self):
        d = make_domain(0, 10, 2)
        binning = categorical_axis(np.array(["a"], dtype=object))
        with pytest.raises(TKHistError, match="'b'"):
            build_tkhist2d(np.array([1, 2]),
                           np.array(["a", "b"], dtype=object), d, binning)

    def test_insert_unseen_categorical_grows_grid(self):
        # an unseen value is an error until `widen` gives it a zero column
        # at its sorted place
        d = make_domain(0, 10, 2)
        attrs = np.array(["b"], dtype=object)
        h = build_tkhist2d(np.array([1]), attrs, d, categorical_axis(attrs))
        with pytest.raises(TKHistError, match="'a'"):
            h.insert(7, "a")
        h.widen(["a", "b", "c"])
        h.insert(7, "a")
        assert h.attr == ["a", "b", "c"]
        assert h.grid.tolist() == [[0, 1, 0], [1, 0, 0]]

    def test_key_and_attribute_lengths_must_match(self):
        # one flat index would broadcast across the three keys
        d = make_domain(0, 10, 2)
        h = build_tkhist2d(np.array([1]), np.array([0]), d,
                           numeric_axis([0, 10], 2))
        with pytest.raises(TKHistError, match="different lengths"):
            h.insert([1, 2, 3], [5])
        assert h.grid.tolist() == [[1, 0], [0, 0]]
        with pytest.raises(TKHistError, match="different lengths"):
            build_tkhist2d(np.array([1, 2, 3]), np.array([5]), d, h.attr)

    def test_null_rows_excluded(self):
        # the build counts the rows it is given: those with neither side
        # null, a NaN attribute being a null
        d = make_domain(0, 10, 2)
        data = make_table("t", {"k": [1, 2, 3, 4], "a": [5.0, 6.0, 7.0,
                                                         float("nan")]},
                          nulls={"k": [False, True, False, False],
                                 "a": [False, False, True, False]})
        both = ~(data.null_mask["k"] | data.null_mask["a"])
        h = build_tkhist2d(data.columns["k"][both], data.columns["a"][both],
                           d, numeric_axis([5, 7], 2))
        assert h.grid.sum() == 1

    def test_far_numeric_values_clamp_to_edge_bins(self):
        # (v - lo) / w passes int64 here; it must clamp, not wrap to bin 0
        # (nor raise, as the axis's own `bins_of` would)
        axis = numeric_axis(np.array([0, 100]), 200)
        far = np.array([9 * 10 ** 18, -9 * 10 ** 18, 150])
        h = build_tkhist2d(np.array([1, 1, 1]), far, make_domain(0, 10, 1),
                           axis)
        assert h.grid[0, 0] == 1 and h.grid[0, 199] == 2

    def test_domain_binning_is_bin_aligned(self):
        # a key attribute's axis is its key domain: its bins are key bins
        d = make_domain(0, 100, 10)
        keys = np.arange(0, 101, 5)
        h = build_tkhist2d(keys, keys, d, d)
        assert h.grid.tolist() == \
            np.diag(np.bincount(d.bins_of(keys))).tolist()


def test_frequency_hist_exact():
    vals = np.array(["x", "y", "x", "x"], dtype=object)
    assert add_value_counts({}, vals) == {"x": 3, "y": 1}
    counts = {"x": 1, "z": 2}
    assert add_value_counts(counts, vals) is counts
    assert counts == {"x": 4, "z": 2, "y": 1}
    assert add_value_counts({}, np.array([], dtype=object)) == {}
