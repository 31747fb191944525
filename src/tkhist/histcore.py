"""Top-k augmented histograms over join keys, plus 2D and frequency histograms.

Each bin of a 1D histogram stores an exact (key -> frequency) container for the
k most frequent join keys of that bin, and summarizes the rest ("background")
as NV (value count) and NDV (distinct count).  BAC = NV / NDV is always derived
on demand, never stored, so the per-bin identity

    exact bin row count == NV + sum(container frequencies)

holds as integer arithmetic.  A 1D histogram keeps these as flat arrays,
keys in key order; its per-bin offsets follow from the keys' bins, and its
`Bin1D` views are built on first use.

A 2D histogram counts rows per (key bin, attribute bin).  Its attribute axis
has one of two forms: a `KeyDomain` (equi-width bins) for a numeric column,
or the sorted list of a categorical column's values.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import KeyDomain, equi_width_bins
from .errors import TKHistError


class Bin1D(NamedTuple):  # a read-only view of one bin
    topk: dict  # key -> exact frequency
    nv: int


@dataclass
class TKHist1D:
    """Bin i's container is `topk_keys[topk_offsets[i]:topk_offsets[i + 1]]`
    with those `topk_counts`; its background keys are `background` sliced
    by `background_offsets` alike.  Both offset arrays follow from the keys'
    bins, so the constructor derives them after checking its arrays: one NV
    per bin, one count per container key, both key arrays strictly
    increasing (a NaN fails) and disjoint, every key inside the domain
    (else `bins_of` raises DomainBoundsError); any other break raises
    TKHistError.  Keys are in the column's dtype; key order is bin order."""

    domain: KeyDomain
    topk_keys: np.ndarray
    topk_counts: np.ndarray  # int64
    nv: np.ndarray  # int64 per bin
    background: np.ndarray
    topk_offsets: np.ndarray = field(init=False)  # bin_count + 1 entries
    background_offsets: np.ndarray = field(init=False)  # likewise

    def __post_init__(self):
        n = self.domain.bin_count
        if len(self.nv) != n:
            raise TKHistError(f"{len(self.nv)} nv entries for {n} bins")
        if len(self.topk_counts) != len(self.topk_keys):
            raise TKHistError(f"{len(self.topk_keys)} topk_keys and "
                              f"{len(self.topk_counts)} topk_counts")
        # written so that a NaN, which compares false, fails them
        for keys, what in ((self.topk_keys, "container"),
                           (self.background, "background")):
            if not np.all(keys[1:] > keys[:-1]):  # `insert` bisects them
                raise TKHistError(f"unsorted or repeated {what} keys")
        if _sorted_positions(self.background, self.topk_keys)[1].any():
            raise TKHistError("a key both in a container and in the "
                              "background")
        self.topk_offsets = self._bin_offsets(self.topk_keys)
        self.background_offsets = self._bin_offsets(self.background)

    def _bin_offsets(self, keys: np.ndarray) -> np.ndarray:
        """CSR offsets of the sorted `keys` by bin."""
        return _offsets(self.domain.bins_of(keys), self.domain.bin_count)

    @property
    def ndv(self) -> np.ndarray:
        """Distinct background keys per bin."""
        return np.diff(self.background_offsets)

    @property
    def total_rows(self) -> int:  # rows with a non-null key
        return int(self.nv.sum()) + int(self.topk_counts.sum())

    def bin_rows(self) -> np.ndarray:
        """Rows per bin: NV plus the bin's container counts (int64)."""
        held = np.concatenate(([0], np.cumsum(self.topk_counts)))
        return self.nv + np.diff(held[self.topk_offsets])

    @functools.cached_property
    def bins(self) -> tuple[Bin1D, ...]:
        """Per-bin views, containers in key order; `insert` drops them."""
        keys, counts = self.topk_keys.tolist(), self.topk_counts.tolist()
        tk = self.topk_offsets.tolist()
        return tuple(Bin1D(topk=dict(zip(keys[lo:hi], counts[lo:hi])), nv=nv)
                     for lo, hi, nv in zip(tk[:-1], tk[1:], self.nv.tolist()))

    def check_keys(self, keys: np.ndarray) -> None:
        """Raise unless `insert` takes keys of `keys`' dtype: real keys for
        an integer histogram are an error, not truncated."""
        if not np.can_cast(keys.dtype, self.background.dtype):
            raise TKHistError(f"cannot insert {keys.dtype} keys into a "
                              f"histogram of {self.background.dtype} keys")

    def insert(self, keys) -> None:
        """Add one key or an array of keys (nulls already removed) that
        `check_keys` allows.

        A key in a container adds to its count, any other to its bin's NV
        and the background: container membership is frozen at build time.
        """
        keys = np.atleast_1d(keys)
        self.check_keys(keys)
        keys, counts = np.unique(keys.astype(self.background.dtype),
                                 return_counts=True)
        pos, held = _sorted_positions(self.topk_keys, keys)
        self.topk_counts[pos[held]] += counts[held]
        np.add.at(self.nv, self.domain.bins_of(keys[~held]), counts[~held])
        self.background = _merge_sorted(self.background, keys[~held])
        self.background_offsets = self._bin_offsets(self.background)
        self.__dict__.pop("bins", None)


def _sorted_positions(a: np.ndarray,
                     b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value of `b` looked up in the strictly increasing array `a`: its
    `searchsorted` position, and whether `a` holds it there."""
    pos = np.searchsorted(a, b)
    found = pos < len(a)
    found[found] = a[pos[found]] == b[found]
    return pos, found


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted arrays of distinct values, in a's dtype:
    b's values missing from a are inserted at their `searchsorted` positions,
    a linear merge where `np.union1d` would sort both again."""
    pos, found = _sorted_positions(a, b)
    return np.insert(a, pos[~found], b[~found])


def _offsets(sorted_bins: np.ndarray, bin_count: int) -> np.ndarray:
    """CSR offsets of items whose bins are `sorted_bins` (non-decreasing)."""
    return np.searchsorted(sorted_bins, np.arange(bin_count + 1))


def build_tkhist1d(values: np.ndarray, domain: KeyDomain, k: int) -> TKHist1D:
    """Build a top-k histogram of the join keys `values` (nulls already
    removed, as for `insert`) in one grouped pass: every value counts.

    Values are assigned to half-open bins [b_i, b_{i+1}) with the last bin
    closed.  The distinct keys and their counts come from one `np.unique`;
    one `np.lexsort` by (bin, -count, key) then ranks them, so within each
    bin the k most frequent keys enter the container, frequency ties broken
    toward the smaller key, and the rest form the background.  Both are
    stored in key order.
    """
    if k < 0:
        raise TKHistError("k must be >= 0")
    keys, counts = np.unique(values, return_counts=True)
    idx = domain.bins_of(keys)
    order = np.lexsort((keys, -counts, idx))
    starts = _offsets(idx[order], domain.bin_count)
    rank = np.arange(len(keys)) - np.repeat(starts[:-1], np.diff(starts))
    # unique keys are sorted, so key order is bin order
    held, bg = np.sort(order[rank < k]), np.sort(order[rank >= k])
    nv = np.zeros(domain.bin_count, dtype=np.int64)
    np.add.at(nv, idx[bg], counts[bg])
    return TKHist1D(domain=domain, topk_keys=keys[held],
                    topk_counts=counts[held].astype(np.int64), nv=nv,
                    background=keys[bg])


@dataclass
class TKHist2D:
    """Grid of row counts over aligned key bins x attribute bins.

    A numeric attribute's axis is a `KeyDomain`: the column's own key domain
    for a key column, so chain translation stays bin-aligned, else a
    memberless one over the column's built [lo, hi].  Attribute values are
    binned by `equi_width_bins`, which clamps values outside it.  A
    categorical attribute's axis is the sorted list of the column's values,
    one column each.
    """

    key_domain: KeyDomain
    attr: KeyDomain | list
    grid: np.ndarray  # shape (key bins, attribute bins), int64

    def insert(self, keys, attrs) -> None:
        """Add one (key, attribute) pair, or two aligned arrays of them; a
        categorical value must already be on the axis (`widen`)."""
        self.grid += _cell_counts(
            self.key_domain.bins_of(np.atleast_1d(keys)),
            _attr_bins(self.attr, np.atleast_1d(attrs)), self.grid.shape)

    def widen(self, axis: KeyDomain | list) -> None:
        """Put a categorical axis onto `axis`, each value's column adding to
        the value's bin there: a sorted list holding each of its values,
        where every value new to the axis gets a zero column at its sorted
        place, or a numeric axis, for a column past the categorical
        threshold."""
        grid = np.zeros((self.grid.shape[0], axis_length(axis)),
                        dtype=np.int64)
        cols = _attr_bins(axis, self.attr)
        if isinstance(axis, KeyDomain):  # values can share a bin
            np.add.at(grid, (slice(None), cols), self.grid)
        else:  # a copy, several times faster than np.add.at
            grid[:, cols] = self.grid
        self.attr, self.grid = axis, grid

    def key_marginal(self) -> np.ndarray:
        return self.grid.sum(axis=1)


def axis_length(axis: KeyDomain | list) -> int:
    """Number of bins on an attribute axis."""
    return axis.bin_count if isinstance(axis, KeyDomain) else len(axis)


def _attr_bins(axis: KeyDomain | list, values) -> np.ndarray:
    """Attribute bin of each value on `axis`, as an int64 array: numeric
    values clamp into the edge bins; a categorical value not on the axis is
    an error."""
    if isinstance(axis, KeyDomain):
        return equi_width_bins(values, axis.lo, axis.hi, axis.bin_count)
    index = {v: i for i, v in enumerate(axis)}
    distinct, inverse = np.unique(values, return_inverse=True)
    distinct = distinct.tolist()
    lookup = [index.get(v) for v in distinct]
    if None in lookup:
        raise TKHistError(f"categorical value {distinct[lookup.index(None)]!r}"
                          " is not on the axis")
    return np.asarray(lookup, dtype=np.int64)[inverse]


def build_tkhist2d(key_values: np.ndarray, attr_values: np.ndarray,
                   domain: KeyDomain, axis: KeyDomain | list) -> TKHist2D:
    """Tabulate the (key bin, attribute bin) counts of the aligned rows
    given, every one counted: rows with a null on either side are already
    removed, as for `insert`."""
    grid = _cell_counts(domain.bins_of(key_values),
                        _attr_bins(axis, attr_values),
                        (domain.bin_count, axis_length(axis)))
    return TKHist2D(key_domain=domain, attr=axis, grid=grid)


def _cell_counts(ki: np.ndarray, aj: np.ndarray,
                 shape: tuple[int, int]) -> np.ndarray:
    """int64 grid of `shape` counting each (key bin, attribute bin) pair of
    two arrays of one length, from one `np.bincount` over flat indices."""
    if len(ki) != len(aj):
        raise TKHistError("key and attribute columns have different lengths")
    flat = np.bincount(ki * shape[1] + aj, minlength=shape[0] * shape[1])
    return flat.astype(np.int64, copy=False).reshape(shape)


def add_value_counts(counts: dict, values: np.ndarray) -> dict:
    """Add each value's number of rows in `values` (nulls removed) to the
    frequency histogram `counts` of a categorical column; returns it."""
    distinct, n = np.unique(values, return_counts=True)
    for v, c in zip(distinct.tolist(), n.tolist()):
        counts[v] = counts.get(v, 0) + c
    return counts
