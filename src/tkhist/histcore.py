"""Top-k augmented histograms over join keys, plus 2D and frequency histograms.

Each bin of a 1D histogram stores an exact (key -> frequency) container for the
k most frequent join keys of that bin, and summarizes the rest ("background")
as NV (value count) and NDV (distinct count).  BAC = NV / NDV is always derived
on demand, never stored, so the per-bin identity

    exact bin row count == NV + sum(container frequencies)

holds as integer arithmetic.  A 1D histogram keeps these as the state file's
flat arrays with per-bin offsets; its `Bin1D` views are built on first use.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import KeyDomain, equi_width_bins
from .errors import TKHistError


def _scalar(v):
    """Normalize numpy scalars to plain Python ints/floats for use as dict keys."""
    return v.item() if isinstance(v, (np.integer, np.floating)) else v


class Bin1D(NamedTuple):  # a read-only view of one bin
    topk: dict  # key -> exact frequency
    nv: int


@dataclass
class TKHist1D:
    """Bin i's container is `topk_keys[topk_offsets[i]:topk_offsets[i + 1]]`
    with those `topk_counts`, ranked by (-count, key) until an insert; its
    sorted background keys are `background` sliced by `background_offsets`
    alike.  Keys are in the column's dtype; key order is bin order."""

    domain: KeyDomain
    topk_keys: np.ndarray
    topk_counts: np.ndarray  # int64
    topk_offsets: np.ndarray  # int64, bin_count + 1 entries
    nv: np.ndarray  # int64 per bin
    background: np.ndarray
    background_offsets: np.ndarray  # int64, bin_count + 1 entries

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
        """Per-bin views, containers in array order; `insert` drops them."""
        keys, counts = self.topk_keys.tolist(), self.topk_counts.tolist()
        tk = self.topk_offsets.tolist()
        return tuple(Bin1D(topk=dict(zip(keys[lo:hi], counts[lo:hi])), nv=nv)
                     for lo, hi, nv in zip(tk[:-1], tk[1:], self.nv.tolist()))

    def insert(self, keys) -> None:
        """Add one key or an array of keys (nulls already removed).

        A key in a container adds to its count, any other to its bin's NV
        and the background: container membership is frozen at build time.
        Real keys for an integer histogram are an error, not truncated.
        """
        keys = np.atleast_1d(keys)
        if not np.can_cast(keys.dtype, self.background.dtype):
            raise TKHistError(f"cannot insert {keys.dtype} keys into a "
                              f"histogram of {self.background.dtype} keys")
        keys, counts = np.unique(keys.astype(self.background.dtype),
                                 return_counts=True)
        held = np.isin(keys, self.topk_keys)
        by_key = np.argsort(self.topk_keys, kind="stable")
        self.topk_counts[by_key[np.searchsorted(
            self.topk_keys, keys[held], sorter=by_key)]] += counts[held]
        np.add.at(self.nv, self.domain.bins_of(keys[~held]), counts[~held])
        self.background = _merge_sorted(self.background, keys[~held])
        self.background_offsets = _offsets(
            self.domain.bins_of(self.background), self.domain.bin_count)
        self.__dict__.pop("bins", None)


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted arrays of distinct values, in a's dtype:
    b's values missing from a are inserted at their `searchsorted` positions,
    a linear merge where `np.union1d` would sort both again."""
    pos = np.searchsorted(a, b)
    new = pos == len(a)
    new[~new] = a[pos[~new]] != b[~new]
    return np.insert(a, pos[new], b[new])


def _offsets(sorted_bins: np.ndarray, bin_count: int) -> np.ndarray:
    """CSR offsets of items whose bins are `sorted_bins` (non-decreasing)."""
    return np.searchsorted(sorted_bins, np.arange(bin_count + 1))


def build_tkhist1d(values: np.ndarray, domain: KeyDomain, k: int,
                   null_mask: np.ndarray | None = None) -> TKHist1D:
    """Build a top-k histogram from a join-key column in one grouped pass.

    Values are assigned to half-open bins [b_i, b_{i+1}) with the last bin
    closed.  The distinct keys and their counts come from one `np.unique`;
    one `np.lexsort` by (bin, -count, key) then ranks them, so within each
    bin the k most frequent keys enter the container, frequency ties broken
    toward the smaller key, and the rest form the background.
    """
    if k < 0:
        raise TKHistError("k must be >= 0")
    if null_mask is not None:
        values = values[~null_mask]
    keys, counts = np.unique(values, return_counts=True)
    idx = domain.bins_of(keys)
    order = np.lexsort((keys, -counts, idx))
    starts = _offsets(idx[order], domain.bin_count)
    rank = np.arange(len(keys)) - np.repeat(starts[:-1], np.diff(starts))
    # unique keys are sorted, so the background's key order is bin order
    held, bg = order[rank < k], np.sort(order[rank >= k])
    nv = np.zeros(domain.bin_count, dtype=np.int64)
    np.add.at(nv, idx[bg], counts[bg])
    return TKHist1D(domain=domain, topk_keys=keys[held],
                    topk_counts=counts[held].astype(np.int64),
                    topk_offsets=_offsets(idx[held], domain.bin_count), nv=nv,
                    background=keys[bg],
                    background_offsets=_offsets(idx[bg], domain.bin_count))


@dataclass
class AttrBinning:
    """Attribute-axis binning of a 2D histogram.

    A numeric attribute has `bin_count` equi-width bins over [lo, hi]
    (`catalog.equi_width_bins`); a categorical attribute gets one bin per
    distinct value.  When the attribute is itself a join key, lo, hi and
    bin_count are the key domain's, so chain translation stays bin-aligned
    (attr_domain_id records which domain).
    """

    kind: str  # 'numeric' | 'categorical'
    integer: bool = False
    lo: float = 0.0
    hi: float = 0.0
    bin_count: int = 0
    values: list = field(default_factory=list)
    attr_domain_id: str | None = None

    def __post_init__(self):
        self._index = {v: i for i, v in enumerate(self.values)}

    @property
    def n_bins(self) -> int:
        if self.kind == "categorical":
            return len(self.values)
        return self.bin_count

    def bins_of(self, values, grow: bool = False) -> np.ndarray:
        """Attribute bin of each value, as an int64 array.

        Numeric values outside [lo, hi] clamp into the edge bins.  A
        categorical value the binning has not seen is an error unless `grow`
        is set; then the unseen values are appended in the order they first
        appear in `values`.
        """
        if self.kind == "categorical":
            distinct, first, inverse = np.unique(
                values, return_index=True, return_inverse=True)
            distinct = distinct.tolist()
            lookup = [self._index.get(v) for v in distinct]
            unseen = [i for i, j in enumerate(lookup) if j is None]
            if unseen and not grow:
                raise TKHistError(f"categorical value {distinct[unseen[0]]!r} "
                                  "missing from binning")
            for i in sorted(unseen, key=lambda i: first[i]):
                lookup[i] = self.add_value(distinct[i])
            return np.asarray(lookup, dtype=np.int64)[inverse]
        return equi_width_bins(values, self.lo, self.hi, self.bin_count)

    def add_value(self, v) -> int:
        """Register a previously unseen categorical value; returns its bin."""
        v = _scalar(v)
        if v in self._index:
            return self._index[v]
        self.values.append(v)
        self._index[v] = len(self.values) - 1
        return self._index[v]


def domain_binning(attr_domain: KeyDomain, integer: bool) -> AttrBinning:
    return AttrBinning(kind="numeric", integer=integer, lo=attr_domain.lo,
                       hi=attr_domain.hi, bin_count=attr_domain.bin_count,
                       attr_domain_id=attr_domain.id)


@dataclass
class TKHist2D:
    """Grid of row counts over aligned key bins x attribute bins."""

    key_domain: KeyDomain
    attr: AttrBinning
    grid: np.ndarray  # shape (key bins, attr bins), int64

    def insert(self, keys, attrs) -> None:
        """Add one (key, attribute) pair, or two aligned arrays of them.

        Each unseen categorical value gets a new grid column.
        """
        ki = self.key_domain.bins_of(np.atleast_1d(keys))
        aj = self.attr.bins_of(np.atleast_1d(attrs), grow=True)
        grown = self.attr.n_bins - self.grid.shape[1]
        if grown:
            self.grid = np.pad(self.grid, ((0, 0), (0, grown)))
        self.grid += _cell_counts(ki, aj, self.grid.shape)

    def key_marginal(self) -> np.ndarray:
        return self.grid.sum(axis=1)


def build_tkhist2d(key_values: np.ndarray, attr_values: np.ndarray,
                   domain: KeyDomain, binning: AttrBinning,
                   key_nulls: np.ndarray | None = None,
                   attr_nulls: np.ndarray | None = None) -> TKHist2D:
    """Tabulate (key bin, attribute bin) counts; rows with a null on either
    side are excluded."""
    if len(key_values) != len(attr_values):
        raise TKHistError("key and attribute columns have different lengths")
    keep = np.ones(len(key_values), dtype=bool)
    if key_nulls is not None:
        keep &= ~key_nulls
    if attr_nulls is not None:
        keep &= ~attr_nulls
    grid = _cell_counts(domain.bins_of(key_values[keep]),
                        binning.bins_of(attr_values[keep]),
                        (domain.bin_count, binning.n_bins))
    return TKHist2D(key_domain=domain, attr=binning, grid=grid)


def _cell_counts(ki: np.ndarray, aj: np.ndarray,
                 shape: tuple[int, int]) -> np.ndarray:
    """int64 grid of `shape` counting each (key bin, attribute bin) pair,
    from one `np.bincount` over flat cell indices."""
    flat = np.bincount(ki * shape[1] + aj, minlength=shape[0] * shape[1])
    return flat.astype(np.int64, copy=False).reshape(shape)


def add_value_counts(counts: dict, values: np.ndarray) -> dict:
    """Add each value's number of rows in `values` (nulls removed) to the
    frequency histogram `counts` of a categorical column; returns it."""
    distinct, n = np.unique(values, return_counts=True)
    for v, c in zip(distinct.tolist(), n.tolist()):
        counts[v] = counts.get(v, 0) + c
    return counts
