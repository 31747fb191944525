"""Top-k augmented histograms over join keys, plus 2D and frequency histograms.

Each bin of a 1D histogram stores an exact (key -> frequency) container for the
k most frequent join keys of that bin, and summarizes the rest ("background")
as NV (value count) and NDV (distinct count).  BAC = NV / NDV is always derived
on demand, never stored, so the per-bin identity

    exact bin row count == NV + sum(container frequencies)

holds as integer arithmetic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .catalog import KeyDomain, equi_width_bins, value_span
from .errors import TKHistError


def _scalar(v):
    """Normalize numpy scalars to plain Python ints/floats for use as dict keys."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


@dataclass
class Bin1D:
    topk: dict = field(default_factory=dict)  # key -> exact frequency
    nv: int = 0

    def total(self) -> int:
        return self.nv + sum(self.topk.values())


@dataclass
class TKHist1D:
    """Per-bin containers and NV, plus the background keys of every bin as
    one sorted array in the column's dtype.  Bins are equi-width, so key order
    is bin order: bin i's background keys are
    `background[background_offsets[i]:background_offsets[i + 1]]`."""

    domain: KeyDomain
    bins: list[Bin1D]
    total_rows: int
    background: np.ndarray
    background_offsets: np.ndarray  # int64, bin_count + 1 entries

    @property
    def ndv(self) -> np.ndarray:
        """Distinct background keys per bin."""
        return np.diff(self.background_offsets)

    def insert(self, keys) -> None:
        """Add one key or an array of keys (nulls already removed).

        The keys are grouped with one `np.unique`; each distinct key adds its
        count to the container entry it has, or else to its bin's NV, and the
        others are merged into the background array in one pass.
        Container membership is frozen at build time: a background key that
        becomes frequent through inserts stays background until a rebuild.
        Keys take the background's dtype; real keys for an integer histogram
        are an error rather than being truncated.
        """
        keys = np.atleast_1d(keys)
        if not np.can_cast(keys.dtype, self.background.dtype):
            raise TKHistError(f"cannot insert {keys.dtype} keys into a "
                              f"histogram of {self.background.dtype} keys")
        keys, counts = np.unique(keys.astype(self.background.dtype),
                                 return_counts=True)
        idx = self.domain.bins_of(keys)
        held = np.zeros(len(keys), dtype=bool)
        for j, (key, cnt, i) in enumerate(zip(keys.tolist(), counts.tolist(),
                                              idx.tolist())):
            b = self.bins[i]
            if key in b.topk:
                b.topk[key] += cnt
                held[j] = True
            else:
                b.nv += cnt
        self.background = _merge_sorted(self.background, keys[~held])
        self.background_offsets = _offsets(
            self.domain.bins_of(self.background), self.domain.bin_count)
        self.total_rows += int(counts.sum())


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
    in_background = np.ones(len(keys), dtype=bool)
    in_background[order[rank < k]] = False
    ranked_keys, ranked_counts = keys[order].tolist(), counts[order].tolist()
    bins = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        cut = min(lo + k, hi)
        bins.append(Bin1D(topk=dict(zip(ranked_keys[lo:cut],
                                        ranked_counts[lo:cut])),
                          nv=sum(ranked_counts[cut:hi])))
    # unique keys are sorted, hence so are their bins
    return TKHist1D(domain=domain, bins=bins, total_rows=len(values),
                    background=keys[in_background],
                    background_offsets=_offsets(idx[in_background],
                                                domain.bin_count))


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


def numeric_binning(values: np.ndarray, n_bins: int, integer: bool) -> AttrBinning:
    lo, hi = value_span([values])
    return AttrBinning(kind="numeric", integer=integer, lo=lo, hi=hi,
                       bin_count=n_bins)


def categorical_binning(values) -> AttrBinning:
    distinct = sorted({_scalar(v) for v in values})
    return AttrBinning(kind="categorical", values=list(distinct))


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


def build_frequency_hist(values, null_mask: np.ndarray | None = None) -> dict:
    """Exact per-distinct-value counts for a categorical column."""
    if null_mask is not None:
        values = values[~null_mask]
    return {(_scalar(v)): int(c) for v, c in Counter(values.tolist()).items()}
