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
from types import MappingProxyType

import numpy as np

from .catalog import KeyDomain
from .errors import DomainBoundsError, TKHistError


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
    background: set = field(default_factory=set)  # distinct background keys

    @property
    def ndv(self) -> int:
        return len(self.background)

    @property
    def bac(self) -> float:
        return self.nv / self.ndv if self.ndv else 0.0

    def total(self) -> int:
        return self.nv + sum(self.topk.values())


@dataclass
class TKHist1D:
    domain: KeyDomain
    bins: list[Bin1D]
    total_rows: int
    k: int

    def bin_stats(self, i: int):
        """Return (NV, NDV, BAC, read-only container view) for bin i."""
        if not 0 <= i < len(self.bins):
            raise IndexError(f"bin index {i} out of range")
        b = self.bins[i]
        return (b.nv, b.ndv, b.bac, MappingProxyType(b.topk))

    def insert(self, value) -> None:
        """Constant-expected-time tuple insert.

        Container membership is frozen at build time: a background key that
        becomes frequent through inserts stays background until a rebuild.
        """
        key = _scalar(value)
        b = self.bins[self.domain.bin_of(key)]
        if key in b.topk:
            b.topk[key] += 1
        else:
            b.nv += 1
            b.background.add(key)
        self.total_rows += 1


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
    keys = keys[order].tolist()
    counts = counts[order].tolist()
    starts = np.searchsorted(idx[order], np.arange(domain.bin_count + 1))
    bins = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        cut = min(lo + k, hi)
        bins.append(Bin1D(topk=dict(zip(keys[lo:cut], counts[lo:cut])),
                          nv=sum(counts[cut:hi]),
                          background=set(keys[cut:hi])))
    return TKHist1D(domain=domain, bins=bins, total_rows=len(values), k=k)


def insert_tuple(hist: TKHist1D, value) -> TKHist1D:
    hist.insert(value)
    return hist


def bin_stats(hist: TKHist1D, i: int):
    return hist.bin_stats(i)


@dataclass
class AttrBinning:
    """Attribute-axis binning of a 2D histogram.

    Numeric attributes use equi-width boundaries; categorical attributes get
    one bin per distinct value.  When the attribute is itself a join key the
    boundaries are the key domain's, so chain translation stays bin-aligned
    (attr_domain_id records which domain).
    """

    kind: str  # 'numeric' | 'categorical'
    integer: bool = False
    boundaries: np.ndarray | None = None
    values: list = field(default_factory=list)
    attr_domain_id: str | None = None

    def __post_init__(self):
        self._index = {v: i for i, v in enumerate(self.values)}

    @property
    def n_bins(self) -> int:
        if self.kind == "categorical":
            return len(self.values)
        return len(self.boundaries) - 1

    def bin_of(self, v) -> int | None:
        if self.kind == "categorical":
            return self._index.get(_scalar(v))
        lo, hi = float(self.boundaries[0]), float(self.boundaries[-1])
        n = self.n_bins
        if hi <= lo:
            return 0
        idx = int((float(v) - lo) / ((hi - lo) / n))
        return min(max(idx, 0), n - 1)  # out-of-range updates clamp to edges

    def add_value(self, v) -> int:
        """Register a previously unseen categorical value; returns its bin."""
        v = _scalar(v)
        if v in self._index:
            return self._index[v]
        self.values.append(v)
        self._index[v] = len(self.values) - 1
        return self._index[v]

    def interval(self, j: int) -> tuple[float, float]:
        n = self.n_bins
        lo, hi = float(self.boundaries[0]), float(self.boundaries[-1])
        w = (hi - lo) / n
        return (lo + j * w, lo + (j + 1) * w)


def numeric_binning(values: np.ndarray, n_bins: int, integer: bool) -> AttrBinning:
    if len(values) == 0:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(np.min(values)), float(np.max(values))
        if hi <= lo:
            hi = lo + 1.0
    return AttrBinning(kind="numeric", integer=integer,
                       boundaries=np.linspace(lo, hi, n_bins + 1))


def categorical_binning(values) -> AttrBinning:
    distinct = sorted({_scalar(v) for v in values})
    return AttrBinning(kind="categorical", values=list(distinct))


def domain_binning(attr_domain: KeyDomain, integer: bool) -> AttrBinning:
    return AttrBinning(kind="numeric", integer=integer,
                       boundaries=np.array(attr_domain.boundaries, dtype=np.float64),
                       attr_domain_id=attr_domain.id)


@dataclass
class TKHist2D:
    """Grid of row counts over aligned key bins x attribute bins."""

    key_domain: KeyDomain
    attr: AttrBinning
    grid: np.ndarray  # shape (key bins, attr bins), int64

    def insert(self, key, attr_value) -> None:
        i = self.key_domain.bin_of(key)
        j = self.attr.bin_of(attr_value)
        if j is None:
            j = self.attr.add_value(attr_value)
            self.grid = np.hstack(
                [self.grid, np.zeros((self.grid.shape[0], 1), dtype=np.int64)])
        self.grid[i, j] += 1

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
    keys = key_values[keep]
    attrs = attr_values[keep]
    grid = np.zeros((domain.bin_count, binning.n_bins), dtype=np.int64)
    if len(keys) == 0:
        return TKHist2D(key_domain=domain, attr=binning, grid=grid)
    ki = domain.bins_of(keys)
    if binning.kind == "categorical":
        distinct, inverse = np.unique(attrs, return_inverse=True)
        distinct = distinct.tolist()
        lookup = [binning.bin_of(a) for a in distinct]
        if None in lookup:
            missing = distinct[lookup.index(None)]
            raise TKHistError(
                f"categorical value {missing!r} missing from binning")
        aj = np.asarray(lookup, dtype=np.int64)[inverse]
    else:
        lo = float(binning.boundaries[0])
        hi = float(binning.boundaries[-1])
        n = binning.n_bins
        aj = np.floor((np.asarray(attrs, dtype=np.float64) - lo)
                      / ((hi - lo) / n)).astype(np.int64)
        aj = np.clip(aj, 0, n - 1)
    np.add.at(grid, (ki, aj), 1)
    return TKHist2D(key_domain=domain, attr=binning, grid=grid)


def build_frequency_hist(values, null_mask: np.ndarray | None = None) -> dict:
    """Exact per-distinct-value counts for a categorical column."""
    if null_mask is not None:
        values = values[~null_mask]
    return {(_scalar(v)): int(c) for v, c in Counter(values.tolist()).items()}
