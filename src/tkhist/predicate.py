"""Filter predicates and per-key-bin selectivity.

Selectivity against a 2D histogram conditions on the key bin: each key bin's
fraction is the share of its row mass falling in attribute bins satisfied by
the predicate.  Attribute bins only partially covered by a range contribute
linearly interpolated mass (uniformity within a bin).  Conditional on the key
bin, selectivities of different attributes multiply.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TKHistError
from .histcore import TKHist2D
from .catalog import KeyDomain

OPS = ("=", "<", "<=", ">", ">=", "between", "in")

_INF = float("inf")


@dataclass(frozen=True)
class Predicate:
    column: str  # "alias.column" in queries, bare column name at module level
    op: str
    value: object  # scalar, (lo, hi) for between, frozenset for in

    def __post_init__(self):
        if self.op not in OPS:
            raise TKHistError(f"unknown predicate operator {self.op!r}")
        if self.op == "between":
            lo, hi = self.value
            if lo > hi:
                raise TKHistError(f"BETWEEN bounds out of order: {lo} > {hi}")


def matches(pred: Predicate, v) -> bool:
    """Exact row-level predicate evaluation (null values never match)."""
    if v is None:
        return False
    op = pred.op
    if op == "=":
        return v == pred.value
    if op == "<":
        return v < pred.value
    if op == "<=":
        return v <= pred.value
    if op == ">":
        return v > pred.value
    if op == ">=":
        return v >= pred.value
    if op == "between":
        lo, hi = pred.value
        return lo <= v <= hi
    return v in pred.value  # in


def satisfying_intervals(pred: Predicate, integer: bool) -> list[tuple[float, float]]:
    """Half-open real intervals covering the values accepted by a predicate.

    Integer columns treat a value v as the unit cell [v, v+1) so equality and
    inclusive bounds carry mass under within-bin interpolation.
    """
    op, val = pred.op, pred.value
    if op == "=":
        return [(val, val + 1)] if integer else [(val, val)]
    if op == "<":
        return [(-_INF, val)]
    if op == "<=":
        return [(-_INF, val + 1)] if integer else [(-_INF, val)]
    if op == ">":
        return [(val + 1, _INF)] if integer else [(val, _INF)]
    if op == ">=":
        return [(val, _INF)]
    if op == "between":
        lo, hi = val
        return [(lo, hi + 1)] if integer else [(lo, hi)]
    # in-set on a numeric column: union of point/unit cells
    cells = sorted(val)
    if integer:
        return [(v, v + 1) for v in cells]
    return [(v, v) for v in cells]


def _overlap_fraction(lo: float, hi: float,
                      intervals: list[tuple[float, float]]) -> float:
    width = hi - lo
    if width <= 0:
        return 0.0
    covered = 0.0
    for a, b in intervals:
        covered += max(0.0, min(b, hi) - max(a, lo))
    return min(covered / width, 1.0)


@dataclass
class BinSelectivity:
    """Per key-bin selectivity fractions, all in [0, 1]."""

    fractions: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.fractions, dtype=np.float64)
        if len(f) and (f.min() < 0 or f.max() > 1):
            raise TKHistError("selectivity fractions must lie in [0, 1]")
        self.fractions = f

    def __len__(self):
        return len(self.fractions)


def selectivity_2d(hist2d: TKHist2D, pred: Predicate) -> BinSelectivity:
    """Per key-bin fraction of mass satisfying the predicate.

    Key bins with zero row mass yield the neutral fraction 1.
    """
    binning = hist2d.attr
    if binning.kind == "categorical":
        sat = np.array([1.0 if matches(pred, v) else 0.0 for v in binning.values])
    else:
        if pred.op == "in" and any(isinstance(v, str) for v in pred.value):
            raise TKHistError("string set predicate against numeric attribute")
        intervals = satisfying_intervals(pred, binning.integer)
        sat = np.array([_overlap_fraction(*binning.interval(j), intervals)
                        for j in range(binning.n_bins)])
    mass = hist2d.grid.sum(axis=1).astype(np.float64)
    hit = hist2d.grid @ sat
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(mass > 0, hit / np.maximum(mass, 1e-300), 1.0)
    return BinSelectivity(np.clip(frac, 0.0, 1.0))


def combine_table_selectivity(fractions: list[BinSelectivity]) -> BinSelectivity:
    """Product of per-bin conditionals (conditional independence on the key)."""
    if not fractions:
        raise TKHistError("need at least one selectivity to combine")
    n = len(fractions[0])
    out = np.ones(n)
    for f in fractions:
        if len(f) != n:
            raise TKHistError("selectivity length mismatch")
        out = out * f.fractions
    return BinSelectivity(out)


def key_bin_fractions(domain: KeyDomain, pred: Predicate,
                      integer: bool) -> np.ndarray:
    """Per-bin overlap fraction of a predicate applied to the key column itself."""
    intervals = satisfying_intervals(pred, integer)
    return np.array([_overlap_fraction(*domain.bin_interval(i), intervals)
                     for i in range(domain.bin_count)])
