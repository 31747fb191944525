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

from .errors import TKHistError, UnsupportedQueryError
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
            if isinstance(lo, str) != isinstance(hi, str):
                raise UnsupportedQueryError(
                    f"BETWEEN bounds {lo!r} and {hi!r} are not comparable")
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


def selectivity_2d(hist2d: TKHist2D, pred: Predicate, integer: bool,
                   rows: np.ndarray) -> np.ndarray:
    """Per key-bin fraction of `rows` satisfying the predicate; `integer`
    says whether the attribute column is INTEGER.

    `rows` counts each key bin's rows, a null attribute's included (the key
    column's 1D `bin_rows()`): the grid holds no row whose attribute is
    null, and a null never matches.  Key bins with no rows yield the
    neutral fraction 1.
    """
    axis = hist2d.attr
    if isinstance(axis, KeyDomain):
        sat = key_bin_fractions(axis, pred, integer)
    else:
        sat = np.array([1.0 if matches(pred, v) else 0.0 for v in axis])
    mass = np.asarray(rows, dtype=np.float64)
    hit = hist2d.grid @ sat
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(mass > 0, hit / np.maximum(mass, 1e-300), 1.0)
    return np.clip(frac, 0.0, 1.0)


def key_bin_fractions(axis: KeyDomain, pred: Predicate,
                      integer: bool) -> np.ndarray:
    """Share of each equi-width bin of `axis` covered by the predicate: bin
    i spans lo + i*w .. lo + (i+1)*w with w = (hi - lo) / bin_count, and its
    share is the summed overlap of the satisfying intervals over its width,
    capped at 1 (0 for a bin of no width)."""
    lo, n = axis.lo, axis.bin_count
    w = (axis.hi - lo) / n
    left, right = lo + np.arange(n) * w, lo + np.arange(1, n + 1) * w
    covered = np.zeros(n)
    for a, b in satisfying_intervals(pred, integer):
        covered += _overlaps(a, b, left, right)
    width = right - left
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(width > 0, np.minimum(covered / width, 1.0), 0.0)


def _overlaps(a, b, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """max(0.0, min(b, r) - max(a, l)) for each bin [l, r] of `left` and
    `right`, as Python computes it: fmax reads a NaN overlap as none, and a
    bound that is an int past 2**53, which float64 would round, is compared
    and subtracted exactly, a bin at a time."""
    if any(isinstance(v, int) and abs(v) > 2 ** 53 for v in (a, b)):
        return np.array([max(0.0, min(b, r) - max(a, le))
                         for le, r in zip(left.tolist(), right.tolist())])
    return np.fmax(0.0, np.minimum(b, right) - np.maximum(a, left))
