"""Bin-wise join of top-k histograms and composition across star groups.

A key index (`KeyIndex`) holds, for one key domain, the sorted union of the
container keys of every 1D histogram over it, each key's bin, and each
histogram's positions in that union.  A composite histogram holds a float64
dominant mass per index key, zero where the key is not dominant, and two
float64 arrays per bin: background mass and background NDV.  A binary join
combines two composites over one index, key by key and bin by bin: keys
dominant on both sides multiply exactly; a key dominant on one side only
joins the other side's background at its bin's average frequency BAC =
background / NDV; the two backgrounds combine with the Selinger formula,
and background NDV propagates as the minimum of the two sides, which keeps
the Selinger formula applicable recursively to intermediate results.  Every
step is whole-array arithmetic; a bin's dominant mass is one `np.bincount`
of the mass by the keys' bins.

Filters and correlation-based key exclusion are applied once, when the
estimator lifts each table's histogram; the functions here only compose
composites.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .catalog import KeyDomain
from .errors import DomainMismatchError, TKHistError
from .histcore import TKHist1D, TKHist2D, merge_sorted


def selinger_bin_estimate(nv_a, ndv_a, nv_b, ndv_b) -> np.ndarray:
    """|A|*|B| / max(NDV_A, NDV_B) per bin; zero where either side is empty."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((ndv_a > 0) & (ndv_b > 0),
                        nv_a * nv_b / np.maximum(ndv_a, ndv_b), 0.0)


class KeyIndex:
    """The sorted union `keys` of the container keys of one domain's
    histograms (each array sorted and distinct), each key's bin (`bins`),
    and each histogram's container keys' positions in `keys` (`positions`,
    by the histogram's name).

    Keys match by value, as Python compares them: an INTEGER 3 and a REAL
    3.0 are one key, 2**53 + 1 and 2.0**53 two.  Arrays of one numeric
    dtype give `keys` of that dtype; mixed kinds are sorted and matched in
    Python, where numpy would compare them through float64, and give an
    object array holding each key as the first array that has it does.
    """

    def __init__(self, domain: KeyDomain, key_arrays: dict):
        self.domain = domain
        arrays = list(key_arrays.values())
        if len({a.dtype for a in arrays}) == 1 and arrays[0].dtype != object:
            keys = reduce(merge_sorted, arrays)
            pos = [np.searchsorted(keys, a) for a in arrays]
        else:
            union = sorted(set().union(*(a.tolist() for a in arrays)))
            at = {k: i for i, k in enumerate(union)}
            pos = [np.array([at[k] for k in a.tolist()], dtype=np.int64)
                   for a in arrays]
            keys = np.array(union, dtype=object)
        self.keys = keys
        self.bins = domain.bins_of(keys)
        self.positions = dict(zip(key_arrays, pos))


@dataclass(eq=False)
class CompositeHist:
    """A float64 dominant mass per key of `index`, zero for a key that is
    not dominant, and float64 background mass and NDV per bin."""

    index: KeyIndex
    mass: np.ndarray
    background: np.ndarray
    ndv: np.ndarray

    @property
    def domain(self) -> KeyDomain:
        return self.index.domain

    def bin_totals(self) -> np.ndarray:
        return self.background + np.bincount(
            self.index.bins, weights=self.mass, minlength=len(self.background))

    def total(self) -> float:
        return sum(self.bin_totals().tolist())


def _bac(comp: CompositeHist) -> np.ndarray:
    """Per-bin background average frequency; zero where NDV is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(comp.ndv > 0, comp.background / comp.ndv, 0.0)


def lift(hist: TKHist1D, index: KeyIndex, name) -> CompositeHist:
    """Identity lift of the built histogram that `index` lists as `name`:
    its container counts, scattered onto the index keys."""
    mass = np.zeros(len(index.keys))
    mass[index.positions[name]] = hist.topk_counts
    return CompositeHist(index=index, mass=mass,
                         background=hist.nv.astype(np.float64),
                         ndv=hist.ndv.astype(np.float64))


def jtkh_join(a: CompositeHist, b: CompositeHist) -> CompositeHist:
    """Bin-wise binary join of two composites over one key index.  With A
    and B a key's two dominant masses, its joined mass is
    (A + BAC_a·[A=0]) · (B + BAC_b·[B=0]) · [A>0 ∨ B>0], taken as
    arithmetic on 0/1 factors rather than as branches: each factor of 0 or
    1 leaves a finite value exact."""
    if a.index is not b.index:
        raise DomainMismatchError(
            f"cannot join histograms over domains {a.domain.id!r} "
            f"and {b.domain.id!r}: not one key index")
    bins, A, B = a.index.bins, a.mass, b.mass
    mass = ((A + _bac(a).take(bins) * (A == 0))
            * (B + _bac(b).take(bins) * (B == 0)) * ((A > 0) | (B > 0)))
    return CompositeHist(
        index=a.index, mass=mass,
        background=selinger_bin_estimate(a.background, a.ndv,
                                         b.background, b.ndv),
        ndv=np.minimum(a.ndv, b.ndv))


def join_star_group(hists: list[CompositeHist]) -> CompositeHist:
    """Left-fold of binary joins over composites sharing one key index."""
    if not hists:
        raise TKHistError("empty star group")
    acc = hists[0]
    for h in hists[1:]:
        acc = jtkh_join(acc, h)
    return acc


def apply_filters(comp: CompositeHist,
                  fractions: np.ndarray) -> CompositeHist:
    """Scale per-bin background mass by the per-bin filter selectivity.

    Dominant entries keep their full weight: retained join paths are handled
    exclusively through correlation-based exclusion, and scaling them here
    would double-count that correction.  The result shares the input's
    dominant mass.
    """
    if len(fractions) != len(comp.background):
        raise DomainMismatchError("selectivity length does not match bin count")
    return CompositeHist(index=comp.index, mass=comp.mass,
                         background=comp.background * fractions, ndv=comp.ndv)


def chain_translate(comp: CompositeHist, bridge: TKHist2D,
                    target_hist: TKHist1D, index: KeyIndex) -> CompositeHist:
    """Carry a composite across a bridge table onto a second key domain,
    whose key index is `index`.

    Each source bin's estimate is distributed over target bins proportionally
    to the bridge table's key-pair co-occurrence grid.  Dominant keys do not
    cross a chain boundary: source keys are meaningless on the target domain,
    so the output's dominant mass is zero and it carries background mass
    only.  Per-bin NDV comes from the bridge's histogram over the target key
    column.
    """
    if comp.domain.id != bridge.key_domain.id:
        raise DomainMismatchError(
            f"composite domain {comp.domain.id!r} does not match bridge "
            f"key domain {bridge.key_domain.id!r}")
    if not bridge.attr.id == target_hist.domain.id == index.domain.id:
        raise DomainMismatchError(
            "bridge attribute axis, target histogram and key index are not "
            "over one key domain")
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    out = comp.bin_totals() @ weights
    ndv = (target_hist.ndv + np.diff(target_hist.topk_offsets)
           ).astype(np.float64)
    return CompositeHist(index=index, mass=np.zeros(len(index.keys)),
                         background=out, ndv=np.where(out > 0, ndv, 0.0))
