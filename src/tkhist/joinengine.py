"""Bin-wise join of top-k histograms and composition across star groups.

A composite histogram holds, per bin, a dominant map (key -> estimated
count) and two float64 arrays: background mass and background NDV.  A binary
join combines two composites bin by bin: keys present in both dominant maps
multiply exactly; a key present on one side only joins the other side's
background at its average frequency BAC = background / NDV; the two
backgrounds combine with the Selinger formula, and background NDV propagates
as the minimum of the two sides, which keeps the Selinger formula applicable
recursively to intermediate results.  The background and NDV arithmetic runs
on whole arrays; only the dominant maps are walked key by key.  A lifted
composite's dominant maps are its histogram's `bins` container views (int
counts); every map is read-only.

A join's own maps are built only when something reads them: the next join
of a star fold, or discovery.  A join whose maps are unbuilt sums each
bin's dominant mass straight from its two operands, one pass over the
smaller map, and that mass is all `bin_totals` and `total` need.  The star
fold sums it for its last join, so the last join of a group, whose total
is an estimate or is carried across a bridge, builds no map.

Filters and correlation-based key exclusion are applied once, when the
estimator lifts each table's histogram; the functions here only compose
composites.
"""
from __future__ import annotations

from itertools import repeat
from operator import mul

import numpy as np

from .catalog import KeyDomain
from .errors import DomainMismatchError, TKHistError
from .histcore import TKHist1D, TKHist2D


def selinger_bin_estimate(nv_a, ndv_a, nv_b, ndv_b) -> np.ndarray:
    """|A|*|B| / max(NDV_A, NDV_B) per bin; zero where either side is empty."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((ndv_a > 0) & (ndv_b > 0),
                        nv_a * nv_b / np.maximum(ndv_a, ndv_b), 0.0)


class CompositeHist:
    """Per bin: a dominant map and float64 background mass and NDV arrays.

    The maps are read-only, possibly a built histogram's own container
    dicts (int counts).  A join holds its two operands instead until
    `dominant` is first read, which builds its maps from them and drops
    them; `bin_totals` sums an unbuilt join's per-bin dominant mass from
    its operands, once, and builds no map.
    """

    def __init__(self, domain: KeyDomain, dominant: list[dict] | None,
                 background: np.ndarray, ndv: np.ndarray):
        self.domain = domain
        self.background = background  # float64 per bin
        self.ndv = ndv  # float64 per bin
        self._maps = dominant
        self._operands = None  # a join's (a, b) until its maps exist
        self._mass = None  # an unbuilt join's per-bin dominant mass, once read

    @property
    def dominant(self) -> list[dict]:
        """Per bin: key -> estimated joined count."""
        if self._maps is None:
            self.dominant = _joined_maps(*self._operands)
        return self._maps

    @dominant.setter
    def dominant(self, maps: list[dict]) -> None:
        self._maps, self._operands, self._mass = maps, None, None

    def bin_totals(self) -> np.ndarray:
        if self._maps is not None:
            return self.background + np.array(
                [sum(d.values()) for d in self._maps], dtype=np.float64)
        if self._mass is None:
            self._mass = _joined_mass(*self._operands)
        return self.background + self._mass

    def total(self) -> float:
        return sum(self.bin_totals().tolist())


def _bac(comp: CompositeHist) -> list[float]:
    """Per-bin background average frequency; zero where NDV is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(comp.ndv > 0, comp.background / comp.ndv, 0.0).tolist()


def lift(hist: TKHist1D) -> CompositeHist:
    """Identity lift of a built histogram.  The dominant maps are its `bins`
    views' container dicts (int counts), shared by every lift: read-only, so
    a caller that edits one copies it."""
    return CompositeHist(
        domain=hist.domain,
        dominant=[b.topk for b in hist.bins],
        background=hist.nv.astype(np.float64),
        ndv=hist.ndv.astype(np.float64))


def _check_same_domain(a: CompositeHist, b: CompositeHist) -> None:
    if a.domain.id != b.domain.id or a.domain.bin_count != b.domain.bin_count:
        raise DomainMismatchError(
            f"cannot join histograms over domains {a.domain.id!r} "
            f"and {b.domain.id!r}")


def jtkh_join(a: CompositeHist, b: CompositeHist) -> CompositeHist:
    """Bin-wise binary join of two lifted top-k histograms.  The result
    holds its operands: its maps are built, or its mass is summed, when
    first read."""
    _check_same_domain(a, b)
    out = CompositeHist(
        domain=a.domain, dominant=None,
        background=selinger_bin_estimate(a.background, a.ndv,
                                         b.background, b.ndv),
        ndv=np.minimum(a.ndv, b.ndv))
    out._operands = (a, b)
    return out


def _joined_maps(a: CompositeHist, b: CompositeHist) -> list[dict]:
    """Per bin, the joined dominant map: a's keys in a's order, then the
    keys b alone holds; a zero product is dropped."""
    dominant = []
    for da, db, bac_a, bac_b in zip(a.dominant, b.dominant, _bac(a), _bac(b)):
        dom = {k: est for k, ca in da.items()
               if (est := ca * db.get(k, bac_b)) > 0}
        if bac_a:  # else every b-only product is zero and dropped
            dom |= {k: est for k, cb in db.items()
                    if k not in da and (est := cb * bac_a) > 0}
        dominant.append(dom)
    return dominant


def _joined_mass(a: CompositeHist, b: CompositeHist) -> np.ndarray:
    """Per bin, the sum of the map `_joined_maps` builds, without building
    it.  With S the smaller of the two maps and L the larger, that sum is
    sum(S[k] * L.get(k, BAC_L) for k in S) + BAC_S * sum(L[k] for k in L
    not in S): one pass over S, and only when BAC_S is non-zero a sum over
    L's own keys.  That sum is not taken as sum(L) less L's part of the
    keys S holds, which could cancel to a float residue where the two
    key sets are nearly equal; every term here is non-negative."""
    mass = []
    for ds, dl, bac_s, bac_l in zip(a.dominant, b.dominant, _bac(a), _bac(b)):
        if len(ds) > len(dl):
            ds, dl, bac_s, bac_l = dl, ds, bac_l, bac_s
        m = sum(map(mul, ds.values(), map(dl.get, ds, repeat(bac_l))))
        if bac_s:  # S is empty on a bridge-carried side: no set to build
            rest = (map(dl.__getitem__, dl.keys() - ds.keys()) if ds
                    else dl.values())
            m += bac_s * sum(rest)
        mass.append(m)
    return np.array(mass, dtype=np.float64)


def join_star_group(hists: list[CompositeHist]) -> CompositeHist:
    """Left-fold of binary joins over composites sharing one key domain.
    Each join reads the maps of the one before; the last join's mass is
    summed here, the only per-bin sum its readers need."""
    if not hists:
        raise TKHistError("empty star group")
    acc = hists[0]
    for h in hists[1:]:
        acc = jtkh_join(acc, h)
    acc.bin_totals()
    return acc


def apply_filters(comp: CompositeHist,
                  fractions: np.ndarray) -> CompositeHist:
    """Scale per-bin background mass by the per-bin filter selectivity.

    Dominant entries keep their full weight: retained join paths are handled
    exclusively through correlation-based exclusion, and scaling them here
    would double-count that correction.  The result shares the input's
    dominant maps.
    """
    if len(fractions) != len(comp.background):
        raise DomainMismatchError("selectivity length does not match bin count")
    return CompositeHist(domain=comp.domain, dominant=comp.dominant,
                         background=comp.background * fractions, ndv=comp.ndv)


def chain_translate(comp: CompositeHist, bridge: TKHist2D,
                    target_hist: TKHist1D) -> CompositeHist:
    """Carry a composite across a bridge table onto a second key domain.

    Each source bin's estimate is distributed over target bins proportionally
    to the bridge table's key-pair co-occurrence grid.  Dominant maps do not
    cross a chain boundary: source keys are meaningless on the target domain,
    so the output carries background mass only.  Per-bin NDV comes from the
    bridge's histogram over the target key column.
    """
    if comp.domain.id != bridge.key_domain.id:
        raise DomainMismatchError(
            f"composite domain {comp.domain.id!r} does not match bridge "
            f"key domain {bridge.key_domain.id!r}")
    if bridge.attr.id != target_hist.domain.id:
        raise DomainMismatchError(
            "bridge attribute axis is not binned over the target key domain")
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    out = comp.bin_totals() @ weights
    ndv = (target_hist.ndv + np.diff(target_hist.topk_offsets)
           ).astype(np.float64)
    return CompositeHist(domain=target_hist.domain,
                         dominant=[{} for _ in range(len(out))],
                         background=out, ndv=np.where(out > 0, ndv, 0.0))
