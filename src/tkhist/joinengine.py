"""Bin-wise join of top-k histograms and composition across star groups.

A binary join combines two histograms bin by bin: keys present in both
containers multiply exactly; a key present in only one container joins the
other side's background at its average frequency (BAC); the two backgrounds
combine with the Selinger formula.  Background NDV propagates as the minimum
of the two sides, which keeps the Selinger formula applicable recursively to
intermediate results.

Filters and correlation-based key exclusion are applied once, when the
estimator lifts each table's histogram; the functions here only compose
composites.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import KeyDomain
from .errors import DomainMismatchError, TKHistError
from .histcore import TKHist1D, TKHist2D


def selinger_bin_estimate(nv_a: float, ndv_a: float,
                          nv_b: float, ndv_b: float) -> float:
    """|A|*|B| / max(NDV_A, NDV_B); zero when either side is empty."""
    if ndv_a <= 0 or ndv_b <= 0:
        return 0.0
    return nv_a * nv_b / max(ndv_a, ndv_b)


def propagate_ndv(ndv_a: float, ndv_b: float) -> float:
    return min(ndv_a, ndv_b)


@dataclass
class CompositeBin:
    dominant: dict = field(default_factory=dict)  # key -> estimated joined count
    background_est: float = 0.0
    ndv_est: float = 0.0

    @property
    def bac_est(self) -> float:
        return self.background_est / self.ndv_est if self.ndv_est > 0 else 0.0

    def total(self) -> float:
        return self.background_est + sum(self.dominant.values())


@dataclass
class CompositeHist:
    domain: KeyDomain
    bins: list[CompositeBin]

    def total(self) -> float:
        return sum(b.total() for b in self.bins)

    def bin_totals(self) -> np.ndarray:
        return np.array([b.total() for b in self.bins])


def lift(hist: TKHist1D) -> CompositeHist:
    """Identity lift of a built histogram into the composite representation."""
    bins = [CompositeBin(dominant={k: float(c) for k, c in b.topk.items()},
                         background_est=float(b.nv),
                         ndv_est=float(b.ndv))
            for b in hist.bins]
    return CompositeHist(domain=hist.domain, bins=bins)


def _check_same_domain(a: CompositeHist, b: CompositeHist) -> None:
    if a.domain.id != b.domain.id or a.domain.bin_count != b.domain.bin_count:
        raise DomainMismatchError(
            f"cannot join histograms over domains {a.domain.id!r} "
            f"and {b.domain.id!r}")


def jtkh_join(a: CompositeHist, b: CompositeHist) -> CompositeHist:
    """Bin-wise binary join of two lifted top-k histograms."""
    _check_same_domain(a, b)
    out_bins = []
    for ba, bb in zip(a.bins, b.bins):
        dom: dict = {}
        bac_a, bac_b = ba.bac_est, bb.bac_est
        for key, ca in ba.dominant.items():
            cb = bb.dominant.get(key)
            est = ca * cb if cb is not None else ca * bac_b
            if est > 0:
                dom[key] = est
        for key, cb in bb.dominant.items():
            if key in ba.dominant:
                continue
            est = cb * bac_a
            if est > 0:
                dom[key] = est
        out_bins.append(CompositeBin(
            dominant=dom,
            background_est=selinger_bin_estimate(
                ba.background_est, ba.ndv_est, bb.background_est, bb.ndv_est),
            ndv_est=propagate_ndv(ba.ndv_est, bb.ndv_est)))
    return CompositeHist(domain=a.domain, bins=out_bins)


def join_star_group(hists: list[CompositeHist]) -> CompositeHist:
    """Left-fold of binary joins over composites sharing one key domain."""
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
    would double-count that correction.
    """
    if len(fractions) != len(comp.bins):
        raise DomainMismatchError("selectivity length does not match bin count")
    bins = [CompositeBin(dominant=dict(b.dominant),
                         background_est=b.background_est * float(frac),
                         ndv_est=b.ndv_est)
            for frac, b in zip(fractions, comp.bins)]
    return CompositeHist(domain=comp.domain, bins=bins)


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
    if bridge.attr.attr_domain_id != target_hist.domain.id:
        raise DomainMismatchError(
            "bridge attribute axis is not binned over the target key domain")
    totals = comp.bin_totals()
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    out = totals @ weights
    bins = []
    for j, mass in enumerate(out):
        tb = target_hist.bins[j]
        ndv = float(tb.ndv + len(tb.topk)) if mass > 0 else 0.0
        bins.append(CompositeBin(dominant={}, background_est=float(mass),
                                 ndv_est=ndv))
    return CompositeHist(domain=target_hist.domain, bins=bins)
