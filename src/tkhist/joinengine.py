"""Bin-wise join of top-k histograms and composition across star groups.

A key index (`KeyIndex`) holds, for one key domain, the sorted union of the
container keys of every 1D histogram over it, each key's bin, and each
histogram's positions in that union.  A composite histogram holds, per
index key, a float64 join factor and a dominance flag, and per bin three
float64 arrays: background mass, background NDV and a scale (None for all
ones) that multiplies the factor of every key of the bin.  A dominant
key's scaled factor is its mass; any other key's is its bin's background
average frequency BAC = background / NDV (zero where NDV is zero).  A
binary join of two composites over one index is then two passes over the
keys: the scaled factors multiply and the dominance flags combine by `or`.
Keys dominant on both sides multiply exactly, and a key dominant on one
side only meets the other side's BAC.  The two backgrounds combine with
the Selinger formula, and background NDV propagates as the minimum of the
two sides, which keeps the Selinger formula applicable recursively to
intermediate results; the joined BAC, background / NDV, is then
BAC_a * BAC_b, which is what a key dominant on neither side carries.  A
key's mass is its scaled factor where it is dominant, else zero.  Each
bin's keys are one slice of the sorted index, so a bin's dominant mass is
one `np.add.reduceat` segment sum of the unscaled masses, times the bin's
scale; numpy adds a segment as its first key plus the pairwise sum of the
rest, which can differ from a key-by-key sum in the last bit.

A composite with no dominant key is per bin only: its key arrays are the
index's shared all-ones factors and all-False flags, and its scale is each
bin's BAC.  Chain translation returns one, and its join with a composite
that is not per bin skips the key passes: it keeps the other side's key
arrays and takes the per-bin operand's BAC as its scale.

Filters and correlation-based key exclusion are applied once, when the
estimator lifts each table's histogram; the functions here only compose
composites.  A bridge table's row-normalised key-pair grid (`Bridge`) is
what carries a composite onto a second key domain.
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
    most = np.maximum(ndv_a, ndv_b)
    return np.divide(nv_a * nv_b, most, out=np.zeros(np.shape(most)),
                     where=(ndv_a > 0) & (ndv_b > 0))


class KeyIndex:
    """The sorted union `keys` of the container keys of one domain's
    histograms (each array sorted and distinct), each key's bin (`bins`),
    and each histogram's container keys' positions in `keys` (`positions`,
    by the histogram's name).  The bins are equi-width key ranges, so
    `bins` never decreases and each non-empty bin (`filled`) holds one
    slice of `keys`, from its entry of `starts`.

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
        # reduceat would give an empty bin its next key: skip empty bins
        starts = np.searchsorted(self.bins, np.arange(domain.bin_count))
        self.filled = np.flatnonzero(np.diff(starts, append=len(keys)))
        self.starts = starts[self.filled]
        # the key arrays of every composite that is per bin only
        self.ones = np.ones(len(keys))
        self.no_keys = np.zeros(len(keys), dtype=bool)
        for array in (self.ones, self.no_keys):
            array.flags.writeable = False


@dataclass(eq=False)
class CompositeHist:
    """Per key of `index`, a float64 join factor and a boolean dominance
    flag; per bin, float64 background mass and NDV, and a float64 `scale`
    (None for 1) that multiplies the factor of each of its keys.  A
    dominant key's scaled factor is its mass; any other key's is its bin's
    BAC.  A composite is per bin only when its key arrays are the index's
    `ones` and `no_keys`: no key is dominant and `scale` is each bin's BAC.
    """

    index: KeyIndex
    factor: np.ndarray
    dominant: np.ndarray
    background: np.ndarray
    ndv: np.ndarray
    scale: np.ndarray | None = None

    @property
    def domain(self) -> KeyDomain:
        return self.index.domain

    @property
    def per_bin(self) -> bool:
        return (self.factor is self.index.ones
                and self.dominant is self.index.no_keys)

    def key_factors(self) -> np.ndarray:
        """Each key's factor times its bin's scale."""
        if self.scale is None:
            return self.factor
        return self.factor * self.scale.take(self.index.bins)

    @property
    def mass(self) -> np.ndarray:
        """The dominant mass per key: its scaled factor, zero where not
        dominant."""
        return self.key_factors() * self.dominant

    def bin_totals(self) -> np.ndarray:
        """Each bin's background plus its keys' dominant mass, the scale
        applied once per bin, after the segment sum."""
        totals = self.background.copy()
        sums = np.add.reduceat(self.factor * self.dominant, self.index.starts)
        if self.scale is not None:
            sums *= self.scale[self.index.filled]
        totals[self.index.filled] += sums
        return totals

    def total(self) -> float:
        return sum(self.bin_totals().tolist())


def _bac(background: np.ndarray, ndv: np.ndarray) -> np.ndarray:
    """Per-bin background average frequency; zero where NDV is zero."""
    return np.divide(background, ndv, out=np.zeros(np.shape(ndv)),
                     where=ndv > 0)


def composite(index: KeyIndex, dominant: np.ndarray,
              mass: np.ndarray | float, background: np.ndarray,
              ndv: np.ndarray) -> CompositeHist:
    """The composite whose keys flagged in `dominant` are dominant, each at
    its `mass`; every other key's factor is its bin's BAC."""
    return CompositeHist(
        index=index, dominant=dominant,
        factor=np.where(dominant, mass,
                        _bac(background, ndv).take(index.bins)),
        background=background, ndv=ndv)


def identity_lift(hist: TKHist1D, index: KeyIndex, name) -> CompositeHist:
    """Identity lift of the built histogram that `index` lists as `name`:
    its container counts, scattered onto the index keys.  Its arrays are
    read-only, so that the lift can be shared: a caller copies what it
    changes."""
    mass = np.zeros(len(index.keys))
    mass[index.positions[name]] = hist.topk_counts
    comp = composite(index, mass > 0, mass, hist.nv.astype(np.float64),
                     hist.ndv.astype(np.float64))
    for array in (comp.factor, comp.dominant, comp.background, comp.ndv):
        array.flags.writeable = False
    return comp


def jtkh_join(a: CompositeHist, b: CompositeHist) -> CompositeHist:
    """Bin-wise binary join of two composites over one key index: the
    factors multiply key by key and the dominance flags combine by `or`;
    a key dominant on neither side carries BAC_a * BAC_b, its joined bin's
    BAC.  An operand that is per bin only, beside one that is not, joins
    by its scale alone: the other side's key arrays are reused, and where
    that side has a scale too, it is first multiplied into its factors, so
    that each key's mass is the product of the same factors in the same
    order."""
    if a.index is not b.index:
        raise DomainMismatchError(
            f"cannot join histograms over domains {a.domain.id!r} "
            f"and {b.domain.id!r}: not one key index")
    if a.per_bin != b.per_bin:
        by_bin, keyed = (a, b) if a.per_bin else (b, a)
        factor, dominant = keyed.key_factors(), keyed.dominant
        scale = by_bin.scale
    else:
        factor = a.key_factors() * b.key_factors()
        dominant, scale = a.dominant | b.dominant, None
    return CompositeHist(
        index=a.index, factor=factor, dominant=dominant, scale=scale,
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
    """Scale per-bin background mass by the per-bin filter selectivity, and
    with it the factor of every key that is not dominant, its bin's BAC.

    Dominant entries keep their full weight: retained join paths are handled
    exclusively through correlation-based exclusion, and scaling them here
    would double-count that correction.  The result shares the input's
    dominance flags.
    """
    if len(fractions) != len(comp.background):
        raise DomainMismatchError("selectivity length does not match bin count")
    return composite(comp.index, comp.dominant, comp.key_factors(),
                     comp.background * fractions, comp.ndv)


@dataclass(eq=False)
class Bridge:
    """A bridge table between two key domains, as a chain translation reads
    it: the share of each source bin's rows that fall in each target bin
    (`weights`, source bins by target bins), and each target bin's NDV, its
    background NDV plus its container count, in the bridge table's
    histogram over the target key column."""

    source: str  # the domain ids
    target: str
    weights: np.ndarray
    ndv: np.ndarray


def bridge_weights(bridge: TKHist2D, target_hist: TKHist1D) -> Bridge:
    """The `Bridge` of a bridge table's grid from its source key column to
    its target key column, whose 1D histogram is `target_hist`."""
    if bridge.attr.id != target_hist.domain.id:
        raise DomainMismatchError(
            "bridge attribute axis and target histogram are not over one "
            "key domain")
    marginal = bridge.key_marginal().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(marginal[:, None] > 0,
                           bridge.grid / np.maximum(marginal[:, None], 1e-300),
                           0.0)
    ndv = (target_hist.ndv + np.diff(target_hist.topk_offsets)
           ).astype(np.float64)
    return Bridge(source=bridge.key_domain.id, target=target_hist.domain.id,
                  weights=weights, ndv=ndv)


def chain_translate(comp: CompositeHist, bridge: Bridge,
                    index: KeyIndex) -> CompositeHist:
    """Carry a composite across a bridge onto its target key domain, whose
    key index is `index`.

    Each source bin's estimate is distributed over target bins by the
    bridge's weights.  Dominant keys do not cross a chain boundary: source
    keys are meaningless on the target domain, so no key of the output is
    dominant and it carries background mass only.  Per-bin NDV is the
    bridge's, where the bin receives mass.  The output is per bin only: its
    key arrays are the index's shared `ones` and `no_keys`, and its scale
    is each target bin's BAC.
    """
    if comp.domain.id != bridge.source:
        raise DomainMismatchError(
            f"composite domain {comp.domain.id!r} does not match bridge "
            f"source domain {bridge.source!r}")
    if bridge.target != index.domain.id:
        raise DomainMismatchError(
            f"bridge target domain {bridge.target!r} does not match key "
            f"index domain {index.domain.id!r}")
    out = comp.bin_totals() @ bridge.weights
    ndv = np.where(out > 0, bridge.ndv, 0.0)
    return CompositeHist(index=index, factor=index.ones,
                         dominant=index.no_keys, background=out, ndv=ndv,
                         scale=_bac(out, ndv))
