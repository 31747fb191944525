import numpy as np
import pytest

from tkhist.catalog import KeyDomain, TableData, schema_from_document, value_span
from tkhist.errors import DomainBoundsError
from tkhist.joinengine import KeyIndex, composite, identity_lift


def _scalar(v):
    """Normalize numpy scalars to plain Python ints/floats for use as dict keys."""
    return v.item() if isinstance(v, (np.integer, np.floating)) else v


def make_table(name: str, columns: dict, nulls: dict | None = None) -> TableData:
    """Build columnar TableData from plain lists; nulls maps column -> bool list."""
    cols = {}
    for cname, values in columns.items():
        if any(isinstance(v, str) for v in values):
            cols[cname] = np.asarray(values, dtype=object)
        elif any(isinstance(v, float) for v in values):
            cols[cname] = np.asarray(values, dtype=np.float64)
        else:
            cols[cname] = np.asarray(values, dtype=np.int64)
    n = len(next(iter(cols.values()))) if cols else 0
    null_mask = {c: np.zeros(n, dtype=bool) for c in cols}
    if nulls:
        for c, mask in nulls.items():
            null_mask[c] = np.asarray(mask, dtype=bool)
    return TableData(name=name, columns=cols, null_mask=null_mask, row_count=n)


def numeric_axis(values, n_bins: int) -> KeyDomain:
    """`n_bins` equi-width bins over the span of `values`: the memberless
    domain a build gives a numeric column outside every key domain."""
    axis = KeyDomain(id="axis", columns=frozenset())
    axis.set_boundaries(*value_span([np.asarray(values)]), n_bins)
    return axis


def categorical_axis(values) -> list:
    """The sorted distinct values, as a build gives a categorical column."""
    return sorted({_scalar(v) for v in values})


def scalar_bin(v, lo: float, hi: float, n: int) -> int:
    """The former scalar equi-width rule: int((v - lo) / w), w = (hi - lo) / n,
    clamped to [0, n - 1]."""
    idx = int((float(v) - lo) / ((hi - lo) / n))
    return min(max(idx, 0), n - 1)


def domain_bin(d, v) -> int:
    """The former `KeyDomain.bin_of`: the scalar rule, raising for a key
    outside [lo, hi]."""
    if float(v) < d.lo or float(v) > d.hi:
        raise DomainBoundsError(f"value {v!r} outside domain {d.id!r}")
    return scalar_bin(v, d.lo, d.hi, d.bin_count)


def attr_bin(axis, v) -> int | None:
    """The former `AttrBinning.bin_of`: the clamped scalar rule on a numeric
    axis; a value's place on a categorical one, None if it is not there."""
    if isinstance(axis, KeyDomain):
        return scalar_bin(v, axis.lo, axis.hi, axis.bin_count)
    v = _scalar(v)
    return axis.index(v) if v in axis else None


def envelope_dict(section) -> dict:
    """A correlation-map section as a dict in key order: key -> ("range",
    lo, hi) or ("set", frozenset of values)."""
    keys = section.keys.tolist()
    if section.values is not None:
        return {key: ("set", values)
                for key, values in zip(keys, section.values)}
    return {key: ("range", lo, hi) for key, lo, hi
            in zip(keys, section.lo.tolist(), section.hi.tolist())}


def correlations_of(cmap):
    """A correlation map as plain values: each section's key dtype and its
    `envelope_dict`."""
    if cmap is None:
        return None
    return {name: (sec.keys.dtype, envelope_dict(sec))
            for name, sec in cmap.items()}


def key_array(keys) -> np.ndarray:
    """Python numbers as a key array: int64 or float64 when they are of one
    kind, else an object array, which a key index sorts and matches in
    Python as it does the keys of a domain over both kinds."""
    kinds = {type(k) for k in keys}
    if kinds <= {int}:
        return np.array(keys, dtype=np.int64)
    return np.array(keys, dtype=np.float64 if kinds == {float} else object)


def composites_of(domain, *specs) -> list:
    """One composite per spec, all over one key index of `domain` that holds
    every key the specs name.  A spec is a list of per-bin (dominant map,
    background, NDV) triples; each key of a bin's map lies in that bin."""
    keys = sorted(dict.fromkeys(k for spec in specs for dom, _, _ in spec
                                for k in dom))
    index = KeyIndex(domain, {"keys": key_array(keys)})
    at = dict(zip(keys, index.positions["keys"].tolist()))
    comps = []
    for spec in specs:
        mass = np.zeros(len(index.keys))
        for i, (dom, _, _) in enumerate(spec):
            for key, m in dom.items():
                assert index.bins[at[key]] == i, f"key {key!r} not in bin {i}"
                mass[at[key]] = m
        comps.append(composite(
            index, mass > 0, mass,
            np.array([b[1] for b in spec], dtype=np.float64),
            np.array([b[2] for b in spec], dtype=np.float64)))
    return comps


def lifted(*hists) -> list:
    """Lifts of built histograms over one domain, over one key index of
    their containers."""
    index = KeyIndex(hists[0].domain,
                     {i: h.topk_keys for i, h in enumerate(hists)})
    return [identity_lift(h, index, i) for i, h in enumerate(hists)]


def maps_of(comp) -> list[dict]:
    """A composite's keys of non-zero mass as one map per bin, key -> mass,
    in key order: the per-bin form of its mass vector."""
    return _per_bin(comp, np.flatnonzero(comp.mass), comp.mass)


def dominant_maps(comp) -> list[dict]:
    """A composite's dominant keys as one map per bin, key -> factor, in
    key order, a factor of zero included."""
    return _per_bin(comp, np.flatnonzero(comp.dominant), comp.factor)


def _per_bin(comp, held, values) -> list[dict]:
    maps = [{} for _ in comp.background]
    for key, b, v in zip(comp.index.keys[held].tolist(),
                         comp.index.bins[held].tolist(),
                         values[held].tolist()):
        maps[b][key] = v
    return maps


def two_table_schema(extra_attrs: tuple[str, ...] = ("y",)):
    """r(k, attrs...) joined to s(k, attrs...) on k."""
    def table_doc(name):
        cols = [{"name": "k", "kind": "integer"}]
        cols += [{"name": a, "kind": "integer"}
                 for a in extra_attrs]
        return {"name": name, "file": f"{name}.csv", "columns": cols}

    doc = {
        "tables": [table_doc("r"), table_doc("s")],
        "foreign_keys": [{"from": "s.k", "to": "r.k"}],
        "templates": [["r.k=s.k"]],
    }
    return schema_from_document(doc)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
