import numpy as np
import pytest

from tkhist.catalog import infer_key_domains
from tkhist.errors import TKHistError
from tkhist.state import ingest_all
from tkhist.synth import (SyntheticSpec, _key_layout, generate_synthetic,
                          write_benchmark, zipf_keys)


def reference_key_layout(spec):
    """The layout rule `_key_layout` replaced, one branch per layout, with
    the mixed layout's star of three."""
    names = [f"t{i}" for i in range(1, spec.tables + 1)]
    cols = {t: [] for t in names}
    edges = []
    if spec.layout == "star":
        for t in names:
            cols[t].append("k1")
        for t in names[1:]:
            edges.append((f"{t}.k1", f"{names[0]}.k1"))
    elif spec.layout == "chain":
        for i, t in enumerate(names):
            if i > 0:
                cols[t].append(f"k{i}")
            if i < len(names) - 1:
                cols[t].append(f"k{i + 1}")
        for i in range(len(names) - 1):
            edges.append((f"{names[i + 1]}.k{i + 1}", f"{names[i]}.k{i + 1}"))
    else:
        w = min(3, spec.tables)
        for t in names[:w]:
            cols[t].append("k1")
        for t in names[1:w]:
            edges.append((f"{t}.k1", f"{names[0]}.k1"))
        for j, t in enumerate(names[w:], start=2):
            prev = names[w + j - 3] if j > 2 else names[w - 1]
            cols[prev].append(f"k{j}")
            cols[t].append(f"k{j}")
            edges.append((f"{t}.k{j}", f"{prev}.k{j}"))
    return cols, edges


class TestZipf:
    def test_bounded_and_skewed(self, rng):
        keys = zipf_keys(rng, 20_000, distinct=100, s=1.2)
        assert keys.min() >= 1 and keys.max() <= 100
        counts = np.bincount(keys)
        assert counts[1] > counts[50] > 0  # rank-1 far heavier than rank-50

    def test_deterministic(self):
        a = zipf_keys(np.random.default_rng(3), 100, 50, 1.0)
        b = zipf_keys(np.random.default_rng(3), 100, 50, 1.0)
        assert (a == b).all()


class TestLayouts:
    def test_star_one_domain(self):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=4, rows=100, layout="star"), seed=0)
        domains = infer_key_domains(schema)
        assert len(domains) == 1
        assert len(domains[0].columns) == 4

    def test_chain_domains(self):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=4, rows=100, layout="chain"), seed=0)
        domains = infer_key_domains(schema)
        assert len(domains) == 3
        assert all(len(d.columns) == 2 for d in domains)

    def test_mixed_star_then_chain(self):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=5, rows=100, layout="mixed"), seed=0)
        domains = infer_key_domains(schema)
        sizes = sorted(len(d.columns) for d in domains)
        assert sizes == [2, 2, 3]  # k1 star of 3, two chain links
        # the template covers every FK edge
        assert len(schema.templates[0]) == len(schema.foreign_keys)

    def test_correlated_attribute_tracks_key(self):
        spec = SyntheticSpec(tables=2, rows=500, correlated=True,
                             noise_span=5, distinct_keys=50)
        _, tables = generate_synthetic(spec, seed=1)
        t = tables["t1"]
        diff = t.columns["y"] - t.columns["k1"]
        assert (diff >= 0).all() and (diff < 5).all()

    def test_generation_is_deterministic(self):
        spec = SyntheticSpec(tables=3, rows=200)
        _, a = generate_synthetic(spec, seed=11)
        _, b = generate_synthetic(spec, seed=11)
        assert (a["t2"].columns["k1"] == b["t2"].columns["k1"]).all()

    @pytest.mark.parametrize("tables", range(2, 9))
    @pytest.mark.parametrize("layout", ["star", "chain", "mixed"])
    def test_one_star_width_rule_matches_the_reference(self, layout, tables):
        """Each table's key columns, in generation order, and the FK edges
        are those of the per-layout rule."""
        spec = SyntheticSpec(tables=tables, layout=layout)
        cols, edges = _key_layout(spec)
        ref_cols, ref_edges = reference_key_layout(spec)
        assert list(cols.items()) == list(ref_cols.items())
        assert edges == ref_edges

    def test_invalid_spec_rejected(self):
        with pytest.raises(TKHistError):
            SyntheticSpec(layout="ring")
        with pytest.raises(TKHistError):
            SyntheticSpec(tables=1)


class TestWriteBenchmark:
    def test_written_csvs_reingest_identically(self, tmp_path):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=3, rows=150), seed=2)
        path = write_benchmark(schema, tables, str(tmp_path / "bench"))
        from tkhist.catalog import load_schema
        schema2 = load_schema(path)
        tables2 = ingest_all(schema2)
        for name, data in tables.items():
            again = tables2[name]
            assert again.row_count == data.row_count
            for col in data.columns:
                assert (again.columns[col] == data.columns[col]).all()
