import json

import pytest

from tkhist.errors import StateError
from tkhist.estimator import discover_correlations, estimate
from tkhist.state import (BuildConfig, apply_rows, build_state, load_state,
                          save_state, state_from_document, state_to_document)
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import make_table, two_table_schema


@pytest.fixture
def built():
    schema = two_table_schema()
    tables = {"r": make_table("r", {"k": [1, 1, 2, 5, 9], "y": [3, 3, 4, 5, 6]}),
              "s": make_table("s", {"k": [1, 2, 2, 9], "y": [0, 1, 2, 3]})}
    state = build_state(schema, tables, BuildConfig(bin_count=4, top_k=1))
    return state, tables


class TestBuild:
    def test_domains_and_histograms_present(self, built):
        state, _ = built
        assert set(state.domains) == {"r.k"}
        assert set(state.hists1d) == {("r", "k"), ("s", "k")}
        assert ("r", "k", "y") in state.hists2d
        assert state.table_rows == {"r": 5, "s": 4}

    def test_categorical_freq_built(self, built):
        state, _ = built
        assert state.freq_hists[("r", "y")] == {3: 2, 4: 1, 5: 1, 6: 1}


class TestRoundTrip:
    def test_document_round_trip_preserves_estimates(self, built):
        state, tables = built
        discover_correlations(state, tables)
        doc = state_to_document(state)
        state2 = state_from_document(json.loads(json.dumps(doc)))
        sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"
        a = estimate(sql, state, use_djpcd=True).estimate
        b = estimate(sql, state2, use_djpcd=True).estimate
        assert a == b

    def test_save_is_byte_identical(self, built, tmp_path):
        state, _ = built
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        size = save_state(state, str(p1))
        save_state(state, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert size == len(p1.read_bytes())
        reloaded = load_state(str(p1))
        save_state(reloaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_synthetic_round_trip(self, tmp_path):
        schema, tables = generate_synthetic(
            SyntheticSpec(tables=3, rows=500, distinct_keys=50), seed=5)
        state = build_state(schema, tables, BuildConfig(bin_count=10, top_k=3))
        path = tmp_path / "st.json"
        save_state(state, str(path))
        state2 = load_state(str(path))
        sql = "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.k1 = t2.k1 AND t1.k1 = t3.k1"
        assert estimate(sql, state, False).estimate == \
            estimate(sql, state2, False).estimate


def reference_v1_document(state):
    """The version-1 serializer: per-bin objects for 1D histograms and
    dense nested-list grids.  Every other section is unchanged."""
    doc = state_to_document(state)
    doc["version"] = 1
    hists1d = {}
    for (t, c), h in sorted(state.hists1d.items()):
        bins = []
        for b in h.bins:
            topk = sorted(b.topk.items(), key=lambda kv: (-kv[1], kv[0]))
            bins.append({"topk": [[k, n] for k, n in topk],
                         "nv": b.nv,
                         "background": sorted(b.background)})
        hists1d[f"{t}.{c}"] = {"domain": h.domain.id, "k": h.k,
                               "total_rows": h.total_rows, "bins": bins}
    doc["hists1d"] = hists1d
    doc["hists2d"] = {f"{t}.{c}|{a}": {"domain": h.key_domain.id,
                                       "attr": doc["hists2d"][f"{t}.{c}|{a}"]["attr"],
                                       "grid": h.grid.tolist()}
                      for (t, c, a), h in sorted(state.hists2d.items())}
    return doc


MIXED_QUERIES = [
    "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
    "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 AND t3.k1 = t1.k1 "
    "AND t1.y < 20",
    "SELECT COUNT(*) FROM t3, t4, t5 WHERE t4.k2 = t3.k2 AND t5.k3 = t4.k3 "
    "AND t5.y BETWEEN 5 AND 30",
    "SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 AND t4.k2 = t3.k2 "
    "AND t3.y >= 10 AND t4.y <= 25",
]


@pytest.fixture
def mixed_state():
    """A correlated five-table state with a correlation map, after one
    batch that brings attribute values the build never saw."""
    spec = SyntheticSpec(tables=5, rows=400, layout="mixed",
                         distinct_keys=40, correlated=True)
    schema, tables = generate_synthetic(spec, seed=3)
    state = build_state(schema, tables, BuildConfig(bin_count=8, top_k=3))
    discover_correlations(state, tables)
    _, more = generate_synthetic(spec, seed=4)
    more["t3"].columns["y"] = more["t3"].columns["y"] + 1000
    apply_rows(state, "t3", more["t3"])
    return state


class TestFormat:
    def test_v1_document_loads_as_its_v2_save(self, mixed_state, tmp_path):
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(reference_v1_document(mixed_state)))
        from_v1 = load_state(str(v1))
        for name, h in mixed_state.hists1d.items():
            got = from_v1.hists1d[name]
            assert (got.bins, got.total_rows, got.k) == (h.bins, h.total_rows, h.k)
        for name, h in mixed_state.hists2d.items():
            assert from_v1.hists2d[name].grid.tolist() == h.grid.tolist()
            assert from_v1.hists2d[name].attr.values == h.attr.values
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_state(mixed_state, str(p1))
        save_state(from_v1, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        for sql in MIXED_QUERIES:
            assert estimate(sql, from_v1).estimate == \
                estimate(sql, mixed_state).estimate

    def test_v2_save_load_save_is_byte_identical(self, mixed_state, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_state(mixed_state, str(p1))
        save_state(load_state(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_threshold_of_older_files_ignored(self, built, tmp_path):
        # older files carry `config.categorical_threshold`; only the schema
        # document's threshold classifies columns now
        state, _ = built
        doc = state_to_document(state)
        doc["config"]["categorical_threshold"] = 4
        old, p1, p2 = (tmp_path / n for n in ("old.json", "a.json", "b.json"))
        old.write_text(json.dumps(doc))
        save_state(state, str(p1))
        save_state(load_state(str(old)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_dropped_config_entries_of_older_files_ignored(self, built,
                                                           tmp_path):
        # older files carry `attr_bin_count` and `correlation_cap`; attribute
        # axes now use `bin_count` and discovery a fixed key cap
        state, _ = built
        doc = state_to_document(state)
        doc["config"].update(attr_bin_count=3, correlation_cap=7)
        old, p1, p2 = (tmp_path / n for n in ("old.json", "a.json", "b.json"))
        old.write_text(json.dumps(doc))
        save_state(state, str(p1))
        save_state(load_state(str(old)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_v2_bins_are_written_in_canonical_order(self, mixed_state):
        for h in state_to_document(mixed_state)["hists1d"].values():
            tk, bg = h["topk_offsets"], h["background_offsets"]
            for i in range(len(h["nv"])):
                ranked = list(zip(h["topk_counts"][tk[i]:tk[i + 1]],
                                  h["topk_keys"][tk[i]:tk[i + 1]]))
                assert ranked == sorted(ranked, key=lambda ck: (-ck[0], ck[1]))
                background = h["background"][bg[i]:bg[i + 1]]
                assert background == sorted(background)

    def test_v2_layout(self, built):
        state, _ = built
        doc = state_to_document(state)
        assert doc["version"] == 2
        h1 = doc["hists1d"]["r.k"]
        # r.k = [1, 1, 2, 5, 9] over 4 bins of width 2, k = 1
        assert h1["topk_keys"] == [1, 5, 9]
        assert h1["topk_counts"] == [2, 1, 1]
        assert h1["topk_offsets"] == [0, 1, 1, 2, 3]
        assert h1["nv"] == [1, 0, 0, 0]
        assert (h1["background"], h1["background_offsets"]) == ([2], [0, 1, 1, 1, 1])
        h2 = doc["hists2d"]["r.k|y"]
        assert h2["shape"] == [4, 4]  # y is categorical: 3, 4, 5, 6
        assert h2["cells"] == [0, 1, 10, 15]
        assert h2["counts"] == [2, 1, 1, 1]


class TestErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(StateError, match="unrecognized"):
            state_from_document({"magic": "SOMETHING-ELSE"})

    def test_bad_version_rejected(self, built):
        state, _ = built
        doc = state_to_document(state)
        doc["version"] = 99
        with pytest.raises(StateError, match="version"):
            state_from_document(doc)

    def test_grid_shape_mismatch_rejected(self, built):
        state, _ = built
        doc = state_to_document(state)
        doc["hists2d"]["r.k|y"]["shape"] = [4, 5]
        with pytest.raises(StateError, match="shape"):
            state_from_document(doc)

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(StateError, match="corrupt"):
            load_state(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StateError, match="cannot read"):
            load_state(str(tmp_path / "nope.json"))
