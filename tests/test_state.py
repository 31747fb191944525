import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import TableData, schema_from_document
from tkhist.errors import StateError
from tkhist.estimator import discover_correlations, estimate
from tkhist.histcore import build_tkhist1d
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


def reference_v2_document(state):
    """The version-2 serializer: plain sorted background keys and 2D cells,
    and one `[key, "range", lo, hi]` or `[key, "set", values]` row per
    envelope.  Every other section is unchanged."""
    doc = state_to_document(state)
    doc["version"] = 2
    hists1d = {}
    for (t, c), h in sorted(state.hists1d.items()):
        keys, counts, offsets = [], [], [0]
        for b in h.bins:
            for key, n in sorted(b.topk.items(), key=lambda kv: (-kv[1], kv[0])):
                keys.append(key)
                counts.append(n)
            offsets.append(len(keys))
        hists1d[f"{t}.{c}"] = {
            "domain": h.domain.id, "k": h.k, "total_rows": h.total_rows,
            "topk_keys": keys, "topk_counts": counts, "topk_offsets": offsets,
            "nv": [b.nv for b in h.bins], "background": h.background.tolist(),
            "background_offsets": h.background_offsets.tolist()}
    doc["hists1d"] = hists1d
    for (t, c, a), h in state.hists2d.items():
        doc["hists2d"][f"{t}.{c}|{a}"]["cells"] = \
            np.flatnonzero(h.grid).tolist()
    if state.correlations is not None:
        doc["correlations"] = {
            f"{t}|{d}|{a}": [[key, "range", env[1], env[2]] if env[0] == "range"
                             else [key, "set", sorted(env[1])]
                             for key, env in sorted(env_by_key.items())]
            for (t, d, a), env_by_key in sorted(state.correlations.items())}
    return doc


def reference_v1_document(state):
    """The version-1 serializer: per-bin objects for 1D histograms and
    dense nested-list grids.  Every other section is as in version 2."""
    doc = reference_v2_document(state)
    doc["version"] = 1
    hists1d = {}
    for (t, c), h in sorted(state.hists1d.items()):
        bins = []
        for i, b in enumerate(h.bins):
            topk = sorted(b.topk.items(), key=lambda kv: (-kv[1], kv[0]))
            lo, hi = h.background_offsets[i], h.background_offsets[i + 1]
            bins.append({"topk": [[k, n] for k, n in topk],
                         "nv": b.nv,
                         "background": h.background[lo:hi].tolist()})
        hists1d[f"{t}.{c}"] = {"domain": h.domain.id, "k": h.k,
                               "total_rows": h.total_rows, "bins": bins}
    doc["hists1d"] = hists1d
    doc["hists2d"] = {f"{t}.{c}|{a}": {"domain": h.key_domain.id,
                                       "attr": doc["hists2d"][f"{t}.{c}|{a}"]["attr"],
                                       "grid": h.grid.tolist()}
                      for (t, c, a), h in sorted(state.hists2d.items())}
    return doc


def save_bytes(state, path):
    save_state(state, str(path))
    return path.read_bytes()


def hists1d_of(state):
    """Every 1D histogram as plain values: containers, NV, totals and the
    background arrays with their dtype."""
    return {name: (h.bins, h.total_rows, h.k, h.background.dtype,
                   h.background.tolist(), h.background_offsets.tolist())
            for name, h in state.hists1d.items()}


# r.k INTEGER and s.k REAL share one key domain; c is categorical on both
MIXED_KINDS_DOC = {
    "tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k", "kind": "integer", "role": "key"},
            {"name": "c", "kind": "categorical"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k", "kind": "real", "role": "key"},
            {"name": "c", "kind": "categorical"}]},
    ],
    "foreign_keys": [{"from": "s.k", "to": "r.k"}],
    "templates": [["r.k=s.k"]],
}

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
        assert hists1d_of(from_v1) == hists1d_of(mixed_state)
        for name, h in mixed_state.hists2d.items():
            assert from_v1.hists2d[name].grid.tolist() == h.grid.tolist()
            assert from_v1.hists2d[name].attr.values == h.attr.values
        assert reference_v2_document(from_v1) == \
            reference_v2_document(mixed_state)
        assert save_bytes(from_v1, tmp_path / "a.json") == \
            save_bytes(mixed_state, tmp_path / "b.json")
        for sql in MIXED_QUERIES:
            assert estimate(sql, from_v1).estimate == \
                estimate(sql, mixed_state).estimate

    def test_v2_save_load_save_is_byte_identical(self, mixed_state, tmp_path):
        # a version-2 file loads as the state it was saved from; saving that
        # state again, in version 3, and reloading it changes nothing
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(reference_v2_document(mixed_state)))
        from_v2 = load_state(str(v2))
        assert hists1d_of(from_v2) == hists1d_of(mixed_state)
        assert from_v2.correlations == mixed_state.correlations
        direct = save_bytes(mixed_state, tmp_path / "a.json")
        assert save_bytes(from_v2, tmp_path / "b.json") == direct
        assert save_bytes(load_state(str(tmp_path / "b.json")),
                          tmp_path / "c.json") == direct
        for sql in MIXED_QUERIES:
            assert estimate(sql, from_v2).estimate == \
                estimate(sql, mixed_state).estimate

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

    def test_v3_bins_are_written_in_canonical_order(self, mixed_state):
        for h in state_to_document(mixed_state)["hists1d"].values():
            tk = h["topk_offsets"]
            for i in range(len(h["nv"])):
                ranked = list(zip(h["topk_counts"][tk[i]:tk[i + 1]],
                                  h["topk_keys"][tk[i]:tk[i + 1]]))
                assert ranked == sorted(ranked, key=lambda ck: (-ck[0], ck[1]))
            # integer keys: the first key, then the gaps to the next
            assert all(gap > 0 for gap in h["background"][1:])

    def test_v3_layout(self, built):
        state, tables = built
        discover_correlations(state, tables)
        doc = state_to_document(state)
        assert doc["version"] == 3
        h1 = doc["hists1d"]["r.k"]
        # r.k = [1, 1, 2, 5, 9] over 4 bins of width 2, k = 1
        assert h1["topk_keys"] == [1, 5, 9]
        assert h1["topk_counts"] == [2, 1, 1]
        assert h1["topk_offsets"] == [0, 1, 1, 2, 3]
        assert h1["nv"] == [1, 0, 0, 0]
        assert (h1["background"], h1["background_offsets"]) == ([2], [0, 1, 1, 1, 1])
        h2 = doc["hists2d"]["r.k|y"]
        assert h2["shape"] == [4, 4]  # y is categorical: 3, 4, 5, 6
        assert h2["cells"] == [0, 1, 9, 5]  # flat cells 0, 1, 10, 15
        assert h2["counts"] == [2, 1, 1, 1]
        # dominant keys 1, 2 and 9 with the y values seen with them
        assert doc["correlations"]["r|r.k|y"] == {
            "keys": [1, 1, 7], "lo": [3, 4, 6], "hi": [3, 4, 6]}
        assert doc["correlations"]["s|r.k|y"] == {
            "keys": [1, 1, 7], "lo": [0, 1, 3], "hi": [0, 2, 3]}

    def test_real_keys_and_set_envelopes_layout(self):
        schema = schema_from_document(MIXED_KINDS_DOC)
        # bins [-3, 0.5) and [0.5, 4]; k = 1
        tables = {"r": make_table("r", {"k": [-3, -3, -2, -1, 4, 4, 3],
                                        "c": list("babcaab")}),
                  "s": make_table("s", {"k": [-3.0, -3.0, -2.5, 0.5, 0.5, 1.5],
                                        "c": list("aabaab")})}
        state = build_state(schema, tables, BuildConfig(bin_count=2, top_k=1))
        discover_correlations(state, tables)
        doc = state_to_document(state)
        # integer keys -2, -1, 3 as deltas; real keys as they are
        assert doc["hists1d"]["r.k"]["background"] == [-2, 1, 4]
        assert doc["hists1d"]["s.k"]["background"] == [-2.5, 1.5]
        assert doc["correlations"]["r|r.k|c"] == {
            "keys": [-3, 7], "values": [["a", "b"], ["a"]]}
        assert doc["correlations"]["s|r.k|c"] == {
            "keys": [-3.0, 0.5], "values": [["a"], ["a"]]}
        reloaded = state_from_document(json.loads(json.dumps(doc)))
        assert reloaded.hists1d[("s", "k")].background.dtype == np.float64
        assert reloaded.correlations == state.correlations


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

    @pytest.fixture
    def doc(self, built):
        state, tables = built
        discover_correlations(state, tables)
        return state_to_document(state)

    def test_short_nv_rejected(self, doc):
        doc["hists1d"]["r.k"]["nv"].pop()
        with pytest.raises(StateError, match=re.escape("'r.k' has 3 nv entries for 4 bins")):
            state_from_document(doc)

    def test_short_topk_counts_rejected(self, doc):
        doc["hists1d"]["r.k"]["topk_counts"].pop()
        with pytest.raises(StateError, match=re.escape("'r.k' has 3 topk_keys")):
            state_from_document(doc)

    def test_short_background_offsets_rejected(self, doc):
        doc["hists1d"]["s.k"]["background_offsets"].pop()
        with pytest.raises(StateError, match=re.escape("'s.k': background_offsets")):
            state_from_document(doc)

    def test_unsorted_background_rejected(self, doc):
        h = doc["hists1d"]["r.k"]
        h["background"], h["background_offsets"] = [2, 0], [0, 2, 2, 2, 2]
        with pytest.raises(StateError, match=re.escape("'r.k' has unsorted")):
            state_from_document(doc)

    def test_short_grid_counts_rejected(self, doc):
        doc["hists2d"]["r.k|y"]["counts"].pop()
        with pytest.raises(StateError, match=re.escape("'r.k|y' has 4 cells and 3")):
            state_from_document(doc)

    def test_grid_cell_out_of_range_rejected(self, doc):
        doc["hists2d"]["r.k|y"]["cells"][-1] += 1  # flat cell 16 of 16
        with pytest.raises(StateError, match=re.escape("'r.k|y' has cells that are out")):
            state_from_document(doc)

    def test_short_envelope_column_rejected(self, doc):
        doc["correlations"]["s|r.k|y"]["hi"].pop()
        with pytest.raises(StateError, match=re.escape("'s|r.k|y' has columns of")):
            state_from_document(doc)

    def test_short_v2_envelope_row_rejected(self, built):
        state, tables = built
        discover_correlations(state, tables)
        doc = reference_v2_document(state)
        doc["correlations"]["r|r.k|y"][0].pop()
        with pytest.raises(StateError, match=re.escape("'r|r.k|y': malformed row")):
            state_from_document(doc)

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(StateError, match="corrupt"):
            load_state(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StateError, match="cannot read"):
            load_state(str(tmp_path / "nope.json"))


# r(k INTEGER, y INTEGER, c CATEGORICAL) and s(k REAL, z REAL) share the key
# domain of k; discovery runs over r.k = s.k
PROPERTY_DOC = {
    "tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k", "kind": "integer", "role": "key"},
            {"name": "y", "kind": "integer"},
            {"name": "c", "kind": "categorical"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k", "kind": "real", "role": "key"},
            {"name": "z", "kind": "real"}]},
    ],
    "foreign_keys": [{"from": "s.k", "to": "r.k"}],
    "templates": [["r.k=s.k"]],
}
KINDS = {t["name"]: [(c["name"], c["kind"]) for c in t["columns"]]
         for t in PROPERTY_DOC["tables"]}
INT64 = np.iinfo(np.int64)
VALUES = {
    # negative keys and the int64 extremes, whose gaps wrap around in int64
    ("r", "k"): st.one_of(st.integers(-6, 6),
                          st.sampled_from([int(INT64.min), int(INT64.max)])),
    ("r", "y"): st.integers(-3, 3),
    ("r", "c"): st.sampled_from("abc"),
    ("s", "k"): st.one_of(st.integers(-12, 12).map(lambda v: v / 2),
                          st.sampled_from([-2.0 ** 63, 2.0 ** 63])),
    ("s", "z"): st.integers(-6, 6).map(lambda v: v / 2),
}
DTYPES = {"integer": np.int64, "real": np.float64, "categorical": object}


def table_of(name, rows):
    """TableData from rows of values or None (a null)."""
    cols, nulls = {}, {}
    for j, (c, kind) in enumerate(KINDS[name]):
        vals = [row[j] for row in rows]
        nulls[c] = np.asarray([v is None for v in vals], dtype=bool)
        fill = "" if kind == "categorical" else 0
        cols[c] = np.asarray([fill if v is None else v for v in vals],
                             dtype=DTYPES[kind])
    return TableData(name=name, columns=cols, null_mask=nulls,
                     row_count=len(rows))


def rows_of(name, min_size):
    return st.lists(st.tuples(*[st.one_of(st.none(), VALUES[(name, c)],
                                          VALUES[(name, c)])
                                for c, _ in KINDS[name]]),
                    min_size=min_size, max_size=15)


@st.composite
def updated_states(draw):
    """A built state with its correlation map, after update batches whose
    keys may fall outside the key domain, and every key each histogram has
    taken (build and accepted updates)."""
    schema = schema_from_document(
        {**PROPERTY_DOC,
         "categorical_threshold": draw(st.sampled_from([1, 1000]))})
    base = {t: table_of(t, draw(rows_of(t, 1))) for t in KINDS}
    state = build_state(schema, base, BuildConfig(
        bin_count=draw(st.integers(1, 5)), top_k=draw(st.integers(0, 3))))
    discover_correlations(state, base)
    taken = {(t, "k"): [base[t].non_null("k")] for t in KINDS}
    for t in draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=3)):
        batch = table_of(t, draw(rows_of(t, 0)))
        dom = state.domains[state.domain_of(t, "k")]
        keys = batch.columns["k"][~batch.null_mask["k"]]
        inserted, _ = apply_rows(state, t, batch)
        accepted = keys[(keys >= dom.lo) & (keys <= dom.hi)]
        assert inserted == len(accepted) + int(batch.null_mask["k"].sum())
        taken[(t, "k")].append(accepted)
    return state, {name: np.concatenate(parts) for name, parts in taken.items()}


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=150, deadline=None)
@given(updated_states())
def test_round_trip_properties(scenario):
    state, taken = scenario
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "state.json"
        direct = save_bytes(state, path)
        loaded = load_state(str(path))
        # the file is the canonical dump of the document of what it loads as
        assert canonical(state_to_document(loaded)) == direct
        assert save_bytes(loaded, pathlib.Path(d) / "again.json") == direct
        assert hists1d_of(loaded) == hists1d_of(state)
        assert loaded.correlations == state.correlations
        for reference in (reference_v1_document, reference_v2_document):
            old = pathlib.Path(d) / "old.json"
            old.write_text(json.dumps(reference(state)))
            assert save_bytes(load_state(str(old)), path) == direct
    # update == rebuild: the background holds every distinct key taken that
    # is not in a (build-time) container, binned as a k = 0 build bins it
    for name, h in state.hists1d.items():
        rebuilt = build_tkhist1d(taken[name], h.domain, k=0)
        held = {key for b in h.bins for key in b.topk}
        assert h.background.dtype == rebuilt.background.dtype
        assert h.background.tolist() == [
            key for key in rebuilt.background.tolist() if key not in held]
        assert (h.ndv + [len(b.topk) for b in h.bins]).tolist() == \
            rebuilt.ndv.tolist()
        assert [b.total() for b in h.bins] == [
            b.total() for b in rebuilt.bins]
