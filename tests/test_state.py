import base64
import errno
import json
import os
import pathlib
import re
import tempfile
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tkhist import cli
from tkhist.catalog import TableData, schema_from_document, write_table_csv
from tkhist.errors import IngestError, StateError
from tkhist.estimator import (discover_correlations, estimate,
                              evaluate_workload)
from tkhist.histcore import build_tkhist1d, build_tkhist2d
from tkhist.oracle import oracle_count
from tkhist.queryfront import bind, parse_sql
from tkhist.state import (BuildConfig, _hist2d_doc, _pack, _unpack,
                          apply_rows, build_state, load_state, save_state,
                          state_from_document, state_to_document)
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import correlations_of, make_table, two_table_schema


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
        a = estimate(sql, state).estimate
        b = estimate(sql, state2).estimate
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
        assert estimate(sql, state).estimate == \
            estimate(sql, state2).estimate


INT_TAGS = ("i1", "i2", "i4", "i8")
TAGS = {tag: f"<{tag}" for tag in (*INT_TAGS, "f8")}


def narrowest(values):
    """The narrowest integer tag that holds each of `values`."""
    return next(tag for tag in INT_TAGS if all(
        np.iinfo(tag).min <= v <= np.iinfo(tag).max for v in values))


def unpacked(blob):
    """The values of a packed array as stored (delta-coded arrays as gaps):
    its bytes are byte planes, every value's byte 0, then every byte 1, ..."""
    tag, body = blob.split(":")
    planes = np.frombuffer(zlib.decompress(base64.b64decode(body)), np.uint8)
    width = np.dtype(TAGS[tag]).itemsize
    return np.frombuffer(planes.reshape(width, -1).T.tobytes(),
                         TAGS[tag]).tolist()


def undelta(blob):
    """The values of a delta-coded integer array: the running sum of its
    stored gaps, wrapping in int64."""
    return np.cumsum(np.asarray(unpacked(blob), dtype=np.int64)).tolist()


def packed(values, tag="i8"):
    """`values` packed as `tag`, in byte planes."""
    a = np.asarray(values, dtype=TAGS[tag])
    raw = a.view(np.uint8).reshape(len(a), a.itemsize).T.tobytes()
    return f"{tag}:" + base64.b64encode(zlib.compress(raw)).decode()


def repacked(blob, edit):
    """`blob` with its stored values passed through `edit`, packed at the
    narrowest tag that holds them (a real array stays `f8`)."""
    values = edit(unpacked(blob))
    return packed(values, "f8" if blob.startswith("f8:") else narrowest(values))


def keys_of(blob):
    """The values of a key or offset array: delta-coded if integer."""
    return unpacked(blob) if blob.startswith("f8:") else undelta(blob)


def rekeyed(blob, i, key):
    """Key or offset array `blob` with its i-th value set to `key`."""
    keys = keys_of(blob)
    keys[i] = key
    if blob.startswith("f8:"):
        return packed(keys, "f8")
    gaps = wrapped_gaps(keys)
    return packed(gaps, narrowest(gaps))


INT64 = np.iinfo(np.int64)
INT_EDGES = [int(INT64.min), int(INT64.max), 2 ** 53 + 1, -2 ** 53 - 1,
             2 ** 31, -2 ** 31 - 1, 32768, -129, 128, 0, -1]
F8_EDGES = [  # as bits: -0.0, +-inf, quiet and signalling NaNs with payloads
    0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001,
    0x7FF7FFFFFFFFFFFF, 0x0000000000000001]


def wrapped_gaps(values):
    """Each value minus the one before it (the first minus 0), wrapped into
    int64: what a delta-coded array stores."""
    return [(b - a - INT64.min) % 2 ** 64 + INT64.min
            for a, b in zip([0, *values], values)]


class TestCodec:
    """Each integer array is stored at the narrowest width that holds its
    stored values, and reads back as a writable int64 array."""

    @pytest.mark.parametrize("values, tag", [
        ([], "i1"),
        ([127, -128, 0], "i1"), ([128], "i2"), ([-129], "i2"),
        ([32767, -32768], "i2"), ([32768], "i4"), ([-32769], "i4"),
        ([2 ** 31 - 1, -2 ** 31], "i4"), ([2 ** 31], "i8"),
        ([-2 ** 31 - 1], "i8"),
        ([2 ** 53 + 1, -2 ** 53 - 1], "i8"),  # past float64's integers
        ([int(INT64.min), int(INT64.max)], "i8"),
    ])
    def test_plain_array_at_narrowest_width(self, values, tag):
        blob = _pack(np.asarray(values, dtype=np.int64))
        assert blob.split(":")[0] == tag == narrowest(values)
        assert unpacked(blob) == values
        got = _unpack({"a": blob}, "test", "a")
        assert got.dtype == np.int64 and got.flags.writeable
        assert got.tolist() == values

    @pytest.mark.parametrize("values, stored, tag", [
        ([], [], "i1"),
        ([100, 227, 99], [100, 127, -128], "i1"),
        ([100, 228], [100, 128], "i2"),
        ([0, -32768, -1], [0, -32768, 32767], "i2"),
        ([5, 32773], [5, 32768], "i4"),
        ([0, 2 ** 31], [0, 2 ** 31], "i8"),
        ([2 ** 53 + 1, 2 ** 53 + 3], [2 ** 53 + 1, 2], "i8"),
        # adjacent int64 extremes: the gap wraps around in int64
        ([int(INT64.min), int(INT64.max)], [int(INT64.min), -1], "i8"),
        ([-1, int(INT64.max), int(INT64.min)], [-1, int(INT64.min), 1], "i8"),
    ])
    def test_delta_array_at_narrowest_width(self, values, stored, tag):
        assert wrapped_gaps(values) == stored
        blob = _pack(np.asarray(values, dtype=np.int64), delta=True)
        assert blob.split(":")[0] == tag == narrowest(stored)
        assert unpacked(blob) == stored
        got = _unpack({"a": blob}, "test", "a", delta=True)
        assert got.dtype == np.int64 and got.flags.writeable
        assert got.tolist() == values

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-300, 300),
                              st.integers(-2 ** 40, 2 ** 40),
                              st.integers(int(INT64.min), int(INT64.max))),
                    max_size=12), st.booleans())
    def test_integers_round_trip(self, values, delta):
        blob = _pack(np.asarray(values, dtype=np.int64), delta=delta)
        stored = wrapped_gaps(values) if delta else values
        assert blob.split(":")[0] == narrowest(stored)
        assert unpacked(blob) == stored
        assert _unpack({"a": blob}, "test", "a",
                       delta=delta).tolist() == values

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        # integers at each width, at the int64 extremes and past 2**53
        st.sampled_from(INT_TAGS).flatmap(lambda tag: st.lists(st.one_of(
            st.integers(int(np.iinfo(tag).min), int(np.iinfo(tag).max)),
            st.sampled_from(INT_EDGES)), max_size=40)).map(
                lambda v: np.asarray(v, dtype=np.int64)),
        # every float64 bit pattern: -0.0, infinities, NaN payloads
        st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                           st.sampled_from(F8_EDGES)), max_size=40).map(
            lambda bits: np.asarray(bits, dtype=np.uint64).view(np.float64))),
        st.booleans())
    @example(np.zeros(0, np.int64), True)
    @example(np.zeros(0, np.float64), False)
    @example(np.asarray([int(INT64.min)]), False)
    @example(np.asarray([int(INT64.max), int(INT64.min), 2 ** 53 + 1]), True)
    @example(np.asarray(F8_EDGES, dtype=np.uint64).view(np.float64), True)
    def test_pack_round_trips_bytes(self, values, delta):
        # byte planes and back give the array's every bit, wrapped deltas
        # and NaN payloads included
        blob = _pack(values, delta=delta)
        got = _unpack({"a": blob}, "test", "a", None, delta=delta)
        assert got.dtype == values.dtype and got.flags.writeable
        assert got.tobytes() == values.tobytes()

    @pytest.mark.parametrize("values", [[], [0.5, -2.5], [1.0, 2.0, 2.0 ** 60]])
    def test_real_keys_stay_f8(self, values):
        # a float cumsum would not round-trip, so reals are stored as they are
        blob = _pack(np.asarray(values, dtype=np.float64), delta=True)
        assert blob.startswith("f8:") and unpacked(blob) == values
        got = _unpack({"a": blob}, "test", "a", "f", delta=True)
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tolist() == values
        with pytest.raises(StateError, match="'a' has dtype tag 'f8', "
                           "expected i8 or narrower"):
            _unpack({"a": blob}, "test", "a")

    @pytest.mark.parametrize("tag", ["i2", "i4", "i8", "f8"])
    def test_ragged_byte_count_rejected(self, tag):
        width = int(tag[1])
        blob = f"{tag}:" + base64.b64encode(
            zlib.compress(bytes(2 * width + 1))).decode()
        with pytest.raises(StateError, match=f"'a' unpacks to {2 * width + 1} "
                           f"bytes, not a multiple of {width}"):
            _unpack({"a": blob}, "test", "a", None)


def save_bytes(state, path):
    save_state(state, str(path))
    return path.read_bytes()


def hists1d_of(state):
    """Every 1D histogram as plain values: containers, NV, totals and the
    background arrays with their dtype."""
    return {name: (h.bins, h.total_rows, h.background.dtype,
                   h.background.tolist(), h.background_offsets.tolist())
            for name, h in state.hists1d.items()}


# r.k INTEGER and s.k REAL share one key domain; c is categorical on both
MIXED_KINDS_DOC = {
    "tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k", "kind": "integer"},
            {"name": "c", "kind": "categorical"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k", "kind": "real"},
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


# t1-t2-t3 a star on k1, t3-t4-t5 a chain on k2 and k3: t3 (k1, k2) and
# t4 (k2, k3) are bridges
MIXED_SPEC = SyntheticSpec(tables=5, rows=400, layout="mixed",
                           distinct_keys=40, correlated=True)


@pytest.fixture
def mixed_state():
    """A correlated five-table state with a correlation map, after one
    batch that brings attribute values the build never saw."""
    schema, tables = generate_synthetic(MIXED_SPEC, seed=3)
    state = build_state(schema, tables, BuildConfig(bin_count=8, top_k=3))
    discover_correlations(state, tables)
    _, more = generate_synthetic(MIXED_SPEC, seed=4)
    more["t3"].columns["y"] = more["t3"].columns["y"] + 1000
    apply_rows(state, "t3", more["t3"])
    return state


def twin_name(name):
    """The entry name of the other direction of 2D histogram `name`."""
    qual, _, attr = name.partition("|")
    t, c = qual.split(".")
    return f"{t}.{attr}|{c}"


def test_saved_integer_arrays_at_narrowest_width(mixed_state, tmp_path):
    # a change that widens the file, or writes a bridge twice, fails here
    doc = json.loads(save_bytes(mixed_state, tmp_path / "state.json"))
    tags = {path: (blob.split(":")[0], blob)
            for path, blob in checked_entries(doc)
            if isinstance(blob, str) and blob.split(":")[0] in TAGS}
    assert {tag for tag, _ in tags.values()} >= {"i1", "i2"}
    for path, (tag, blob) in tags.items():
        if tag != "f8":
            assert tag == narrowest(unpacked(blob)), path
    assert [name for name in doc["hists2d"]
            if twin_name(name) in doc["hists2d"]] == []


def assert_bridges_rebuilt(state, rows):
    """Every bridge that `state` holds is one grid, its two directions
    sharing memory, and each direction equals a rebuild from `rows`."""
    bridges = [key for key in state.hists2d
               if (key[0], key[2], key[1]) in state.hists2d]
    assert bridges
    for t, a, b in bridges:
        h2 = state.hists2d[(t, a, b)]
        assert np.shares_memory(h2.grid, state.hists2d[(t, b, a)].grid)
        data = rows[t]
        both = ~(data.null_mask[a] | data.null_mask[b])
        assert h2.grid.tolist() == build_tkhist2d(
            data.columns[a][both], data.columns[b][both], h2.key_domain,
            h2.attr).grid.tolist()


def in_domains(state, table, batch):
    """The rows of `batch` whose keys all lie in their key domains."""
    keep = np.ones(batch.row_count, dtype=bool)
    for kc in state.key_columns(table):
        dom = state.domains[state.column_domain[f"{table}.{kc}"]]
        keep &= (batch.columns[kc] >= dom.lo) & (batch.columns[kc] <= dom.hi)
    return TableData(name=table,
                     columns={c: v[keep] for c, v in batch.columns.items()},
                     null_mask={c: v[keep] for c, v in batch.null_mask.items()},
                     row_count=int(keep.sum()))


class TestFormat:
    def test_save_load_keeps_estimates(self, mixed_state, tmp_path):
        direct = save_bytes(mixed_state, tmp_path / "a.json")
        loaded = load_state(str(tmp_path / "a.json"))
        assert hists1d_of(loaded) == hists1d_of(mixed_state)
        assert correlations_of(loaded.correlations) == \
            correlations_of(mixed_state.correlations)
        assert save_bytes(loaded, tmp_path / "b.json") == direct
        for sql in MIXED_QUERIES:
            assert estimate(sql, loaded).estimate == \
                estimate(sql, mixed_state).estimate

    def test_bridge_stored_once_and_loaded_as_transpose(self, mixed_state,
                                                         tmp_path):
        path = tmp_path / "state.json"
        doc = json.loads(save_bytes(mixed_state, path))
        bridges = [("t3", "k1", "k2"), ("t4", "k2", "k3")]
        for t, a, b in bridges:  # the entry whose name sorts first
            assert f"{t}.{a}|{b}" in doc["hists2d"]
            assert f"{t}.{b}|{a}" not in doc["hists2d"]
        loaded = load_state(str(path))
        assert set(loaded.hists2d) == set(mixed_state.hists2d)
        for t, a, b in bridges:
            mine, twin = loaded.hists2d[(t, a, b)], loaded.hists2d[(t, b, a)]
            assert twin.grid.tolist() == mine.grid.T.tolist()
            assert (twin.key_domain, twin.attr) == (mine.attr, mine.key_domain)
            assert np.shares_memory(mine.grid, twin.grid)  # one grid
        # the one grid takes the batch for both directions, as after a build
        batch = generate_synthetic(MIXED_SPEC, seed=5)[1]["t3"]
        assert apply_rows(loaded, "t3", batch) == \
            apply_rows(mixed_state, "t3", batch)
        for name, h in mixed_state.hists2d.items():
            assert loaded.hists2d[name].grid.tolist() == h.grid.tolist()
        save_state(loaded, str(path))
        assert path.read_bytes() == save_bytes(mixed_state,
                                               tmp_path / "full.json")

    def test_bridge_is_one_grid_through_build_load_and_updates(
            self, tmp_path, monkeypatch):
        # after a build, a save and load, and each `tkhist update` batch of
        # a bridge table (each a table load), every bridge's two directions
        # are one grid and equal a rebuild from all the table's rows
        schema, rows = generate_synthetic(MIXED_SPEC, seed=3)
        state = build_state(schema, rows, BuildConfig(bin_count=8, top_k=3))
        assert_bridges_rebuilt(state, rows)
        path = tmp_path / "state.json"
        save_state(state, str(path))
        assert_bridges_rebuilt(load_state(str(path)), rows)
        updated = []

        def apply_and_keep(st, table, data):
            updated.append(st)
            return apply_rows(st, table, data)
        monkeypatch.setattr(cli, "apply_rows", apply_and_keep)
        for i, table in enumerate(["t3", "t4", "t3"]):
            batch = in_domains(state, table, generate_synthetic(
                MIXED_SPEC, seed=5 + i)[1][table])
            csv = tmp_path / f"batch{i}.csv"
            write_table_csv(batch, schema.table(table), str(csv))
            assert cli.main(["update", "--state", str(path), "--table", table,
                             "--csv", str(csv)]) == 0
            rows[table] = TableData(name=table, columns={
                c: np.concatenate([v, batch.columns[c]])
                for c, v in rows[table].columns.items()}, null_mask={
                c: np.concatenate([v, batch.null_mask[c]])
                for c, v in rows[table].null_mask.items()},
                row_count=rows[table].row_count + batch.row_count)
            assert_bridges_rebuilt(updated[-1], rows)
            assert_bridges_rebuilt(load_state(str(path)), rows)

    @pytest.mark.parametrize("keep_first", [True, False])
    def test_bridge_stored_twice_or_reversed_rejected(self, mixed_state,
                                                      keep_first):
        doc = state_to_document(mixed_state)
        doc["hists2d"]["t3.k2|k1"] = _hist2d_doc(
            mixed_state.hists2d[("t3", "k2", "k1")])
        if not keep_first:
            del doc["hists2d"]["t3.k1|k2"]
        with pytest.raises(StateError, match=re.escape(
                "2D histogram 't3.k2|k1' is not an entry of the schema")):
            state_from_document(doc)

    def test_missing_bridge_named_as_stored(self, mixed_state):
        # both directions come from the one stored entry, which the error
        # names; a load for another table does not decode it
        doc = state_to_document(mixed_state)
        del doc["hists2d"]["t3.k1|k2"]
        for table in (None, "t3"):
            with pytest.raises(StateError, match=re.escape(
                    "state has no 2D histogram 't3.k1|k2'")):
                state_from_document(doc, table)
        assert set(state_from_document(doc, "t4").hists2d) == \
            {key for key in mixed_state.hists2d if key[0] == "t4"}

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
        # version 11's order: container keys, like background keys, in key
        # order, which is bin order; delta coding inside packed arrays; the
        # container offsets are derived, not written
        doc = state_to_document(mixed_state)
        for name, h in doc["hists1d"].items():
            dom = mixed_state.hists1d[tuple(name.split("."))].domain
            assert set(h) == {"topk_keys", "topk_counts", "nv", "background",
                              "background_offsets"}
            for keys in ("topk_keys", "background"):
                # integer keys: the first key, then the gaps to the next
                assert h[keys][:1] == "i"
                assert all(gap > 0 for gap in unpacked(h[keys])[1:])
            bins = dom.bins_of(np.asarray(undelta(h["background"]))).tolist()
            bounds = undelta(h["background_offsets"])
            assert bins == [i for i in range(len(bounds) - 1)
                            for _ in range(bounds[i], bounds[i + 1])]
            assert len(undelta(h["topk_keys"])) == len(unpacked(h["topk_counts"]))
        # an attribute axis in a key domain or over a categorical column is
        # derived whole; a numeric one outside keeps its lo and hi
        keyed = 0
        for name, h in doc["hists2d"].items():
            t, attr = name.split(".")[0], name.split("|")[1]
            if f"{t}.{attr}" in mixed_state.column_domain:
                keyed += 1
                assert set(h) == {"shape", "cells", "counts"}
            elif (t, attr) in mixed_state.freq_hists:
                assert set(h) == {"shape", "cells", "counts"}
            else:
                assert set(h) == {"shape", "lo", "hi", "cells", "counts"}
        assert keyed

    def test_v3_layout(self, built):
        # version 3's layout, with each numeric array packed as in version 9
        # and without what versions 5 to 7 and 10 derive on load
        state, tables = built
        assert state_to_document(state)["correlations"] == {}  # no discovery
        discover_correlations(state, tables)
        doc = state_to_document(state)
        assert doc["version"] == 11
        assert doc["domains"] == {"r.k": {"lo": 1.0, "hi": 9.0}}
        assert "column_class" not in doc
        h1 = {name: unpacked(blob)
              for name, blob in doc["hists1d"]["r.k"].items()}
        # r.k = [1, 1, 2, 5, 9] over 4 bins of width 2, k = 1; keys and
        # offsets as gaps
        assert set(h1) == {"topk_keys", "topk_counts", "nv", "background",
                           "background_offsets"}
        assert h1["topk_keys"] == [1, 4, 4]  # keys 1, 5, 9
        assert h1["topk_counts"] == [2, 1, 1]
        assert h1["nv"] == [1, 0, 0, 0]
        assert h1["background"] == [2]
        assert h1["background_offsets"] == [0, 1, 0, 0, 0]  # [0, 1, 1, 1, 1]
        h2 = doc["hists2d"]["r.k|y"]
        assert set(h2) == {"shape", "cells", "counts"}
        assert h2["shape"] == [4, 4]  # y is categorical: 3, 4, 5, 6
        assert unpacked(h2["cells"]) == [0, 1, 9, 5]  # flat cells 0, 1, 10, 15
        assert unpacked(h2["counts"]) == [2, 1, 1, 1]
        # dominant keys 1, 2 and 9 with the y values seen with them
        corr = {name: {col: unpacked(blob) for col, blob in sec.items()}
                for name, sec in doc["correlations"].items()}
        assert corr["r.k|y"] == {"keys": [1, 1, 7], "lo": [3, 4, 6],
                                   "hi": [3, 4, 6]}
        assert corr["s.k|y"] == {"keys": [1, 1, 7], "lo": [0, 1, 3],
                                   "hi": [0, 2, 3]}
        # every array is tagged with its dtype at the narrowest width that
        # holds it: i1 here, y and k being small integers
        assert {blob[:3] for sec in (doc["hists1d"]["r.k"], h2,
                                     *doc["correlations"].values())
                for blob in sec.values() if isinstance(blob, str)
                and ":" in blob} == {"i1:"}

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
        assert doc["hists1d"]["r.k"]["background"].startswith("i1:")
        assert unpacked(doc["hists1d"]["r.k"]["background"]) == [-2, 1, 4]
        assert doc["hists1d"]["s.k"]["background"].startswith("f8:")
        assert unpacked(doc["hists1d"]["s.k"]["background"]) == [-2.5, 1.5]
        assert doc["hists1d"]["s.k"]["topk_keys"].startswith("f8:")
        # counts and offsets stay integer whatever the key's kind
        assert doc["hists1d"]["s.k"]["topk_counts"].startswith("i1:")
        r_sec, s_sec = (doc["correlations"][f"{t}.k|c"] for t in "rs")
        assert (unpacked(r_sec["keys"]), r_sec["values"]) == (
            [-3, 7], [["a", "b"], ["a"]])
        assert s_sec["keys"].startswith("f8:")
        assert (unpacked(s_sec["keys"]), s_sec["values"]) == (
            [-3.0, 0.5], [["a"], ["a"]])
        reloaded = state_from_document(json.loads(json.dumps(doc)))
        assert reloaded.hists1d[("s", "k")].background.dtype == np.float64
        assert correlations_of(reloaded.correlations) == \
            correlations_of(state.correlations)


MISSING = object()  # an entry deleted from the document


class TestErrors:
    def test_freq_entry_of_a_key_column_rejected(self, built):
        # what a build wrote when its schema declared the key column `r.k`
        # `role: attribute`: the role is now ignored, and a key column has
        # no frequency histogram
        state, _ = built
        doc = json.loads(json.dumps(state_to_document(state)))
        doc["schema"]["tables"][0]["columns"][0]["role"] = "attribute"
        doc["freq"]["r.k"] = [[1, 2], [2, 1], [5, 1], [9, 1]]
        with pytest.raises(StateError, match=re.escape(
                "frequency histogram 'r.k' is not an entry of the schema")):
            state_from_document(doc)

    def test_bad_magic_rejected(self):
        with pytest.raises(StateError, match="unrecognized"):
            state_from_document({"magic": "SOMETHING-ELSE"})

    def test_bad_version_rejected(self, built):
        state, _ = built
        doc = state_to_document(state)
        doc["version"] = 99
        with pytest.raises(StateError, match="version"):
            state_from_document(doc)

    def test_failed_replace_keeps_the_old_file(self, built, tmp_path,
                                               monkeypatch):
        state, _ = built
        path = tmp_path / "state.json"
        save_state(state, str(path))
        before = path.read_bytes()
        apply_rows(state, "r", make_table("r", {"k": [2], "y": [5]}))

        def failing(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(StateError, match="cannot write state file "
                                             ".*: Permission denied$"):
            save_state(state, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_grid_shape_mismatch_rejected(self, built):
        state, _ = built
        doc = state_to_document(state)
        doc["hists2d"]["r.k|y"]["shape"] = [4, 5]
        with pytest.raises(StateError, match="shape"):
            state_from_document(doc)

    def test_domains_other_than_the_schemas_rejected(self, built):
        doc = state_to_document(built[0])
        doc["domains"]["s.k"] = doc["domains"].pop("r.k")
        with pytest.raises(StateError, match=re.escape(
                "domains ['s.k'] are not the schema's key domains ['r.k']")):
            state_from_document(doc)

    @pytest.mark.parametrize("section, name, renamed", [
        ("hists1d", "r.k", "r.y"), ("hists1d", "s.k", "s.z"),
        ("hists2d", "r.k|y", "r.y|k"), ("hists2d", "s.k|y", "t.k|y")])
    def test_histogram_not_on_a_key_column_rejected(self, built, section,
                                                    name, renamed):
        doc = state_to_document(built[0])
        doc[section][renamed] = doc[section].pop(name)
        with pytest.raises(StateError, match=re.escape(
                f"histogram {renamed!r} is not an entry of the schema")):
            state_from_document(doc)

    @pytest.fixture
    def doc(self, built):
        state, tables = built
        discover_correlations(state, tables)
        return state_to_document(state)

    def test_short_nv_rejected(self, doc):
        h = doc["hists1d"]["r.k"]
        h["nv"] = repacked(h["nv"], lambda v: v[:-1])
        with pytest.raises(StateError, match=re.escape("'r.k': 3 nv entries for 4 bins")):
            state_from_document(doc)

    def test_short_topk_counts_rejected(self, doc):
        h = doc["hists1d"]["r.k"]
        h["topk_counts"] = repacked(h["topk_counts"], lambda v: v[:-1])
        with pytest.raises(StateError, match=re.escape("'r.k': 3 topk_keys")):
            state_from_document(doc)

    def test_short_background_offsets_rejected(self, doc):
        h = doc["hists1d"]["s.k"]
        h["background_offsets"] = repacked(h["background_offsets"],
                                           lambda v: v[:-1])
        with pytest.raises(StateError, match=re.escape("'s.k': background_offsets")):
            state_from_document(doc)

    def test_unsorted_background_rejected(self, doc):
        h = doc["hists1d"]["r.k"]
        # keys 2, 2 (gaps 2, 0) in bin 0 (offset gaps 0, 2, 0, 0, 0)
        h["background"], h["background_offsets"] = (
            packed([2, 0], "i1"), packed([0, 2, 0, 0, 0], "i1"))
        with pytest.raises(StateError, match=re.escape("'r.k': unsorted")):
            state_from_document(doc)

    def test_short_grid_counts_rejected(self, doc):
        h = doc["hists2d"]["r.k|y"]
        h["counts"] = repacked(h["counts"], lambda v: v[:-1])
        with pytest.raises(StateError, match=re.escape("'r.k|y' has 4 cells and 3")):
            state_from_document(doc)

    def test_grid_cell_out_of_range_rejected(self, doc):
        h = doc["hists2d"]["r.k|y"]
        h["cells"] = repacked(h["cells"], lambda v: [*v[:-1], v[-1] + 1])
        with pytest.raises(StateError, match=re.escape("'r.k|y' has cells that are out")):
            state_from_document(doc)

    def test_short_envelope_column_rejected(self, doc):
        sec = doc["correlations"]["s.k|y"]
        sec["hi"] = repacked(sec["hi"], lambda v: v[:-1])
        with pytest.raises(StateError, match=re.escape("'s.k|y' has columns of")):
            state_from_document(doc)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_older_versions_rejected(self, doc, version):
        doc["version"] = version
        with pytest.raises(StateError, match=f"state version {version} is "
                           "no longer read; rebuild .* `tkhist build`"):
            state_from_document(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("hists1d", "r.k", "nv"), 5, "'r.k': 'nv' is not a string"),
        (("hists1d", "r.k", "topk_keys"), None, "'topk_keys' is not a string"),
        (("hists1d", "r.k", "nv"), packed([1, 0, -5, 0]),
         "'r.k': 'nv' has a negative count"),
        # every bin count is config.bin_count
        (("config", "bin_count"), 0, "bin_count must be >= 1"),
        (("domains", "r.k", "lo"), float("inf"), "'lo' is not a finite number"),
        (("hists2d", "r.k|y", "counts"), ["2", "1", "1", "1"],
         "'r.k|y': 'counts' is not a string"),
        (("hists2d", "r.k|y", "counts"), "u8:" + packed([1])[3:],
         "'counts' has dtype tag 'u8', expected i8 or narrower"),
        (("hists2d", "r.k|y", "counts"), "f8:" + packed([2, 1, 1, 1])[3:],
         "'counts' has dtype tag 'f8', expected i8"),
        (("hists1d", "r.k", "nv"), "i8:AAAA*AAA",
         "'nv' is not a packed array"),
        (("hists1d", "r.k", "nv"), "i8:" + base64.b64encode(b"zz").decode(),
         "'nv' is not a packed array"),
        (("hists1d", "r.k", "nv"),
         "i8:" + base64.b64encode(zlib.compress(bytes(31))).decode(),
         "'nv' unpacks to 31 bytes, not a multiple of 8"),
        (("hists2d", "r.k|y", "counts"), packed([2, 1, -1, 1]),
         "'r.k|y': 'counts' has a negative count"),
        # r.y is categorical: its axis is its freq entry's values, checked
        # by the grid's shape; without that entry r.y is numeric, and its
        # axis needs lo and hi
        (("hists2d", "r.k|y", "shape"), MISSING,
         r"2D histogram 'r.k\|y' has shape None, expected \[4, 4\]"),
        (("freq", "r.y"), MISSING, r"2D histogram 'r.k\|y' has no 'lo' entry"),
        (("table_rows", "r"), -1, "'r' is not a count"),
        (("table_rows", "t"), 3,
         "table_rows entry 't' is not an entry of the schema"),
        (("freq", "r.y"), [[3, 2, 1]], "is not a list of \\[value, count\\] pairs"),
        (("freq", "r.y"), [[[3], 2]], "is not a list of \\[value, count\\] pairs"),
        (("hists1d", "r.k", "topk_counts"), packed([2, -1, 1]),
         "'r.k': 'topk_counts' has a negative count"),
        (("correlations", "r.k|y", "lo"), [3, 4, 6], "'lo' is not a string"),
        (("config", "top_k"), True, "'top_k' is not a count"),
        (("hists1d",), [], "'hists1d' is not an object"),
        # entry names that contradict the schema
        (("hists2d", "r.k|zz"), {
            "shape": [4, 4], "cells": packed([]), "counts": packed([]),
            "lo": 0.0, "hi": 1.0},
         r"2D histogram 'r.k\|zz' is not an entry of the schema"),
        (("correlations", "r.k|zz"), {"keys": packed([1]),
                                      "lo": packed([3]), "hi": packed([3])},
         r"correlation section 'r.k\|zz' is not an entry of the schema"),
        # a section keyed by a column outside every key domain
        (("correlations", "r.y|k"), {"keys": packed([1]),
                                     "lo": packed([3]), "hi": packed([3])},
         r"correlation section 'r.y\|k' is not an entry of the schema"),
        (("freq", "r.zz"), [[3, 2]],
         "frequency histogram 'r.zz' is not an entry of the schema"),
        (("freq", "r.k"), [[1, 2]],
         "frequency histogram 'r.k' is not an entry of the schema"),
        # envelope columns that one comparison rule cannot read
        (("correlations", "r.k|y", "hi"), packed([3.0], "f8"),
         "'hi' has dtype tag 'f8', expected i8"),
        (("correlations", "r.k|y", "keys"), packed([1, 0]),
         r"'r.k\|y' has unsorted or repeated keys"),
        # a freq entry whose values one sorted axis cannot hold
        (("freq", "r.y"), [[3, 2], [4, 1], [5, 1], [6, 1], [4, 9]],
         "frequency histogram 'r.y' repeats a value"),
        (("freq", "r.y"), [[3, 2], [4, 1], [4.0, 1], [5, 1], [6, 1]],
         "frequency histogram 'r.y' repeats a value"),
        (("freq", "r.y"), [[3, 2], ["4", 1], [5, 1], [6, 1]],
         "frequency histogram 'r.y' mixes strings and numbers"),
        (("freq", "r.y"), [[3, 2], [float("nan"), 1], [5, 1], [6, 1]],
         "is not a list of \\[value, count\\] pairs"),
        # a NaN correlation key, which compares false with every key
        (("correlations", "r.k|y", "keys"),
         packed([1.0, float("nan"), 9.0], "f8"),
         r"'r.k\|y' has unsorted or repeated keys"),
        # 1D keys that key order rules out: r.k holds containers 1 | - | 5
        # | 9 and background 2 | - | - | - over bins [1, 3), [3, 5), [5, 7)
        # and [7, 9]; keys as gaps.  A container key's bin follows from the
        # key, so moving it to another bin makes another valid state; a
        # background key's must still match the stored background_offsets
        (("hists1d", "r.k", "topk_keys"), packed([1, 8, -4], "i1"),
         "'r.k': unsorted or repeated container keys"),
        (("hists1d", "r.k", "topk_keys"), packed([1, 4, 0], "i1"),
         "'r.k': unsorted or repeated container keys"),
        (("hists1d", "r.k", "background"), packed([1], "i1"),
         "'r.k': a key both in a container and in the background"),
        (("hists1d", "r.k", "background"), packed([4], "i1"),
         "'r.k': background_offsets do not split its 1 background keys by "
         "bin"),
        (("hists1d", "r.k", "background"), packed([11], "i1"),
         re.escape("'r.k': value 11.0 outside domain 'r.k' bounds [1.0, 9.0]")),
        # a container holds a key of at least one row
        (("hists1d", "r.k", "topk_counts"), packed([2, 0, 1]),
         "'r.k': a container count below 1"),
        # required entries
        (("hists1d", "r.k"), MISSING, "state has no 1D histogram 'r.k'"),
        (("hists2d", "r.k|y"), MISSING, r"state has no 2D histogram 'r.k\|y'"),
        (("hists2d", "s.k|y"), MISSING, r"state has no 2D histogram 's.k\|y'"),
    ], ids=[
        # the names the first 33 cases were collected under before their
        # ids were given, kept so that editing a case does not rename it
        "path0-5-'r.k': 'nv' is not a string",
        "path1-None-'topk_keys' is not a string",
        "path2-i8:eJxjZEAFv/9DAIwPAGOcB/Y=-'r.k': 'nv' has a negative count",
        "path3-0-bin_count must be >= 1",
        "path4-inf-'lo' is not a finite number",
        "path5-value5-'r.k|y': 'counts' is not a string",
        "path6-u8:eJxjZIAAAAAQAAI=-'counts' has dtype tag 'u8', expected i8 "
        "or narrower",
        "path7-f8:eJxjYoAARhw0AACQAAY=-'counts' has dtype tag 'f8', "
        "expected i8",
        "path8-i8:AAAA*AAA-'nv' is not a packed array",
        "path9-i8:eno=-'nv' is not a packed array",
        "path10-i8:eJxjYMALAAAfAAE=-'nv' unpacks to 31 bytes, not a multiple "
        "of 8",
        "path11-i8:eJxjYoAARij9HwpgfABkHAf9-'r.k|y': 'counts' has a negative "
        "count",
        r"path12-value12-2D histogram 'r.k\|y' has shape None, expected "
        r"\[4, 4\]",
        r"path13-value13-2D histogram 'r.k\|y' has no 'lo' entry",
        "path14--1-'r' is not a count",
        "path15-3-table_rows does not name each schema table",
        r"path16-value16-is not a list of \[value, count\] pairs",
        r"path17-value17-is not a list of \[value, count\] pairs",
        "path18-i8:eJxjYoCA/1DACOUDAGPsB/w=-'r.k': 'topk_counts' has a "
        "negative count",
        "path19-value19-'lo' is not a string",
        "path20-True-'top_k' is not a count",
        "path21-value21-'hists1d' is not an object",
        r"path22-value22-'r.k\|zz': 'zz' is not another column of table 'r'",
        r"path23-value23-'r\|r.k\|zz': 'zz' is not a column of table 'r'",
        r"path24-value24-'r\|nope\|y': 'nope' is not the key domain of a "
        "column",
        "path25-value25-frequency histogram 'r.zz' is not on a non-key column",
        "path26-value26-frequency histogram 'r.k' is not on a non-key column",
        "path27-f8:eJxjYAABDgcAAFgASQ==-'hi' has dtype tag 'f8', expected i8",
        r"path28-i8:eJxjZEAFAAAgAAI=-'r\|r.k\|y' has unsorted or repeated "
        "keys",
        "path29-value29-frequency histogram 'r.y' repeats a value",
        "path30-value30-frequency histogram 'r.y' repeats a value",
        "path31-value31-frequency histogram 'r.y' mixes strings and numbers",
        r"path32-value32-is not a list of \[value, count\] pairs",
        "nan-between-correlation-keys",
        "unsorted-topk-keys", "repeated-topk-key",
        "key-in-container-and-background", "background-key-outside-its-bin",
        "background-key-outside-its-domain", "zero-container-count",
        "missing-hists1d-r.k", "missing-hists2d-r.k|y",
        "missing-hists2d-s.k|y"])
    def test_malformed_entry_rejected(self, doc, path, value, message):
        *parents, last = path
        entry = doc
        for name in parents:
            entry = entry[name]
        if value is MISSING:
            del entry[last]
        else:
            entry[last] = value
        with pytest.raises(StateError, match=message):
            state_from_document(doc)

    @pytest.mark.parametrize("top_k, name, keys, message", [
        # s.k's one bin holds containers -3.0, -2.5, 0.5 and background 1.5
        (3, "topk_keys", [-3.0, float("nan"), 1.5],
         "'s.k': unsorted or repeated container keys"),
        (3, "background", [float("nan")],
         "'s.k': value nan outside domain 'r.k' bounds [-3.0, 4.0]"),
        # ... or container -3.0 and background -2.5, 0.5, 1.5
        (1, "background", [-2.5, float("nan"), 1.5],
         "'s.k': unsorted or repeated background keys"),
    ], ids=["nan-between-container-keys", "nan-background-key",
            "nan-between-background-keys"])
    @pytest.mark.filterwarnings("error")  # not binned by an invalid cast
    def test_nan_key_rejected(self, top_k, name, keys, message):
        # a NaN compares false with every key, so it must fail the order
        # checks rather than slip past them
        schema = schema_from_document(MIXED_KINDS_DOC)
        tables = {"r": make_table("r", {"k": [-3, 4], "c": list("ab")}),
                  "s": make_table("s", {"k": [-3.0, -3.0, -2.5, 0.5, 0.5, 1.5],
                                        "c": list("aabaab")})}
        doc = state_to_document(build_state(
            schema, tables, BuildConfig(bin_count=1, top_k=top_k)))
        h = doc["hists1d"]["s.k"]
        assert len(unpacked(h[name])) == len(keys)
        h[name] = packed(keys, "f8")
        with pytest.raises(StateError, match=re.escape(message)):
            state_from_document(doc)

    def test_envelope_bounds_of_other_widths_read(self, doc):
        # `hi` must be integer like `lo`, at whatever width holds it
        sec = doc["correlations"]["r.k|y"]
        sec["lo"], sec["hi"] = packed([3, 4, 6], "i1"), packed([3, 4, 300], "i2")
        section = state_from_document(doc).correlations[("r", "k", "y")]
        assert section.lo.dtype == section.hi.dtype == np.int64
        assert section.hi.tolist() == [3, 4, 300]

    @pytest.mark.parametrize("lo, hi", [(3.0, 3.0), (6.0, 3.0)])
    def test_numeric_axis_without_width_rejected(self, doc, lo, hi):
        # without its freq entry r.y is numeric, over the entry's lo and hi
        del doc["freq"]["r.y"]
        doc["hists2d"]["r.k|y"].update(lo=lo, hi=hi)
        with pytest.raises(StateError, match=re.escape(
                f"2D histogram 'r.k|y': domain 'r.y' bounds [{lo}, {hi}] "
                "have no width")):
            state_from_document(doc)

    def test_non_utf8_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"magic": "\xff"}')
        with pytest.raises(StateError, match="corrupt state file"):
            load_state(str(p))

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(StateError, match="corrupt"):
            load_state(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StateError, match="cannot read"):
            load_state(str(tmp_path / "nope.json"))


class TestTableSave:
    """A state loaded for one table saves over the file it was loaded from,
    and refuses a file that no longer holds the document it loaded."""

    @pytest.fixture
    def loaded(self, built, tmp_path):
        state, tables = built
        discover_correlations(state, tables)
        path = tmp_path / "state.json"
        save_state(state, str(path))
        return load_state(str(path)), path

    def test_only_the_table_changes(self, loaded, tmp_path):
        whole, path = loaded
        before = json.loads(path.read_text())
        state = load_state(str(path), table="s")
        batch = make_table("s", {"k": [5, 9], "y": [7, 8]})
        assert apply_rows(state, "s", batch) == apply_rows(whole, "s", batch)
        save_state(state, str(path))
        after = json.loads(path.read_text())
        assert path.read_bytes() == save_bytes(whole, tmp_path / "full.json")
        assert after["hists1d"]["r.k"] == before["hists1d"]["r.k"]
        assert after["hists1d"]["s.k"] != before["hists1d"]["s.k"]
        assert after["table_rows"] == {"r": 5, "s": 6}

    def other_state(self, tmp_path):
        state = build_state(two_table_schema(), {
            "r": make_table("r", {"k": [1, 2, 30], "y": [3, 3, 4]}),
            "s": make_table("s", {"k": [1, 2], "y": [0, 1]})},
            BuildConfig(bin_count=4, top_k=1))
        save_state(state, str(tmp_path / "state.json"))

    def other_domain(self, tmp_path):
        doc = json.loads((tmp_path / "state.json").read_text())
        doc["domains"]["r.k"]["hi"] += 1
        (tmp_path / "state.json").write_text(json.dumps(doc))

    def other_entry_names(self, tmp_path):
        doc = json.loads((tmp_path / "state.json").read_text())
        doc["hists2d"]["r.k|z"] = doc["hists2d"]["r.k|y"]
        (tmp_path / "state.json").write_text(json.dumps(doc))

    @pytest.mark.parametrize("replace, message", [
        (lambda self, p: (p / "state.json").unlink(), "cannot read"),
        (other_state, "no longer holds the document"),
        (other_domain, "no longer holds the document"),
        (other_entry_names, "no longer holds the document"),
        (lambda self, p: (p / "state.json").write_text("[]"),
         "no longer holds the document"),
    ], ids=["missing", "other-state", "other-domain", "other-entry-names",
            "not-an-object"])
    def test_file_edited_after_table_load_refused(self, loaded, tmp_path,
                                                  replace, message):
        path = loaded[1]
        state = load_state(str(path), table="r")
        replace(self, tmp_path)
        before = path.read_bytes() if path.exists() else None
        apply_rows(state, "r", make_table("r", {"k": [2], "y": [5]}))
        with pytest.raises(StateError, match=message):
            save_state(state, str(path))
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (
            ["state.json"] if before is not None else [])

    def test_unknown_table_refused(self, loaded):
        with pytest.raises(StateError, match="unknown table 't'"):
            load_state(str(loaded[1]), table="t")

    def test_table_load_holds_only_the_tables_entries(self, loaded):
        whole, path = loaded
        state = load_state(str(path), table="s")
        assert state.source == ("s", json.loads(path.read_text()))
        for field in ("hists1d", "hists2d", "freq_hists", "correlations"):
            mine = {key for key in getattr(whole, field) if key[0] == "s"}
            assert mine and set(getattr(state, field)) == mine
        assert state.table_rows == whole.table_rows
        assert hists1d_of(state) == {("s", "k"): hists1d_of(whole)[("s", "k")]}

    def test_table_load_refuses_full_save_and_estimate(self, loaded):
        # one rule refuses whatever needs another table's entries
        path = loaded[1]
        state = load_state(str(path), table="s")
        refused = re.escape("state was loaded to update table 's' only")
        with pytest.raises(StateError, match=refused):
            estimate("SELECT COUNT(*) FROM s", state)
        with pytest.raises(StateError, match=refused):
            apply_rows(state, "r", make_table("r", {"k": [2], "y": [5]}))


# r(k INTEGER, y INTEGER, c CATEGORICAL) and s(k REAL, z REAL) share the key
# domain of k; discovery runs over r.k = s.k
PROPERTY_DOC = {
    "tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k", "kind": "integer"},
            {"name": "y", "kind": "integer"},
            {"name": "c", "kind": "categorical"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k", "kind": "real"},
            {"name": "z", "kind": "real"}]},
    ],
    "foreign_keys": [{"from": "s.k", "to": "r.k"}],
    "templates": [["r.k=s.k"]],
}
KINDS = {t["name"]: [(c["name"], c["kind"]) for c in t["columns"]]
         for t in PROPERTY_DOC["tables"]}
VALUES = {
    # negative keys and the int64 extremes, whose gaps wrap around in int64
    # and keys whose gaps need each integer width
    ("r", "k"): st.one_of(st.integers(-6, 6),
                          st.sampled_from([int(INT64.min), int(INT64.max),
                                           -2 ** 31 - 1, -40000, 200, 70000,
                                           2 ** 53 + 1])),
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
def built_states(draw):
    """A built state with its correlation map, and its base tables."""
    schema = schema_from_document(
        {**PROPERTY_DOC,
         "categorical_threshold": draw(st.sampled_from([1, 1000]))})
    base = {t: table_of(t, draw(rows_of(t, 1))) for t in KINDS}
    state = build_state(schema, base, BuildConfig(
        bin_count=draw(st.integers(1, 5)), top_k=draw(st.integers(0, 3))))
    discover_correlations(state, base)
    return state, base


@st.composite
def batch_lists(draw):
    """Up to three update batches as (table, rows); their keys may fall
    outside the key domain."""
    return [(t, table_of(t, draw(rows_of(t, 0))))
            for t in draw(st.lists(st.sampled_from(sorted(KINDS)),
                                   max_size=3))]


@st.composite
def updated_states(draw):
    """A built state after `batch_lists` batches, and every key each
    histogram has taken (build and accepted updates)."""
    state, base = draw(built_states())
    taken = {(t, "k"): [base[t].non_null("k")] for t in KINDS}
    for t, batch in draw(batch_lists()):
        dom = state.domains[state.column_domain[f"{t}.k"]]
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
        # the attribute axes derive as they were built
        assert {name: h.attr for name, h in loaded.hists2d.items()} == \
            {name: h.attr for name, h in state.hists2d.items()}
        assert correlations_of(loaded.correlations) == \
            correlations_of(state.correlations)
    assert_update_equals_rebuild(state, taken)


def assert_update_equals_rebuild(state, taken):
    """update == rebuild: the background holds every distinct key taken that
    is not in a (build-time) container, binned as a k = 0 build bins it."""
    for name, h in state.hists1d.items():
        rebuilt = build_tkhist1d(taken[name], h.domain, k=0)
        held = {key for b in h.bins for key in b.topk}
        assert h.background.dtype == rebuilt.background.dtype
        assert h.background.tolist() == [
            key for key in rebuilt.background.tolist() if key not in held]
        assert (h.ndv + [len(b.topk) for b in h.bins]).tolist() == \
            rebuilt.ndv.tolist()
        assert h.bin_rows().tolist() == rebuilt.bin_rows().tolist()


@settings(max_examples=100, deadline=None)
@given(built_states(), batch_lists())
def test_table_save_writes_bytes_of_full_save(built, batches):
    # each batch as `tkhist update` applies it: load the table's entries,
    # apply_rows, then save only those; the bytes are a full load, the same
    # batch and a full save of the same file.  A state whose table takes
    # the next batch too takes it without a reload and is saved again.
    state, _ = built
    with tempfile.TemporaryDirectory() as d:
        path, full = pathlib.Path(d) / "state.json", pathlib.Path(d) / "full"
        save_state(state, str(path))
        for t, batch in batches:
            whole = load_state(str(path))
            if not (state.source and state.source[0] == t):
                state = load_state(str(path), table=t)
            assert apply_rows(state, t, batch) == apply_rows(whole, t, batch)
            size = save_state(state, str(path))
            assert path.read_bytes() == save_bytes(whole, full)
            assert size == len(path.read_bytes())


@st.composite
def mixed_layout_states(draw):
    """A correlated five-table state, a star t1-t2-t3 whose t3 starts the
    chain t3-t4-t5, with its correlation map; its tables, spec and seed."""
    spec = SyntheticSpec(tables=5, rows=draw(st.integers(5, 120)),
                         layout="mixed", distinct_keys=draw(st.integers(2, 30)),
                         correlated=True)
    seed = draw(st.integers(0, 2 ** 16))
    schema, tables = generate_synthetic(spec, seed=seed)
    state = build_state(schema, tables, BuildConfig(
        bin_count=draw(st.integers(1, 6)), top_k=draw(st.integers(0, 4))))
    discover_correlations(state, tables)
    return state, tables, spec, seed


def snapshot(state):
    """The state document, and every 1D histogram's containers as item
    lists with value types (a document writes them sorted, as int64)."""
    return (canonical(state_to_document(state)),
            {name: [[(k, type(v), v) for k, v in b.topk.items()]
                     for b in h.bins] for name, h in state.hists1d.items()})


@settings(max_examples=60, deadline=None)
@given(mixed_layout_states(), st.integers(0, 40), st.integers(0, 40),
       st.sampled_from(["t1", "t2", "t3", "t4", "t5"]))
def test_estimating_leaves_state_unchanged(built, a, b, table):
    state, tables, spec, seed = built
    lo, hi = min(a, b), max(a, b)
    queries = [
        # star with a key-column filter
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        f"AND t3.k1 = t1.k1 AND t1.k1 <= {a}",
        # star with attribute filters that exclude correlated keys
        "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
        f"AND t3.k1 = t1.k1 AND t2.y < {a} AND t3.y > {b}",
        "SELECT COUNT(*) FROM t3, t4, t5 WHERE t4.k2 = t3.k2 "
        f"AND t5.k3 = t4.k3 AND t5.y BETWEEN {lo} AND {hi}",
        # star member into a chain, with both kinds of filter
        "SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 "
        f"AND t4.k2 = t3.k2 AND t3.y >= {a} AND t4.k2 > {b}",
        f"SELECT COUNT(*) FROM t2 WHERE t2.k1 < {b}",
    ]
    before = snapshot(state)
    for sql in queries:
        for st in (state, replace(state, correlations={})):
            estimate(sql, st)
    evaluate_workload(state, [(sql, None) for sql in queries])
    discover_correlations(state, tables)
    assert snapshot(state) == before

    # the state still updates as a rebuild would: one batch into `table`,
    # its rows whose keys all lie in their domains
    batch = in_domains(state, table,
                       generate_synthetic(spec, seed=seed + 1)[1][table])
    assert apply_rows(state, table, batch) == (batch.row_count, 0)
    taken = {(t, kc): tables[t].columns[kc] for t, kc in state.hists1d}
    for kc in state.key_columns(table):
        taken[(table, kc)] = np.concatenate([taken[(table, kc)],
                                             batch.columns[kc]])
    assert_update_equals_rebuild(state, taken)


def checked_entries(doc):
    """Every (path, value) of a state document that loading type-checks:
    each entry, at any depth, except the magic and the version (the schema's
    own lists are corrupted whole)."""
    found = []

    def walk(node, path):
        for name, value in node.items():
            if path + (name,) not in (("magic",), ("version",)):
                found.append((path + (name,), value))
                if isinstance(value, dict):
                    walk(value, path + (name,))
    walk(doc, ())
    return found


JSON_TYPES = [type(None), bool, (int, float), str, list, dict]
WRONG_VALUES = [None, True, 7, "x", [1], {"a": 1}]


def json_type(value):
    return next(i for i, t in enumerate(JSON_TYPES) if isinstance(value, t))


@st.composite
def corrupted_documents(draw):
    """Copies of a saved state's document, one per checked entry, with that
    entry of the wrong type, length or nesting, or a packed array truncated,
    re-tagged (to an unknown tag, the other dtype or another integer width)
    or cut to a ragged byte count, or a 1D key swapped for one of the other
    key array's or a 1D offset moved by one; then one per required entry
    (each 1D and 2D histogram), with that entry deleted; then one per
    histogram and correlation section, with that entry renamed to a name
    the schema has no place for: a 2D name reversed (as a bridge's other
    direction is named), a column the table does not have, or another
    table's prefix.  Each copy comes with the path of the entry (its new
    name, when renamed) and how it was made: "corrupted", "deleted" or
    "renamed"."""
    state, _ = draw(updated_states())
    saved = json.dumps(state_to_document(state))
    copies = []
    for path, value in checked_entries(json.loads(saved)):
        valid = {json_type(value)}
        corruptions = [st.sampled_from(
            [v for v in WRONG_VALUES if json_type(v) not in valid])]
        tag = value.split(":")[0] if isinstance(value, str) else None
        if tag in TAGS:
            raw = zlib.decompress(base64.b64decode(value[3:]))
            width = int(tag[1])
            corruptions += [
                st.integers(0, len(value) - 1).map(lambda n: value[:n]),
                st.just(repacked(value, lambda v: v[:-1] if v else [0])),
                st.just(repacked(value, lambda v: [*v, 0])),
                st.just("u8" + value[2:])]
            if width > 1:  # any byte count is whole at width 1
                corruptions += [st.integers(1, width - 1).map(
                    lambda n: value[:3] + base64.b64encode(
                        zlib.compress(raw + bytes(n))).decode())]
            if raw and tag != "f8":
                # another integer width reads the bytes as another number
                # of values (an empty array reads alike at every width)
                corruptions += [st.sampled_from(
                    [t for t in INT_TAGS if t != tag]).map(
                        lambda t: t + value[2:])]
            if path[0] != "correlations":  # the other arrays have one dtype
                swapped = "i8" if tag == "f8" else "f8"
                corruptions += [st.just(swapped + value[2:])]
            n = len(raw) // width
            if path[-1] in ("topk_counts", "nv", "counts") and n:
                # one count negated, or -1 in place of a zero
                corruptions += [st.integers(0, n - 1).map(
                    lambda i: repacked(value, lambda v: [
                        *v[:i], -v[i] or -1, *v[i + 1:]]))]
        if path[0] == "hists1d" and tag in TAGS and n:
            # a key swapped for one of the other key array's, or a bin
            # boundary moved by one: load's key-order checks reject each
            other = {"topk_keys": "background",
                     "background": "topk_keys"}.get(path[-1])
            keys = keys_of(json.loads(saved)["hists1d"][path[1]][other]) \
                if other else []
            if keys:
                corruptions += [st.tuples(st.integers(0, n - 1),
                                          st.sampled_from(keys)).map(
                    lambda ik: rekeyed(value, *ik))]
            if path[-1].endswith("offsets"):
                corruptions += [st.integers(0, n - 1).map(
                    lambda i: rekeyed(value, i, keys_of(value)[i] + 1))]
        if path[-1] in ("shape", "values") and isinstance(value, list):
            corruptions += [st.just([*value, value[-1] if value else 0])]
            if value:  # one element short, or one nested a level deeper
                corruptions += [st.just(value[:-1]),
                                st.just([*value[:-1], [value[-1]]])]
        if path[0] == "freq" and len(path) == 2 and value:
            corruptions += [st.integers(0, len(value) - 1).flatmap(
                lambda i: st.sampled_from([value[i][:1], [*value[i], 1]]).map(
                    lambda pair: [*value[:i], pair, *value[i + 1:]]))]
        doc = entry = json.loads(saved)
        for name in path[:-1]:
            entry = entry[name]
        entry[path[-1]] = draw(st.one_of(corruptions))
        copies.append((path, doc, "corrupted"))
    for sec in ("hists1d", "hists2d"):
        for name in json.loads(saved)[sec]:
            doc = json.loads(saved)
            del doc[sec][name]
            copies.append(((sec, name), doc, "deleted"))
    for sec in ("hists1d", "hists2d", "freq", "correlations"):
        for name in json.loads(saved)[sec]:
            doc = json.loads(saved)
            t = re.split(r"[.|]", name)[0]
            other = "s" if t == "r" else "r"
            names = [re.sub(r"[^.|]+$", "zz", name), other + name[len(t):]]
            if sec == "hists2d":
                qual, _, attr = name.partition("|")
                names.append(f"{t}.{attr}|{qual.split('.')[1]}")
            renamed = draw(st.sampled_from(
                [n for n in names if n not in doc[sec]]))
            doc[sec][renamed] = doc[sec].pop(name)
            copies.append(((sec, renamed), doc, "renamed"))
    return copies


def state_error(doc, table=None) -> str | None:
    """The message of the StateError that loading `doc` (for `table`)
    raises, or None when it loads."""
    try:
        state_from_document(doc, table)
    except StateError as exc:
        return str(exc)
    return None


def owner(path) -> str | None:
    """The table that owns the entry at `path`; None for a global entry or
    `table_rows`, which every load checks."""
    if len(path) < 2 or path[0] not in ("hists1d", "hists2d", "freq",
                                        "correlations"):
        return None
    return re.split(r"[.|]", path[1])[0]


# without shrinking, which takes minutes over draws of about 100 copies
@settings(max_examples=100, deadline=None,
          phases=[p for p in Phase if p is not Phase.shrink])
@given(corrupted_documents())
def test_corrupted_entries_raise_state_error(copies):
    # a full load rejects every copy, naming a deleted entry; a load for
    # one table rejects exactly the copies whose entry it decodes, and
    # every renamed copy, naming the new name
    wrong = []
    for path, doc, how in copies:
        for table in (None, *KINDS):
            message = state_error(doc, table)
            if (how != "renamed" and table is not None
                    and owner(path) not in (None, table)):
                ok = message is None
            else:
                ok = message is not None and (
                    how == "corrupted" or repr(path[1]) in message)
            if not ok:
                wrong.append((path, table, message))
    assert wrong == []


class TestAPITablesChecked:
    """Tables made through the API, not read from CSV, raise IngestError
    when they lack a table or column that a call reads; a state loaded for
    one table refuses discovery.  A failing call changes nothing."""

    CONFIG = BuildConfig(bin_count=4, top_k=2)

    @pytest.fixture
    def synth(self):
        return generate_synthetic(SyntheticSpec(
            tables=3, rows=200, distinct_keys=20), seed=3)

    @staticmethod
    def without_y(data):
        return TableData(name=data.name, columns={"k1": data.columns["k1"]},
                         null_mask={"k1": data.null_mask["k1"]},
                         row_count=data.row_count)

    def test_discovery_on_state_loaded_for_one_table(self, synth, tmp_path):
        schema, tables = synth
        path = str(tmp_path / "st.json")
        save_state(build_state(schema, tables, self.CONFIG), path)
        with pytest.raises(StateError, match="to update table 't1' only"):
            discover_correlations(load_state(path, table="t1"), tables)

    def test_discovery_without_a_table(self, synth):
        schema, tables = synth
        state = build_state(schema, tables, self.CONFIG)
        del tables["t2"]
        with pytest.raises(IngestError, match="no data given for table 't2'"):
            discover_correlations(state, tables)
        assert state.correlations == {}

    def test_build_without_a_table(self, synth):
        schema, tables = synth
        del tables["t2"]
        with pytest.raises(IngestError, match="no data given for table 't2'"):
            build_state(schema, tables, self.CONFIG)

    def test_build_without_a_column(self, synth):
        schema, tables = synth
        tables["t1"] = self.without_y(tables["t1"])
        with pytest.raises(IngestError, match=re.escape(
                "table 't1': missing column(s) ['y']")):
            build_state(schema, tables, self.CONFIG)

    def test_batch_without_a_column_changes_nothing(self, synth):
        schema, tables = synth
        state = build_state(schema, tables, self.CONFIG)
        before = snapshot(state)
        with pytest.raises(IngestError, match=re.escape(
                "table 't1': missing column(s) ['y']")):
            apply_rows(state, "t1", self.without_y(tables["t1"]))
        assert snapshot(state) == before

    def test_batch_with_short_null_masks_changes_nothing(self, synth):
        schema, tables = synth
        state = build_state(schema, tables, self.CONFIG)
        before = snapshot(state)
        t1 = tables["t1"]
        with pytest.raises(IngestError, match="null flags"):
            apply_rows(state, "t1", TableData(
                name="t1", columns=dict(t1.columns),
                null_mask={c: m[:-1] for c, m in t1.null_mask.items()},
                row_count=t1.row_count))
        assert snapshot(state) == before

    def test_oracle_without_a_joined_table(self, synth):
        schema, tables = synth
        query = bind(parse_sql("SELECT COUNT(*) FROM t1, t2 "
                               "WHERE t1.k1 = t2.k1"), schema)
        with pytest.raises(IngestError, match="no data given for table 't2'"):
            oracle_count(query, {"t1": tables["t1"]})
