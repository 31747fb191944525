"""Batch updates: `apply_rows` against the per-row update loop it replaced."""
import copy
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist.catalog import KeyDomain, TableData, schema_from_document
from tkhist.errors import DomainBoundsError, TKHistError
from tkhist.estimator import discover_correlations, estimate
from tkhist.histcore import build_tkhist2d
from tkhist.state import (BuildConfig, apply_rows, build_state, load_state,
                          save_state, state_to_document)
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import _scalar, attr_bin, domain_bin, make_table


def reference_apply_rows(state, table, data):
    """The earlier `tkhist update` loop: one row at a time, one scalar
    insert per histogram.  Frequency keys go through `_scalar`; the loop
    kept numpy floats there, whose repr sorted apart in the state file.
    Every accepted row is counted into the frequency histograms first; each
    categorical axis then becomes its column's sorted values, its old
    columns copied one at a time to their new places, before the rows go
    into the grids.  A column not declared categorical whose values reach
    the threshold loses its frequency histogram instead, and each old
    column adds to its value's bin of the numeric axis over those values.
    Containers and NV are copied into per-bin dicts and lists, and
    background keys collected in one set per histogram; all are written
    back as the histogram's arrays at the end, the background offsets
    binned afresh and checked against the ones the histogram derives."""
    tdef = state.schema.table(table)
    key_cols = state.key_columns(table)
    background = {kc: set(state.hists1d[(table, kc)].background.tolist())
                  for kc in key_cols}
    containers = {kc: [dict(b.topk) for b in state.hists1d[(table, kc)].bins]
                  for kc in key_cols}
    nv = {kc: state.hists1d[(table, kc)].nv.tolist() for kc in key_cols}
    accepted = []
    for i in range(data.row_count):
        ok = True
        for kc in key_cols:
            if data.null_mask[kc][i]:
                continue
            dom = state.domains[state.column_domain[f"{table}.{kc}"]]
            try:
                domain_bin(dom, data.columns[kc][i])
            except DomainBoundsError:
                ok = False
                break
        if not ok:
            continue
        accepted.append(i)
        for cdef in tdef.columns:
            fh = state.freq_hists.get((table, cdef.name))
            if fh is not None and not data.null_mask[cdef.name][i]:
                v = _scalar(data.columns[cdef.name][i])
                fh[v] = fh.get(v, 0) + 1
    numeric = {}
    for cdef in tdef.columns:
        fh = state.freq_hists.get((table, cdef.name))
        if (fh is not None and cdef.kind != "categorical"
                and len(fh) >= state.schema.categorical_threshold):
            lo, hi = min(fh), max(fh)
            numeric[cdef.name] = KeyDomain(id=f"{table}.{cdef.name}",
                                           columns=frozenset())
            numeric[cdef.name].set_boundaries(
                lo, hi if hi > lo else lo + 1, state.config.bin_count)
            del state.freq_hists[(table, cdef.name)]
    for (t, kc, attr), h2 in state.hists2d.items():
        if t == table and attr in numeric:
            axis = numeric[attr]
            grid = np.zeros((h2.grid.shape[0], axis.bin_count),
                            dtype=np.int64)
            for j, v in enumerate(h2.attr):
                grid[:, attr_bin(axis, v)] += h2.grid[:, j]
            h2.attr, h2.grid = axis, grid
        if t == table and (t, attr) in state.freq_hists:
            axis = sorted(state.freq_hists[(t, attr)])
            grid = np.zeros((h2.grid.shape[0], len(axis)), dtype=np.int64)
            for j, v in enumerate(h2.attr):
                grid[:, axis.index(v)] = h2.grid[:, j]
            h2.attr, h2.grid = axis, grid
    for i in accepted:
        state.table_rows[table] += 1
        for kc in key_cols:
            if data.null_mask[kc][i]:
                continue
            kv = _scalar(data.columns[kc][i])
            h1 = state.hists1d[(table, kc)]
            b = domain_bin(h1.domain, kv)
            if kv in containers[kc][b]:
                containers[kc][b][kv] += 1
            else:
                nv[kc][b] += 1
                background[kc].add(kv)
            for cdef in tdef.columns:
                if cdef.name == kc or data.null_mask[cdef.name][i]:
                    continue
                h2 = state.hists2d[(table, kc, cdef.name)]
                j = attr_bin(h2.attr, data.columns[cdef.name][i])
                h2.grid[domain_bin(h2.key_domain, kv), j] += 1
    for kc, keys in background.items():
        h1 = state.hists1d[(table, kc)]
        keys = np.asarray(sorted(keys), dtype=h1.background.dtype)
        offsets = np.searchsorted([domain_bin(h1.domain, v) for v in keys],
                                  np.arange(h1.domain.bin_count + 1))
        state.hists1d[(table, kc)] = h1 = dataclasses.replace(
            h1, topk_counts=np.asarray(
                [c for d in containers[kc] for c in d.values()],
                dtype=np.int64),
            nv=np.asarray(nv[kc], dtype=np.int64), background=keys)
        # the histogram derives the offsets the loop binned afresh
        assert h1.background_offsets.tolist() == offsets.tolist()
    return len(accepted), data.row_count - len(accepted)


# r(k INTEGER, y INTEGER, c CATEGORICAL) and s(k REAL, k2 INTEGER, z REAL)
# share the key domain of k; s.k2 and t.k2 form a second domain, so s has a
# 2D histogram whose attribute is itself a key (domain binning).
SCHEMA_DOC = {
    "tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k", "kind": "integer"},
            {"name": "y", "kind": "integer"},
            {"name": "c", "kind": "categorical"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k", "kind": "real"},
            {"name": "k2", "kind": "integer"},
            {"name": "z", "kind": "real"}]},
        {"name": "t", "file": "t.csv", "columns": [
            {"name": "k2", "kind": "integer"}]},
    ],
    "foreign_keys": [{"from": "s.k", "to": "r.k"},
                     {"from": "s.k2", "to": "t.k2"}],
}
COLUMNS = {t["name"]: [c["name"] for c in t["columns"]]
           for t in SCHEMA_DOC["tables"]}
KINDS = {(t["name"], c["name"]): c["kind"]
         for t in SCHEMA_DOC["tables"] for c in t["columns"]}
PLACEHOLDER = {"integer": 0, "real": float("nan"), "categorical": ""}
DTYPE = {"integer": np.int64, "real": np.float64, "categorical": object}


def cells(kind, lo, hi, letters):
    """A column value or None: integers in [lo, hi], REAL halves in [lo, hi]
    (whole ones too, so 3.0 meets INTEGER 3), or one of `letters`."""
    if kind == "categorical":
        value = st.sampled_from(letters)
    elif kind == "real":
        value = st.integers(2 * lo, 2 * hi).map(lambda v: v / 2)
    else:
        value = st.integers(lo, hi)
    return st.one_of(st.none(), value, value, value)


def rows(table, lo, hi, letters, min_size):
    return st.lists(st.tuples(*[cells(KINDS[(table, c)], lo, hi, letters)
                                for c in COLUMNS[table]]),
                    min_size=min_size, max_size=25)


def table_data(name, columns, rows_):
    cols, nulls = {}, {}
    for j, c in enumerate(columns):
        kind = KINDS[(name, c)]
        vals = [r[j] for r in rows_]
        nulls[c] = np.asarray([v is None for v in vals], dtype=bool)
        cols[c] = np.asarray([PLACEHOLDER[kind] if v is None else v
                              for v in vals], dtype=DTYPE[kind])
    return TableData(name=name, columns=cols, null_mask=nulls,
                     row_count=len(rows_))


@st.composite
def scenarios(draw):
    """Base tables (keys and numbers in [0, 20], letters a-c) and update
    batches that reach outside: keys in [-3, 24] (some out of domain),
    numbers in [-3, 24] (beyond the built attribute range), letters a-h
    (unseen categorical values, in any order)."""
    base = {t: table_data(t, cols, draw(rows(t, 0, 20, "abc", 1)))
            for t, cols in COLUMNS.items()}
    batches = [(t, table_data(t, COLUMNS[t],
                              draw(rows(t, -3, 24, "abcdefgh", 0))))
               for t in draw(st.lists(st.sampled_from(["r", "s", "t"]),
                                      min_size=1, max_size=4))]
    config = BuildConfig(bin_count=draw(st.integers(1, 6)),
                         top_k=draw(st.integers(0, 3)))
    schema = schema_from_document(
        {**SCHEMA_DOC,
         "categorical_threshold": draw(st.sampled_from([1, 4, 1000]))})
    return schema, base, batches, config


def _json(state):
    return json.dumps(state_to_document(state), sort_keys=True)


def _accepted(state, table, data):
    """Accepted rows of one batch, by the per-row domain check."""
    keep = np.ones(data.row_count, dtype=bool)
    for kc in state.key_columns(table):
        dom = state.domains[state.column_domain[f"{table}.{kc}"]]
        for i in range(data.row_count):
            if not data.null_mask[kc][i]:
                v = float(data.columns[kc][i])
                keep[i] &= dom.lo <= v <= dom.hi
    return keep


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_apply_rows_matches_row_loop(scenario):
    schema, base, batches, config = scenario
    state = build_state(schema, base, config)
    ref = copy.deepcopy(state)
    keys_seen = {(t, kc): list(base[t].columns[kc][~base[t].null_mask[kc]])
                 for (t, kc) in state.hists1d}
    for table, data in batches:
        assert apply_rows(state, table, data) == \
            reference_apply_rows(ref, table, data)
        # JSON text, so that 3 and 3.0 count as different keys
        assert _json(state) == _json(ref)
        keep = _accepted(state, table, data)
        for kc in state.key_columns(table):
            col = data.columns[kc][keep & ~data.null_mask[kc]]
            keys_seen[(table, kc)] += list(col)
        # bin-mass identity: NV + sum(container) = rows in the bin
        for (t, kc), hist in state.hists1d.items():
            per_bin = Counter(hist.domain.bins_of(
                np.asarray(keys_seen[(t, kc)], dtype=np.float64)).tolist())
            for i, b in enumerate(hist.bins):
                assert b.nv + sum(b.topk.values()) == per_bin.get(i, 0)
            assert hist.total_rows == len(keys_seen[(t, kc)])


# rows that bound every key domain by [0, 20] and give every column a value,
# so that a rebuild bounds domains and classifies columns as the build did
PINNED = {"r": [(0, 0, "a"), (20, 20, "a")],
          "s": [(0.0, 0, 0.0), (20.0, 20, 20.0)], "t": [(0,), (20,)]}


@st.composite
def pinned_scenarios(draw):
    """`scenarios` whose base tables hold the PINNED rows, with a
    categorical threshold that a batch may take r.y or s.z to: often just
    above r.y's distinct count at build."""
    schema, base, batches, config = draw(scenarios())
    base = {t: _concat([table_data(t, COLUMNS[t], PINNED[t]), data])
            for t, data in base.items()}
    distinct = len(set(base["r"].non_null("y").tolist()))
    schema = schema_from_document(
        {**SCHEMA_DOC, "categorical_threshold": draw(st.one_of(
            st.just(1000), st.integers(1, 24),
            st.integers(distinct + 1, distinct + 6)))})
    return schema, base, batches, config


def _concat(parts):
    """One TableData of the rows of `parts`, in order."""
    return TableData(
        name=parts[0].name,
        columns={c: np.concatenate([p.columns[c] for p in parts])
                 for c in parts[0].columns},
        null_mask={c: np.concatenate([p.null_mask[c] for p in parts])
                   for c in parts[0].columns},
        row_count=sum(p.row_count for p in parts))


@settings(max_examples=150, deadline=None)
@given(pinned_scenarios())
def test_update_equals_rebuild_for_grids_and_freq(scenario):
    """After each batch, each column's class and frequency histogram, and
    each 2D grid and axis over a categorical or key attribute, equal a
    rebuild's on every accepted row.  A numeric attribute's own axis is the
    one of the first rebuild (the build included) in which the column is
    numeric, and its grid equals a build on every accepted row at that
    axis."""
    schema, base, batches, config = scenario
    state = build_state(schema, base, config)
    taken = {t: [data] for t, data in base.items()}
    axes = {name: h.attr for name, h in state.hists2d.items()
            if isinstance(h.attr, KeyDomain)}
    for table, data in batches:
        keep = _accepted(state, table, data)
        apply_rows(state, table, data)
        taken[table].append(TableData(
            name=table, columns={c: v[keep] for c, v in data.columns.items()},
            null_mask={c: v[keep] for c, v in data.null_mask.items()},
            row_count=int(keep.sum())))
        tables = {t: _concat(parts) for t, parts in taken.items()}
        rebuilt = build_state(schema, tables, config)
        assert rebuilt.freq_hists == state.freq_hists
        for (t, kc, attr), h in state.hists2d.items():
            want = rebuilt.hists2d[(t, kc, attr)]
            if isinstance(want.attr, KeyDomain):
                axes.setdefault((t, kc, attr), want.attr)
            if isinstance(h.attr, KeyDomain) and not h.attr.columns:
                rows = tables[t]
                both = ~(rows.null_mask[kc] | rows.null_mask[attr])
                want = build_tkhist2d(
                    rows.columns[kc][both], rows.columns[attr][both],
                    h.key_domain, axes[(t, kc, attr)])
            assert h.attr == want.attr
            assert h.grid.tolist() == want.grid.tolist()


def test_unseen_categorical_values_take_sorted_place():
    schema = schema_from_document(SCHEMA_DOC)
    base = {t: table_data(t, cols, [tuple(0 if KINDS[(t, c)] != "categorical"
                                          else "a" for c in cols)])
            for t, cols in COLUMNS.items()}
    config = BuildConfig(bin_count=2, top_k=1)
    state = build_state(schema, base, config)
    rows_ = [(0, 0, "d"), (0, None, "b"), (None, 0, "e"), (0, 0, "c"),
             (0, 0, "d")]
    assert apply_rows(state, "r", table_data("r", COLUMNS["r"], rows_)) == \
        (5, 0)
    # "e" comes only with a null key: a zero column, as a rebuild gives it
    h = state.hists2d[("r", "k", "c")]
    assert h.attr == ["a", "b", "c", "d", "e"]
    assert h.grid.tolist() == [[1, 1, 1, 2, 0], [0, 0, 0, 0, 0]]
    assert state.freq_hists[("r", "c")] == {"a": 1, "b": 1, "c": 1, "d": 2,
                                            "e": 1}
    rebuilt = build_state(schema, {**base, "r": table_data(
        "r", COLUMNS["r"], [(0, 0, "a"), *rows_])}, config)
    assert rebuilt.hists2d[("r", "k", "c")].attr == h.attr
    assert rebuilt.hists2d[("r", "k", "c")].grid.tolist() == h.grid.tolist()
    assert rebuilt.freq_hists == state.freq_hists


def test_new_real_categorical_values_save_canonically(tmp_path):
    schema = schema_from_document(SCHEMA_DOC)
    base = {t: table_data(t, cols, [tuple(v if KINDS[(t, c)] != "categorical"
                                          else "a" for c in cols)
                                    for v in (0, 10)])
            for t, cols in COLUMNS.items()}
    state = build_state(schema, base, BuildConfig(bin_count=2, top_k=1))
    assert ("s", "z") in state.freq_hists  # categorical
    apply_rows(state, "s", table_data("s", COLUMNS["s"], [(1.0, 1, 1.5)]))
    # numpy float keys would sort by their repr, after every plain float
    assert [type(v) for v in state.freq_hists[("s", "z")]] == [float] * 3
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(state, str(p1))
    save_state(load_state(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


CROSSING_SCHEMA = {
    "tables": [{"name": t, "file": f"{t}.csv", "columns": [
        {"name": "k", "kind": "integer"},
        {"name": "y", "kind": "integer"}]} for t in ("r", "s")],
    "foreign_keys": [{"from": "s.k", "to": "r.k"}],
    "categorical_threshold": 4}
CROSSING_S = {"k": [1, 2, 3, 4], "y": [1, 2, 3, 4]}
CROSSING_R = {"k": [1, 2, 3, 4], "y": [1, 2, 3, 3]}  # 3 values: categorical
CROSSING_BATCH = {"k": [1, 2, 3, 4], "y": [10, 20, 30, 40]}


def test_column_class_after_crossing_threshold_equals_rebuild():
    schema = schema_from_document(CROSSING_SCHEMA)
    config = BuildConfig(bin_count=2, top_k=0)
    s = make_table("s", CROSSING_S)
    state = build_state(schema, {"r": make_table("r", CROSSING_R), "s": s},
                        config)
    assert ("r", "y") in state.freq_hists
    apply_rows(state, "r", make_table("r", CROSSING_BATCH))
    rebuilt = build_state(schema, {"r": make_table("r", {
        c: CROSSING_R[c] + CROSSING_BATCH[c] for c in CROSSING_R}), "s": s},
                          config)
    assert ("r", "y") not in state.freq_hists
    assert state.hists2d[("r", "k", "y")].attr == \
        rebuilt.hists2d[("r", "k", "y")].attr
    sql = "SELECT COUNT(*) FROM r WHERE r.y <= 15"
    # r.y numeric, 7 values: 4.62 (5.0 while it stayed categorical)
    assert estimate(sql, state).estimate == estimate(sql, rebuilt).estimate


def test_crossing_batch_table_save_writes_full_save(tmp_path):
    """An update that makes r.y numeric drops its `freq` entry: the save of
    the state loaded for r writes the bytes of a full save all the same."""
    schema = schema_from_document(CROSSING_SCHEMA)
    config = BuildConfig(bin_count=2, top_k=0)
    base = {"r": make_table("r", CROSSING_R), "s": make_table("s", CROSSING_S)}
    batch = make_table("r", CROSSING_BATCH)
    path, full = tmp_path / "state.json", tmp_path / "full.json"
    save_state(build_state(schema, base, config), str(path))
    state = load_state(str(path), table="r")
    apply_rows(state, "r", batch)
    save_state(state, str(path))
    whole = build_state(schema, base, config)
    apply_rows(whole, "r", batch)
    save_state(whole, str(full))
    assert path.read_bytes() == full.read_bytes()
    assert "r.y" not in json.loads(path.read_bytes())["freq"]


NAN = float("nan")


def _nan_rows(table, rows_):
    """The TableData of `rows_`, whose NaN cells no mask marks, and the
    one of the same rows with those cells masked (None)."""
    masked = [tuple(None if v != v else v for v in row) for row in rows_]
    return (table_data(table, COLUMNS[table], rows_),
            table_data(table, COLUMNS[table], masked))


def _with_nan(column, rows_):
    """The s rows `rows_` with every other row's `column` (k or z) NaN."""
    j = COLUMNS["s"].index(column)
    return [row[:j] + (NAN,) + row[j + 1:] if i % 2 else row
            for i, row in enumerate(rows_)]


NAN_SCHEMA = {**SCHEMA_DOC, "templates": [["r.k=s.k"]]}
# s.z categorical, or numeric past a threshold of 3 distinct values
THRESHOLDS = pytest.mark.parametrize("threshold", [1000, 3])
NAN_BASE = {"r": [(0, 0, "a"), (7, 3, "b"), (20, 20, "a")],
            "s": [(0.0, 0, 0.0), (7.0, 9, 1.5), (7.0, 4, 2.5),
                  (7.0, 5, 3.5), (20.0, 20, 20.0), (20.0, 6, 4.0)],
            "t": [(0,), (20,)]}
NAN_BATCHES = [[(7.0, 3, 1.5), (2.5, 2, 9.0), (30.0, 1, 1.0)],
               [(20.0, 8, 6.5), (7.0, 7, 0.5)]]


@THRESHOLDS
@pytest.mark.parametrize("column", ["k", "z"])
def test_unmasked_nan_is_a_null_at_build(column, threshold):
    """A NaN in a REAL key or attribute of a TableData whose mask does not
    mark it is a null: the build and its correlation map equal those of the
    same rows with the NaN cells masked."""
    schema = schema_from_document({**NAN_SCHEMA,
                                   "categorical_threshold": threshold})
    rows_ = {**NAN_BASE, "s": _with_nan(column, NAN_BASE["s"])}
    states = []
    for part in (0, 1):
        tables = {t: _nan_rows(t, r)[part] for t, r in rows_.items()}
        state = build_state(schema, tables, BuildConfig(bin_count=4, top_k=2))
        discover_correlations(state, tables)
        states.append(state)
    assert ("s", "k", "z") in states[1].correlations
    assert _json(states[0]) == _json(states[1])


@THRESHOLDS
@pytest.mark.parametrize("column", ["k", "z"])
def test_unmasked_nan_is_a_null_in_batches(column, threshold):
    """`apply_rows` takes a batch whose REAL key or attribute holds NaN no
    mask marks as it takes the batch with those cells masked: the same
    (inserted, rejected) counts and the same state after each batch."""
    schema = schema_from_document({**NAN_SCHEMA,
                                   "categorical_threshold": threshold})
    states = [build_state(schema, {t: table_data(t, COLUMNS[t], r)
                                   for t, r in NAN_BASE.items()},
                          BuildConfig(bin_count=4, top_k=2))
              for _ in range(2)]
    for batch in NAN_BATCHES:
        unmasked, masked = _nan_rows("s", _with_nan(column, batch))
        assert apply_rows(states[0], "s", unmasked) == \
            apply_rows(states[1], "s", masked)
        assert _json(states[0]) == _json(states[1])


def test_a_batch_that_raises_changes_nothing():
    """s's REAL key k and categorical z would take the row at once; its real
    INTEGER key k2 is refused before either does, so the batch leaves every
    histogram, frequency count and row count as it was."""
    schema = schema_from_document(NAN_SCHEMA)
    state = build_state(schema, {t: table_data(t, COLUMNS[t], r)
                                 for t, r in NAN_BASE.items()},
                        BuildConfig(bin_count=4, top_k=2))
    assert ("s", "z") in state.freq_hists
    before = _json(state)
    batch = make_table("s", {"k": [1.5], "k2": [2.5], "z": [9.5]})
    with pytest.raises(TKHistError, match="cannot insert float64 keys into "
                       "a histogram of int64 keys"):
        apply_rows(state, "s", batch)
    assert _json(state) == before


def test_a_batch_drops_the_key_indexes(tmp_path):
    """The key indexes, lifts, bridges and plans that estimates build on
    first use do not outlive a batch: after `apply_rows` the state's cache
    is empty, and an estimate, a chain's too, equals that of a fresh load
    of the state saved."""
    schema, tables = generate_synthetic(
        SyntheticSpec(tables=5, rows=300, layout="mixed", distinct_keys=30),
        seed=3)
    state = build_state(schema, tables, BuildConfig(bin_count=10, top_k=3))
    sqls = ["SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
            "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 "
            "AND t3.k1 = t1.k1 AND t1.k1 <= 12 AND t2.y >= 5",
            "SELECT COUNT(*) FROM t1, t2, t3, t4 WHERE t2.k1 = t1.k1 "
            "AND t3.k1 = t1.k1 AND t4.k2 = t3.k2"]
    before = [estimate(sql, state).estimate for sql in sqls]
    assert {key[0] for key in state.cache} == {"index", "lift", "bridge",
                                               "plans"}
    t2 = tables["t2"]
    apply_rows(state, "t2", TableData(
        name="t2", columns={c: v[:150] for c, v in t2.columns.items()},
        null_mask={c: v[:150] for c, v in t2.null_mask.items()},
        row_count=150))
    assert state.cache == {}
    after = [estimate(sql, state).estimate for sql in sqls]
    assert all(a > b for a, b in zip(after, before))
    path = str(tmp_path / "state.json")
    save_state(state, path)
    fresh = load_state(path)
    np.testing.assert_allclose(
        after, [estimate(sql, fresh).estimate for sql in sqls],
        rtol=1e-12, atol=0)
