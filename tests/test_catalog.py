import contextlib
import math
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkhist import catalog, synth
from tkhist.catalog import (KeyDomain, equi_width_bins, infer_key_domains,
                            ingest_table, schema_from_document,
                            set_domain_boundaries, value_span,
                            write_table_csv)
from tkhist.errors import DomainBoundsError, IngestError, SchemaError
from tkhist.state import build_state

from conftest import domain_bin, make_table, scalar_bin, two_table_schema


def star_doc(n=3):
    tables = []
    for i in range(1, n + 1):
        tables.append({"name": f"t{i}", "file": f"t{i}.csv",
                       "columns": [{"name": "k", "kind": "integer",
                                    "role": "key"}]})
    fks = [{"from": f"t{i}.k", "to": "t1.k"} for i in range(2, n + 1)]
    return {"tables": tables, "foreign_keys": fks}


class TestSchema:
    def test_loads_tables_and_fks(self):
        schema = schema_from_document(star_doc())
        assert [t.name for t in schema.tables] == ["t1", "t2", "t3"]
        assert ("t2.k", "t1.k") in schema.foreign_keys

    def test_dangling_fk_rejected(self):
        doc = star_doc()
        doc["foreign_keys"].append({"from": "t1.k", "to": "nope.k"})
        with pytest.raises(SchemaError, match="dangling foreign key"):
            schema_from_document(doc)

    def test_duplicate_column_rejected(self):
        doc = star_doc()
        doc["tables"][0]["columns"].append({"name": "k", "kind": "integer"})
        with pytest.raises(SchemaError, match="duplicate column"):
            schema_from_document(doc)

    def test_cyclic_template_rejected(self):
        doc = star_doc()
        doc["templates"] = [["t1.k=t2.k", "t2.k=t3.k", "t3.k=t1.k"]]
        with pytest.raises(SchemaError, match="cyclic template"):
            schema_from_document(doc)

    @pytest.mark.parametrize("template", [["t2.k1=t1.k1", "t5.k3=t4.k3"], []],
                             ids=["two-trees", "empty"])
    def test_template_that_is_no_tree_rejected(self, template):
        schema, _ = synth.generate_synthetic(
            synth.SyntheticSpec(tables=5, rows=10, layout="mixed"), seed=0)
        doc = dict(schema.document, templates=[template])
        with pytest.raises(SchemaError, match=re.escape(
                f"template {template}: disconnected join graph")):
            schema_from_document(doc)

    def test_template_missing_column_rejected(self):
        doc = star_doc()
        doc["templates"] = [["t1.k=t2.zzz"]]
        with pytest.raises(SchemaError, match="missing column"):
            schema_from_document(doc)

    @pytest.mark.parametrize("breaks,match", [
        (lambda d: d["tables"][1].pop("name"), r"^table \{.*\} has no 'name'"),
        (lambda d: d["tables"][2]["columns"][0].pop("name"),
         r"^table 't3': column \{.*\} has no 'name'"),
        (lambda d: d["foreign_keys"][0].pop("from"),
         r"^foreign key \{'to': 't1.k'\} has no 'from'"),
        (lambda d: d["foreign_keys"][1].pop("to"),
         r"^foreign key \{'from': 't3.k'\} has no 'to'"),
        (lambda d: d.update(categorical_threshold="abc"),
         r"^schema 'categorical_threshold' is not an integer: 'abc'"),
    ], ids=["table-name", "column-name", "fk-from", "fk-to", "threshold"])
    def test_malformed_entry_is_schema_error(self, breaks, match):
        doc = star_doc()
        breaks(doc)
        with pytest.raises(SchemaError, match=match):
            schema_from_document(doc)

    @pytest.mark.parametrize("breaks,match", [
        (lambda d: d.update(tables=5), r"^schema 'tables' is not a list: 5"),
        (lambda d: d["tables"][0].update(columns=5),
         r"^table 't1': 'columns' is not a list: 5"),
        (lambda d: d["tables"][1].update(name=["t2"]),
         r"^table \{.*\}: 'name' is not a string: \['t2'\]"),
        (lambda d: d["tables"][0]["columns"][0].update(name=7),
         r"^table 't1': column \{.*\}: 'name' is not a string: 7"),
        (lambda d: d["tables"][0]["columns"][0].update(categorical="yes"),
         r"^column t1.k: 'categorical' is not a boolean: 'yes'"),
        (lambda d: d["tables"][2].update(file=None),
         r"^table 't3': 'file' is not a string: None"),
        (lambda d: d.update(foreign_keys={"from": "t2.k"}),
         r"^schema 'foreign_keys' is not a list"),
        (lambda d: d["foreign_keys"][0].update(to=1),
         r"^foreign key \{.*\}: 'to' is not a string: 1"),
        (lambda d: d.update(templates="t1.k=t2.k"),
         r"^schema 'templates' is not a list"),
        (lambda d: d.update(templates=[{"t1.k": "t2.k"}]),
         r"^template is not a list"),
        (lambda d: d.update(templates=[[["t1.k=t2.k"]]]),
         r"^template edge is not a string"),
        (lambda d: d.update(categorical_threshold=True),
         r"^schema 'categorical_threshold' is not an integer: True"),
        (lambda d: d.update(categorical_threshold=3.7),
         r"^schema 'categorical_threshold' is not an integer: 3.7"),
        (lambda d: d.update(categorical_threshold="12"),
         r"^schema 'categorical_threshold' is not an integer: '12'"),
    ], ids=["tables", "columns", "table-name", "column-name", "categorical",
            "file", "fks", "fk-to", "templates", "template", "edge",
            "bool-threshold", "real-threshold", "string-threshold"])
    def test_wrong_typed_entry_is_schema_error(self, breaks, match):
        doc = star_doc()
        breaks(doc)
        with pytest.raises(SchemaError, match=match):
            schema_from_document(doc)


# case -> (file name, name of the second column, file text, the rows read
# as (k, second column) or a part of the error)
CELL_LOOP_CASES = {
    "lone-cr": ("r.csv", "y", "k,y\n1,2\r3,4\n", [(1, 2), (3, 4)]),
    "blank-first-line": ("r.csv", "y", "k,y\n\n1,2\n", "row 1 has 0 cells"),
    "blank-inner-line": ("r.csv", "y", "k,y\n1,2\n\n3,4\n",
                         "row 2 has 0 cells"),
    "quoted-header-newline": ("r.csv", "y\nz", '"y\nz",k\n1,2\n', [(2, 1)]),
    "past-int64": ("r.csv", "y", "k,y\n1,9223372036854775808\n",
                   "outside the int64 range"),
    "trailing-comma": ("r.csv", "y", "k,y\n1,2,\n", "row 1 has 3 cells"),
    "stray-minus": ("r.csv", "y", "k,y\n1,-\n", "cannot parse '-'"),
    "gz-name": ("r.csv.gz", "y", "k,y\n1,2\n", [(1, 2)]),
}


class TestIngest:
    def test_round_trip_with_nulls(self, tmp_path):
        schema = two_table_schema()
        tdef = schema.table("r")
        path = tmp_path / "r.csv"
        path.write_text("k,y\n1,10\n2,\n,30\n")
        data = ingest_table(tdef, schema, path=str(path))
        assert data.row_count == 3
        assert data.null_mask["y"].tolist() == [False, True, False]
        assert data.null_mask["k"].tolist() == [False, False, True]
        out = tmp_path / "r2.csv"
        write_table_csv(data, tdef, str(out))
        again = ingest_table(tdef, schema, path=str(out))
        assert again.columns["k"].tolist() == data.columns["k"].tolist()
        assert again.null_mask["y"].tolist() == data.null_mask["y"].tolist()

    def test_nan_is_a_null_in_every_table_data(self, tmp_path):
        # a REAL cell reading NaN, and a NaN put in a TableData through the
        # API, are both nulls; the caller's arrays are left as they were
        schema = schema_from_document({"tables": [{"name": "r", "columns": [
            {"name": "k", "kind": "integer", "role": "key"},
            {"name": "y", "kind": "real"}]}]})
        path = tmp_path / "r.csv"
        path.write_text("k,y\n1,nan\n2,2.5\n3,\n")
        data = ingest_table(schema.table("r"), schema, path=str(path))
        assert data.null_mask["y"].tolist() == [True, False, True]
        y, mask = np.array([np.nan, 2.5, 0.0]), np.array([False, False, True])
        made = catalog.TableData(
            name="r", columns={"k": np.array([1, 2, 3]), "y": y},
            null_mask={"k": np.zeros(3, dtype=bool), "y": mask}, row_count=3)
        assert made.null_mask["y"].tolist() == [True, False, True]
        assert made.non_null("y").tolist() == [2.5]
        assert mask.tolist() == [False, False, True]
        assert np.isnan(y[0]) and made.columns["y"] is y

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinity_refused_in_every_table_data(self, tmp_path, inf):
        # a REAL cell reading inf, and an infinity put in a TableData through
        # the API, raise the same error naming the table, row and column
        message = re.escape("table 'r': row 3, column 'z': infinite value "
                            "is not supported")
        schema = schema_from_document({"tables": [{"name": "r", "columns": [
            {"name": "k", "kind": "integer", "role": "key"},
            {"name": "z", "kind": "real"}]}]})
        path = tmp_path / "r.csv"
        path.write_text(f"k,z\n1,1.0\n2,2.0\n3,{inf}\n")
        with pytest.raises(IngestError, match=message):
            ingest_table(schema.table("r"), schema, path=str(path))
        with pytest.raises(IngestError, match=message):
            catalog.TableData(
                name="r", columns={"k": np.array([1, 2, 3]),
                                   "z": np.array([1.0, 2.0, inf])},
                null_mask={"k": np.zeros(3, dtype=bool),
                           "z": np.zeros(3, dtype=bool)}, row_count=3)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        schema = two_table_schema()
        path = tmp_path / "r.csv"
        path.write_text("k,y\n1,10\n2,oops\n")
        with pytest.raises(IngestError, match=r"row 2, column 'y'"):
            ingest_table(schema.table("r"), schema, path=str(path))

    def test_non_utf8_file_names_the_file(self, tmp_path):
        schema = two_table_schema()
        path = tmp_path / "r.csv"
        path.write_bytes(b"k,y\n1,\xff\n")
        with pytest.raises(IngestError, match=re.escape(
                f"{str(path)!r} is not valid UTF-8")):
            ingest_table(schema.table("r"), schema, path=str(path))

    def test_header_mismatch(self, tmp_path):
        schema = two_table_schema()
        path = tmp_path / "r.csv"
        path.write_text("k,z\n1,10\n")
        with pytest.raises(IngestError):
            ingest_table(schema.table("r"), schema, path=str(path))

    def test_reordered_header_accepted(self, tmp_path):
        schema = two_table_schema()
        path = tmp_path / "r.csv"
        path.write_text("y,k\n10,1\n20,2\n")
        data = ingest_table(schema.table("r"), schema, path=str(path))
        assert data.columns["k"].tolist() == [1, 2]
        assert data.columns["y"].tolist() == [10, 20]

    @pytest.mark.parametrize("text,row,cell", [
        ("k,y\r\n1,99999999999999999999", 1, "99999999999999999999"),
        ("k,y\n1,2\n3,9223372036854775808\n", 2, "9223372036854775808"),
        # the empty cell sends the whole file through the cell loop
        ("k,y\n,2\n3,-9223372036854775809\n", 2, "-9223372036854775809"),
    ], ids=["plain", "max+1", "min-1-with-null"])
    def test_value_past_int64_names_row_and_column(self, tmp_path, text, row,
                                                   cell):
        schema = two_table_schema()
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode())
        with pytest.raises(IngestError, match=(
                rf"^table 'r': row {row}, column 'y': '{cell}' is outside "
                "the int64 range$")):
            ingest_table(schema.table("r"), schema, path=str(path))

    @pytest.mark.parametrize("kind,cell", [
        ("integer", "1_0"), ("integer", "\u0661\u0662"),
        ("real", "1_0.5"), ("real", "\u0661\u0662"),
    ], ids=["int-underscore", "int-arabic-indic", "real-underscore",
            "real-arabic-indic"])
    def test_only_ascii_numbers_parse(self, tmp_path, kind, cell):
        schema = one_column_schema(kind)
        path = tmp_path / "r.csv"
        path.write_text(f"v\n{cell}\n", encoding="utf-8")
        with pytest.raises(IngestError, match=(
                "^table 'r': row 1, column 'v': cannot parse "
                f"{re.escape(repr(cell))} as {kind}$")):
            ingest_table(schema.table("r"), schema, path=str(path))

    @pytest.mark.parametrize("kind,cell,value", [
        ("integer", " -7 ", -7), ("real", " 2.5 ", 2.5),
    ])
    def test_surrounding_spaces_accepted(self, tmp_path, kind, cell, value):
        schema = one_column_schema(kind)
        path = tmp_path / "r.csv"
        path.write_text(f"v\n{cell}\n", encoding="utf-8")
        data = ingest_table(schema.table("r"), schema, path=str(path))
        assert data.columns["v"].tolist() == [value]

    @pytest.mark.parametrize("case", CELL_LOOP_CASES)
    def test_cell_loop_reads_what_numpy_must_not(self, tmp_path, case):
        """Files that numpy would misread or reject, or whose name numpy
        would open through a decompressor, are read by the cell loop: its
        rows, or its error."""
        name, y, text, want = CELL_LOOP_CASES[case]
        schema = schema_from_document({"tables": [{
            "name": "r", "file": "r.csv", "columns": [
                {"name": "k", "kind": "integer", "role": "key"},
                {"name": y, "kind": "integer"}]}]})
        path = tmp_path / name
        path.write_bytes(text.encode())
        with mock.patch.object(catalog, "_ingest_cells",
                               wraps=catalog._ingest_cells) as cells:
            got = ingest_outcome(schema, str(path))
        assert cells.called
        if isinstance(want, str):
            assert want in got
        else:
            assert got == (len(want), {
                c: (np.dtype(np.int64),
                    np.asarray([r[i] for r in want], dtype=np.int64).tobytes())
                for i, c in enumerate(["k", y])},
                {c: [False] * len(want) for c in ["k", y]})


def one_column_schema(kind: str):
    return schema_from_document({"tables": [{
        "name": "r", "file": "r.csv", "columns": [{"name": "v", "kind": kind}]}]})


PLAIN_EDGE_CELLS = ["0", "-0", "007", "-007", str(2 ** 63 - 1), str(-2 ** 63)]
ODD_CELLS = [str(2 ** 63), str(-2 ** 63 - 1), "99999999999999999999", "",
             '"5"', '"-3"', '"1,2"', '""', "-", "--1", "1-2", " 5", "+5",
             "1_0", "2.5", "x"]


@st.composite
def csv_tables(draw):
    """A table `r` of one to three columns and CSV text for it.  The header
    comes in any order.  Every file mixes int64 values, their limits, '-0'
    and leading zeros, with \\n or \\r\\n line ends and with or without a
    final one; an odd file adds cells outside the plain grammar (empty,
    quoted, past int64, signs, spaces), rows of the wrong width, blank lines
    and lone \\r line ends, and some tables have a REAL or CATEGORICAL
    column.  Returns (schema, text, plain): plain files must take the numpy
    path."""
    names = ["k", "y", "z"][:draw(st.integers(1, 3))]
    odd = draw(st.booleans())
    kinds = ["integer"] * len(names)
    if odd and draw(st.booleans()):
        kinds[draw(st.integers(0, len(names) - 1))] = draw(
            st.sampled_from(["real", "categorical"]))
    cell = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1).map(str),
                     st.sampled_from(PLAIN_EDGE_CELLS))
    row = st.lists(cell, min_size=len(names), max_size=len(names))
    if odd:
        cell = st.one_of(cell, st.sampled_from(ODD_CELLS))
        row = st.one_of(st.lists(cell, min_size=len(names),
                                 max_size=len(names)),
                        st.lists(cell, max_size=len(names) + 1))
    rows = draw(st.lists(row, max_size=6))
    lines = [",".join(draw(st.permutations(names)))]
    lines += [",".join(r) for r in rows]
    if odd:
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
    else:
        ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    if not draw(st.booleans()):
        text = text[:-len(ends[-1])]
    schema = schema_from_document({"tables": [{
        "name": "r", "file": "r.csv",
        "columns": [{"name": n, "kind": k} for n, k in zip(names, kinds)]}]})
    return schema, text, not odd and len(rows) > 0


def ingest_outcome(schema, path):
    """What `ingest_table` gives: the error text, or the row count, each
    column's dtype and values and each null mask."""
    try:
        data = ingest_table(schema.table("r"), schema, path=path)
    except IngestError as exc:
        return str(exc)
    return (data.row_count,
            {c: (a.dtype, a.tolist() if a.dtype == object else a.tobytes())
             for c, a in data.columns.items()},
            {c: m.tolist() for c, m in data.null_mask.items()})


class TestPlainIntegerPath:
    """The numpy path of `ingest_table` against the cell loop alone."""

    @settings(max_examples=400, deadline=None)
    @given(case=csv_tables())
    def test_same_result_as_cell_loop(self, case):
        schema, text, plain = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            no_loop = (mock.patch.object(catalog, "_ingest_cells",
                                         side_effect=AssertionError)
                       if plain else contextlib.nullcontext())
            with no_loop, warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. loadtxt's "no data"
                got = ingest_outcome(schema, path)
            with mock.patch.object(catalog, "_plain_integer_rows",
                                   return_value=None):
                want = ingest_outcome(schema, path)
        assert got == want

    @pytest.mark.parametrize("correlated", [False, True])
    def test_synthetic_tables_skip_the_cell_loop(self, tmp_path, monkeypatch,
                                                 correlated):
        """The benchmark's CSV files must not fall back to the slow loop."""
        spec = synth.SyntheticSpec(tables=5, rows=2_000, layout="mixed",
                                   correlated=correlated)
        schema, tables = synth.generate_synthetic(spec, seed=3)
        written = catalog.load_schema(
            synth.write_benchmark(schema, tables, str(tmp_path)))

        def cell_loop(*args):
            raise AssertionError("cell loop entered")

        monkeypatch.setattr(catalog, "_ingest_cells", cell_loop)
        for tdef in written.tables:
            data = ingest_table(tdef, written)
            assert data.row_count == spec.rows
            for name, values in tables[tdef.name].columns.items():
                assert data.columns[name].dtype == np.int64
                assert data.columns[name].tolist() == values.tolist()
                assert not data.null_mask[name].any()


class TestKeyDomains:
    def test_star_yields_one_domain(self):
        schema = schema_from_document(star_doc())
        domains = infer_key_domains(schema)
        assert len(domains) == 1
        assert domains[0].columns == {"t1.k", "t2.k", "t3.k"}
        assert domains[0].id == "t1.k"  # deterministic representative

    def test_chain_yields_two_domains(self):
        doc = {
            "tables": [
                {"name": "a", "columns": [{"name": "k1", "role": "key"}]},
                {"name": "b", "columns": [{"name": "k1", "role": "key"},
                                          {"name": "k2", "role": "key"}]},
                {"name": "c", "columns": [{"name": "k2", "role": "key"}]},
            ],
            "foreign_keys": [{"from": "b.k1", "to": "a.k1"},
                             {"from": "c.k2", "to": "b.k2"}],
        }
        domains = infer_key_domains(schema_from_document(doc))
        assert {frozenset(d.columns) for d in domains} == {
            frozenset({"a.k1", "b.k1"}), frozenset({"b.k2", "c.k2"})}

    @pytest.mark.parametrize("flip", [False, True])
    def test_domains_ordered_by_least_column(self, flip):
        # by greatest column the order would be {b, c} before {a, z}
        tables = [{"name": t, "columns": [{"name": "k", "role": "key"}]}
                  for t in "abcz"]
        fks = [("z.k", "a.k"), ("c.k", "b.k")]
        doc = {"tables": tables, "foreign_keys": [
            {"from": b, "to": a} if flip else {"from": a, "to": b}
            for a, b in fks]}
        domains = infer_key_domains(schema_from_document(doc))
        assert [d.id for d in domains] == ["a.k", "b.k"]

    def test_template_crossing_domains_rejected(self):
        doc = {
            "tables": [
                {"name": "a", "columns": [{"name": "k1", "role": "key"}]},
                {"name": "b", "columns": [{"name": "k1", "role": "key"},
                                          {"name": "k2", "role": "key"}]},
                {"name": "c", "columns": [{"name": "k2", "role": "key"}]},
            ],
            "foreign_keys": [{"from": "b.k1", "to": "a.k1"},
                             {"from": "c.k2", "to": "b.k2"}],
            "templates": [["a.k1=c.k2"]],
        }
        with pytest.raises(SchemaError, match="one key domain"):
            infer_key_domains(schema_from_document(doc))

    def test_boundaries_span_all_member_columns(self):
        schema = two_table_schema()
        tables = {"r": make_table("r", {"k": [1, 5], "y": [0, 0]}),
                  "s": make_table("s", {"k": [3, 9], "y": [0, 0]})}
        domains = infer_key_domains(schema)
        set_domain_boundaries(domains, tables, bin_count=4)
        d = domains[0]
        assert (d.lo, d.hi) == (1.0, 9.0)
        assert d.bin_count == 4

    def test_bin_locate_half_open_last_closed(self):
        d = KeyDomain(id="x", columns=frozenset({"a.k"}))
        d.set_boundaries(0, 10, 5)
        # 2 sits on an edge and goes right; the last bin is closed
        assert d.bins_of([0, 2, 10]).tolist() == [0, 1, 4]
        with pytest.raises(DomainBoundsError):
            d.bins_of([11])
        with pytest.raises(DomainBoundsError):
            d.bins_of([-1])

    def test_bins_of_vector_matches_scalar(self, rng):
        d = KeyDomain(id="x", columns=frozenset({"a.k"}))
        d.set_boundaries(0, 100, 7)
        vals = rng.integers(0, 101, size=200)
        assert d.bins_of(vals).tolist() == [domain_bin(d, v) for v in vals]

    def test_single_value_span_has_width(self):
        assert value_span([np.array([], dtype=np.int64)]) == (0.0, 1.0)
        assert value_span([np.array([4]), np.array([4, 4])]) == (4.0, 5.0)
        # past 2**53 a unit of width rounds away; the span keeps one ulp
        lo, hi = value_span([np.array([10 ** 17])])
        assert lo == 1e17 and hi > lo
        d = KeyDomain(id="x", columns=frozenset({"a.k"}))
        d.set_boundaries(lo, hi, 4)
        assert d.bins_of([10 ** 17]).tolist() == [0]

    def test_bounds_without_width_rejected(self):
        d = KeyDomain(id="x", columns=frozenset({"a.k"}))
        with pytest.raises(SchemaError, match="no width"):
            d.set_boundaries(3, 3, 4)


@st.composite
def axis_values(draw):
    """An equi-width axis of 1-12 bins and values for it: on each bin edge,
    next to it on both sides, inside each bin and outside the axis (near it
    and far enough that the bin quotient passes int64).  INTEGER axes have
    integral ends and integer values, REAL axes float ones."""
    integer = draw(st.booleans())
    n = draw(st.integers(1, 12))
    if integer:
        lo = draw(st.integers(-10 ** 6, 10 ** 6))
        hi = lo + draw(st.integers(1, 10 ** 4))
    else:
        lo = draw(st.floats(-1e6, 1e6))
        hi = lo + draw(st.floats(1e-3, 1e4))
    w = (hi - lo) / n
    edges = [lo + j * w for j in range(n + 1)]
    if integer:
        points = [math.floor(e) + d for e in edges for d in (-1, 0, 1)]
        points += [math.floor(e + w / 2) for e in edges[:-1]]
        points += [lo - 1000, hi + 1000, -2 ** 62, 2 ** 62]
    else:
        points = [x for e in edges for x in (math.nextafter(e, -math.inf), e,
                                             math.nextafter(e, math.inf))]
        points += [e + w / 2 for e in edges[:-1]]
        points += [lo - 1000.0, hi + 1000.0, -1e300, 1e300]
    values = draw(st.lists(st.sampled_from(points), min_size=1, max_size=30))
    return integer, float(lo), float(hi), n, values


class TestEquiWidthBins:
    """The one binning rule against the former scalar rule."""

    @settings(max_examples=300, deadline=None)
    @given(case=axis_values())
    def test_equals_clamped_scalar_rule(self, case):
        integer, lo, hi, n, values = case
        got = equi_width_bins(
            np.asarray(values, dtype=np.int64 if integer else np.float64),
            lo, hi, n)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar_bin(v, lo, hi, n) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(case=axis_values())
    def test_domain_raises_exactly_outside_bounds(self, case):
        integer, lo, hi, n, values = case
        d = KeyDomain(id="x", columns=frozenset({"a.k"}))
        d.set_boundaries(lo, hi, n)
        for v in values:
            one = np.asarray([v], dtype=np.int64 if integer else np.float64)
            if float(v) < lo or float(v) > hi:
                with pytest.raises(DomainBoundsError):
                    d.bins_of(one)
            else:
                assert d.bins_of(one).tolist() == [scalar_bin(v, lo, hi, n)]


class TestClassification:
    def test_threshold_and_declared_override(self):
        # a column is categorical exactly when the build gives it a
        # frequency histogram
        schema = two_table_schema()
        tables = {"r": make_table("r", {"k": list(range(50)),
                                        "y": list(range(50))}),
                  "s": make_table("s", {"k": [0], "y": [0]})}
        for threshold, categorical in ((10, []), (100, ["y"])):
            schema.categorical_threshold = threshold
            assert [c for t, c in build_state(schema, tables).freq_hists
                    if t == "r"] == categorical

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_early_exit_equals_distinct_count(self, data):
        """`is_categorical` of an undeclared column equals a full distinct
        count against the threshold, for thresholds near that count and
        columns whose new values first appear late."""
        kind = data.draw(st.sampled_from(["integer", "real", "object"]))
        pool = {"integer": st.integers(-2 ** 63, 2 ** 63 - 1),
                "real": st.one_of(st.floats(), st.sampled_from([0.0, -0.0])),
                "object": st.text(max_size=2)}[kind]
        early = data.draw(st.lists(pool, min_size=1, max_size=4))
        head = data.draw(st.lists(st.sampled_from(early), max_size=300))
        tail = data.draw(st.lists(pool, max_size=40))
        dtype = {"integer": np.int64, "real": np.float64,
                 "object": object}[kind]
        values = np.asarray(head + tail, dtype=dtype)
        distinct = (len(set(values.tolist())) if dtype is object
                    else len(np.unique(values)))
        threshold = data.draw(st.integers(max(distinct - 2, 1),
                                          distinct + 2))
        cdef = catalog.ColumnDef(name="v", kind="integer", role="attribute")
        assert catalog.is_categorical(cdef, values, threshold) == (
            distinct < threshold)

    def test_declared_categorical_wins(self):
        doc = {"tables": [{"name": "t", "columns": [
            {"name": "c", "kind": "integer", "categorical": True}]}]}
        schema = schema_from_document(doc)
        schema.categorical_threshold = 10
        data = make_table("t", {"c": list(range(5000))})
        assert list(build_state(schema, {"t": data}).freq_hists) == [
            ("t", "c")]
