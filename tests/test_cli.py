import json
import re
from dataclasses import replace

import numpy as np
import pytest

from tkhist import catalog, cli, estimator, oracle
from tkhist.cli import main
from tkhist.errors import StateError, TKHistError
from tkhist.queryfront import bind, parse_sql
from tkhist.state import STATE_VERSION, apply_rows, load_state, save_state

from conftest import make_table


@pytest.fixture
def bench(tmp_path):
    outdir = tmp_path / "bench"
    assert main(["synth", "--out", str(outdir), "--tables", "3",
                 "--rows", "500", "--distinct", "60", "--seed", "4"]) == 0
    return outdir


@pytest.fixture
def built(bench, tmp_path):
    state = tmp_path / "state.json"
    rc = main(["build", "--schema", str(bench / "schema.json"),
               "--state", str(state), "--bins", "20", "--k", "5"])
    assert rc == 0
    return state


class TestBuildEstimate:
    def test_build_writes_state(self, built):
        st = load_state(str(built))
        assert st.config.bin_count == 20
        assert st.correlations  # discovery runs by default

    def test_estimate_emits_json(self, built, capsys):
        rc = main(["estimate", "--state", str(built),
                   "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1",
                   "--truth", "100"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimate"] > 0
        assert out["q_error"] == pytest.approx(
            max(out["estimate"] / 100, 100 / out["estimate"]))

    def test_state_env_var_fallback(self, built, capsys, monkeypatch):
        monkeypatch.setenv("TKHIST_STATE", str(built))
        rc = main(["estimate", "SELECT COUNT(*) FROM t1"])
        assert rc == 0

    def test_missing_state_is_error(self, capsys, monkeypatch):
        monkeypatch.delenv("TKHIST_STATE", raising=False)
        rc = main(["estimate", "SELECT COUNT(*) FROM t1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_state_without_sections_is_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"magic": "TKHIST-STATE-v1",
                                     "version": STATE_VERSION}))
        rc = main(["estimate", "--state", str(state),
                   "SELECT COUNT(*) FROM t1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'config'" in err


    def test_malformed_state_entry_is_error(self, built, tmp_path, capsys):
        doc = json.loads(built.read_text())
        doc["hists1d"]["t1.k1"]["nv"] = 5
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        rc = main(["estimate", "--state", str(state),
                   "SELECT COUNT(*) FROM t1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'t1.k1': 'nv'" in err


    @pytest.mark.parametrize("lo, hi, named", [
        (None, None, "state version 6 is no longer read"),
        (3.0, 3.0, "2D histogram 't1.k1|y': domain 't1.y' bounds"),
        (6.0, 3.0, "2D histogram 't1.k1|y': domain 't1.y' bounds"),
    ], ids=["v6", "axis-without-width", "axis-reversed"])
    def test_unreadable_state_is_error(self, built, tmp_path, capsys, lo, hi,
                                       named):
        doc = json.loads(built.read_text())
        if lo is None:
            doc["version"] = 6
        else:  # without its freq entry t1.y is numeric, over lo..hi
            del doc["freq"]["t1.y"]
            doc["hists2d"]["t1.k1|y"].update(lo=lo, hi=hi)
        state = tmp_path / "bad.json"
        state.write_text(json.dumps(doc))
        rc = main(["estimate", "--state", str(state),
                   "SELECT COUNT(*) FROM t1 WHERE t1.y <= 4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestEvaluate:
    def test_report_and_summary_files(self, bench, built, tmp_path, capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("-- two queries\n"
                      "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n"
                      "SELECT COUNT(*) FROM t1 WHERE t1.y <= 500\n")
        rep = tmp_path / "rep.jsonl"
        summ = tmp_path / "summ.csv"
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl),
                   "--out", str(rep), "--summary", str(summ), "--oracle"])
        assert rc == 0
        lines = [json.loads(l) for l in rep.read_text().splitlines()]
        assert len(lines) == 2
        assert all("truth" in l for l in lines)
        header = summ.read_text().splitlines()[0]
        assert "median_q" in header

    def test_oracle_counts_join_past_1e8(self, tmp_path, capsys):
        outdir = tmp_path / "big"  # one key, so the join is 12000 ** 2 rows
        assert main(["synth", "--out", str(outdir), "--tables", "2",
                     "--rows", "12000", "--distinct", "1", "--seed", "3"]) == 0
        state = tmp_path / "state.json"
        assert main(["build", "--schema", str(outdir / "schema.json"),
                     "--state", str(state), "--bins", "4", "--k", "2"]) == 0
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n")
        rep = tmp_path / "rep.jsonl"
        rc = main(["evaluate", "--state", str(state), "--workload", str(wl),
                   "--out", str(rep), "--oracle"])
        assert rc == 0
        (line,) = [json.loads(l) for l in rep.read_text().splitlines()]
        assert line["truth"] == 12000 ** 2 and line.get("error") is None

    def test_oracle_error_fails_only_its_query(self, built, tmp_path,
                                               capsys, monkeypatch):
        def failing_oracle(query, tables):
            raise TKHistError("oracle failed")

        monkeypatch.setattr(oracle, "oracle_count", failing_oracle)
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n"
                      "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 || 7\n")
        rep = tmp_path / "rep.jsonl"
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl),
                   "--out", str(rep), "--oracle"])
        assert rc == 1
        failed, given = [json.loads(l) for l in rep.read_text().splitlines()]
        assert failed["error"] == "oracle failed"
        assert given["truth"] == 7 and given.get("error") is None
        summary = json.loads(capsys.readouterr().err)["summary"]
        assert (summary["queries"], summary["failed"]) == (2, 1)

    def test_missing_workload_is_error(self, built, tmp_path, capsys):
        wl = tmp_path / "absent.txt"
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(wl) in err

    def test_non_numeric_truth_is_error(self, built, tmp_path, capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("-- comment\n"
                      "SELECT COUNT(*) FROM t1 || 5\n"
                      "SELECT COUNT(*) FROM t1 || abc\n")
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(wl) in err and "line 3" in err and "'abc'" in err

    def test_error_report_says_exclusion_was_off(self, bench, tmp_path):
        state = tmp_path / "plain.json"
        assert main(["build", "--schema", str(bench / "schema.json"),
                     "--state", str(state), "--bins", "20", "--k", "5",
                     "--no-djpcd"]) == 0
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM missing_table\n"
                      "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n")
        rep = tmp_path / "rep.jsonl"
        rc = main(["evaluate", "--state", str(state), "--workload", str(wl),
                   "--out", str(rep)])
        assert rc == 1
        failed, ok = [json.loads(l) for l in rep.read_text().splitlines()]
        assert "error" in failed and "error" not in ok
        assert failed["used_djpcd"] is False and ok["used_djpcd"] is False

    def test_broken_query_sets_exit_code(self, built, tmp_path):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM missing_table\n")
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl)])
        assert rc == 1


class TestDJPCDChosenAtBuild:
    """Correlation discovery is chosen when the state is built: `estimate`
    and `evaluate` take no switch, and a state built with `--no-djpcd`
    estimates as a discovered state does without its correlation map."""

    @pytest.mark.parametrize("command", ["estimate", "evaluate"])
    @pytest.mark.parametrize("flag", ["--djpcd", "--no-djpcd"])
    def test_estimate_time_switch_is_usage_error(self, built, tmp_path,
                                                 capsys, command, flag):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1\n")
        rest = {"estimate": ["SELECT COUNT(*) FROM t1"],
                "evaluate": ["--workload", str(wl)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--state", str(built), *rest, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_djpcd_flag_is_usage_error(self, bench, tmp_path, capsys,
                                       command):
        # discovery runs by default at both; only --no-djpcd is a switch
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1\n")
        rest = {"build": ["--state", str(tmp_path / "state.json")],
                "sweep": ["--workload", str(wl)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--schema", str(bench / "schema.json"), *rest,
                  "--djpcd"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --djpcd" in capsys.readouterr().err

    def test_state_built_without_discovery(self, bench, built, tmp_path,
                                           capsys):
        plain = tmp_path / "plain.json"
        assert main(["build", "--schema", str(bench / "schema.json"),
                     "--state", str(plain), "--bins", "20", "--k", "5",
                     "--no-djpcd"]) == 0
        discovered = load_state(str(built))
        assert discovered.correlations
        off = replace(discovered, correlations={})
        capsys.readouterr()
        for sql in ["SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 "
                    "AND t1.y < 300",
                    "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.k1 = t2.k1 "
                    "AND t1.k1 = t3.k1 AND t2.y BETWEEN 10 AND 20"]:
            assert main(["estimate", "--state", str(plain), sql]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["used_djpcd"] is False
            assert out["estimate"] == estimator.estimate(sql, off).estimate


class TestUpdate:
    def test_inserts_and_rejections_counted(self, built, tmp_path, capsys):
        new = tmp_path / "new.csv"
        new.write_text("k1,y\n1,5\n99999,5\n")  # second key out of domain
        rc = main(["update", "--state", str(built), "--table", "t1",
                   "--csv", str(new)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 1" in out and "rejected 1" in out
        st = load_state(str(built))
        assert st.table_rows["t1"] == 501

    def test_wrapper_installed_after_first_call_runs(self, built, tmp_path,
                                                     monkeypatch):
        # the parser is built once, and the command is looked up on each
        # call, so a wrapper installed on cmd_update later still runs
        new = tmp_path / "new.csv"
        new.write_text("k1,y\n1,5\n")
        argv = ["update", "--state", str(built), "--table", "t1",
                "--csv", str(new)]
        assert main(argv) == 0
        calls, original = [], cli.cmd_update

        def wrapped(args):
            calls.append(args.table)
            return original(args)

        monkeypatch.setattr(cli, "cmd_update", wrapped)
        assert main(argv) == 0
        assert calls == ["t1"]
        assert cli.build_parser() is cli.build_parser()
        assert load_state(str(built)).table_rows["t1"] == 502

    @pytest.mark.parametrize("table, body, message", [
        ("nope", "k1,y\n1,5\n", "unknown table 'nope'"),
        ("t1", "k1,y\n1,5\n2,abc\n", "row 2, column 'y'"),
    ], ids=["unknown-table", "bad-cell"])
    def test_failed_update_leaves_state_unchanged(self, built, tmp_path,
                                                  capsys, table, body,
                                                  message):
        before = built.read_bytes()
        new = tmp_path / "new.csv"
        new.write_text(body)
        rc = main(["update", "--state", str(built), "--table", table,
                   "--csv", str(new)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert built.read_bytes() == before

    def test_other_tables_entries_carried_over_unchecked(self, built,
                                                         tmp_path, capsys):
        # an update decodes and checks only its table's entries: a corrupt
        # entry of t2 does not fail an update of t1 and is written back as
        # it was, and a full load still rejects it
        doc = json.loads(built.read_text())
        doc["hists1d"]["t2.k1"]["nv"] = 5
        built.write_text(json.dumps(doc))
        new = tmp_path / "new.csv"
        new.write_text("k1,y\n1,5\n")
        assert main(["update", "--state", str(built), "--table", "t1",
                     "--csv", str(new)]) == 0
        after = json.loads(built.read_text())

        def entry_bytes(d):
            return json.dumps(d["hists1d"]["t2.k1"], sort_keys=True,
                              separators=(",", ":"))
        assert entry_bytes(after) == entry_bytes(doc)
        assert entry_bytes(after) in built.read_text()
        assert after["table_rows"]["t1"] == doc["table_rows"]["t1"] + 1
        with pytest.raises(StateError,
                           match="'t2.k1': 'nv' is not a string"):
            load_state(str(built))
        capsys.readouterr()
        assert main(["estimate", "--state", str(built),
                     "SELECT COUNT(*) FROM t1"]) == 2
        assert "'t2.k1': 'nv' is not a string" in capsys.readouterr().err

    @pytest.mark.parametrize("section, name, copied", [
        ("hists2d", "t2.y|k1", "t2.k1|y"),
        ("freq", "t2.zz", "t2.y"),
        ("correlations", "t3.k1|zz", "t3.k1|y"),
        ("hists1d", "t9.k1", "t2.k1"),
    ], ids=["reversed-2d", "unknown-column", "unknown-attribute",
            "unknown-table"])
    def test_unknown_entry_name_fails_every_update(self, built, tmp_path,
                                                   capsys, section, name,
                                                   copied):
        # every load checks every entry's name, whichever table's part of
        # the section it is in: a name the schema has no place for fails
        # an update of any table and leaves the file as it was
        doc = json.loads(built.read_text())
        doc[section][name] = doc[section][copied]
        built.write_text(json.dumps(doc))
        before = built.read_bytes()
        new = tmp_path / "new.csv"
        new.write_text("k1,y\n1,5\n")
        message = f"{name!r} is not an entry of the schema"
        for table in ("t1", "t2", "t3"):
            with pytest.raises(StateError, match=re.escape(message)):
                load_state(str(built), table=table)
            assert main(["update", "--state", str(built), "--table", table,
                         "--csv", str(new)]) == 2
            assert message in capsys.readouterr().err
            assert built.read_bytes() == before

    def test_interleaved_update_refused_not_lost(self, built, tmp_path):
        # of two updates of t1 loaded from one file, the later save fails
        # and leaves the earlier one's bytes, as does a save of t2 loaded
        # before it; a state saved twice writes a full save's bytes each time
        def batch(table, keys, ys):
            return make_table(table, {"k1": keys, "y": ys})
        whole = load_state(str(built))
        a, b = (load_state(str(built), table="t1") for _ in range(2))
        other = load_state(str(built), table="t2")
        seven = batch("t1", list(range(1, 8)), list(range(9000, 9007)))
        assert apply_rows(b, "t1", seven) == apply_rows(whole, "t1", seven)
        save_state(b, str(built))
        after_b = built.read_bytes()
        apply_rows(a, "t1", batch("t1", [1, 2, 3], [5, 6, 7]))
        apply_rows(other, "t2", batch("t2", [1], [5]))
        for state in (a, other):
            with pytest.raises(StateError, match="no longer holds"):
                save_state(state, str(built))
            assert built.read_bytes() == after_b
        full = tmp_path / "full.json"
        save_state(whole, str(full))
        assert after_b == full.read_bytes()
        two = batch("t1", [2, 3], [5, 9100])
        assert apply_rows(b, "t1", two) == apply_rows(whole, "t1", two)
        save_state(b, str(built))
        save_state(whole, str(full))
        assert built.read_bytes() == full.read_bytes()
        assert load_state(str(built)).table_rows["t1"] == 509


class TestQuickStart:
    WORKLOAD = """\
-- star plus chain
SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 AND t3.k1 = t1.k1
SELECT COUNT(*) FROM t3, t4 WHERE t4.k2 = t3.k2
SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 AND t4.k2 = t3.k2
SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE t2.k1 = t1.k1 AND \
t3.k1 = t1.k1 AND t4.k2 = t3.k2 AND t5.k3 = t4.k3
"""  # README's quick-start workload for bench/mixed

    def test_every_step_exits_0(self, tmp_path, capsys):
        """README's quick start at small scale: synth, build, estimate,
        evaluate with the oracle, update and sweep."""
        data = tmp_path / "bench" / "mixed"
        schema, state = str(data / "schema.json"), str(tmp_path / "st.json")
        wl = data / "workload.txt"
        assert main(["synth", "--out", str(data), "--tables", "5",
                     "--layout", "mixed", "--skew", "1.0", "--rows", "300",
                     "--distinct", "40", "--seed", "7"]) == 0
        wl.write_text(self.WORKLOAD)
        for argv in [
            ["build", "--schema", schema, "--state", state,
             "--bins", "10", "--k", "3"],
            ["estimate", "--state", state, "SELECT COUNT(*) FROM t1, t2, t3 "
             "WHERE t2.k1 = t1.k1 AND t3.k1 = t1.k1"],
            ["evaluate", "--state", state, "--workload", str(wl), "--oracle",
             "--out", str(tmp_path / "report.jsonl"),
             "--summary", str(tmp_path / "summary.csv")],
            ["update", "--state", state, "--table", "t1",
             "--csv", str(data / "t1.csv")],
            ["sweep", "--schema", schema, "--workload", str(wl),
             "--bins", "5,10", "--k", "0,3"],
        ]:
            assert main(argv) == 0, argv
        # synth, build, estimate and update print a line each, then the
        # sweep its header and one row per (bins, k) point
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[2])["used_djpcd"] is True
        assert len(lines) == 4 + 1 + 4


class TestSweep:
    def test_csv_grid(self, bench, tmp_path, capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--schema", str(bench / "schema.json"),
                   "--workload", str(wl), "--bins", "5,10", "--k", "0,3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("bin_count,top_k")
        assert len(lines) == 5

    def test_bad_list_is_usage_error(self, bench, tmp_path, capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--schema", str(bench / "schema.json"),
                  "--workload", str(wl), "--bins", "10,x"])
        assert exc.value.code == 2
        assert "--bins" in capsys.readouterr().err

    def test_missing_workload_is_error(self, bench, tmp_path, capsys):
        wl = tmp_path / "absent.txt"
        rc = main(["sweep", "--schema", str(bench / "schema.json"),
                   "--workload", str(wl), "--bins", "5", "--k", "0"])
        assert rc == 2
        assert str(wl) in capsys.readouterr().err


class TestNaNCells:
    """A REAL cell reading `nan` is a null: it joins nothing and passes no
    predicate, so it must stay out of bin boundaries and histograms."""

    def write(self, tmp_path, r_rows, **schema_entries):
        doc = {**schema_entries, "tables": [
            {"name": t, "file": f"{t}.csv", "columns": [
                {"name": "k", "kind": "integer"},
                {"name": "y", "kind": "real"}]} for t in ("r", "s")],
            "foreign_keys": [{"from": "s.k", "to": "r.k"}]}
        (tmp_path / "schema.json").write_text(json.dumps(doc))
        (tmp_path / "r.csv").write_text(
            "k,y\n" + "".join(f"{k},{y}\n" for k, y in r_rows))
        (tmp_path / "s.csv").write_text("k,y\n1,1.0\n3,2.0\n")
        state = tmp_path / "state.json"
        assert main(["build", "--schema", str(tmp_path / "schema.json"),
                     "--state", str(state), "--bins", "4"]) == 0
        return load_state(str(state)), state

    def test_nan_leaves_numeric_binning_finite(self, tmp_path):
        rows = [(i % 10, i * 0.25) for i in range(2999)] + [(3, "nan")]
        st, _ = self.write(tmp_path, rows)
        assert ("r", "y") not in st.freq_hists  # numeric
        h = st.hists2d[("r", "k", "y")]
        assert (h.attr.lo, h.attr.hi) == (0.0, 749.5)
        assert h.grid.sum() == 2999
        assert (h.grid.sum(axis=0) > 0).sum() > 1  # not collapsed into bin 0

    def test_nan_skipped_by_categorical_build(self, tmp_path):
        rows = [(i % 10, float(i % 7)) for i in range(299)] + [(3, "NaN")]
        st, _ = self.write(tmp_path, rows)
        assert ("r", "y") in st.freq_hists  # categorical
        assert st.freq_hists[("r", "y")] == {float(v): 43 if v < 5 else 42
                                             for v in range(7)}
        assert st.hists2d[("r", "k", "y")].grid.sum() == 299

    def test_update_with_nan_cell(self, tmp_path, capsys):
        st, state = self.write(tmp_path, [(1, 0.5), (3, 2.5), (5, 4.5)],
                               categorical_threshold=1)
        assert ("r", "y") not in st.freq_hists  # numeric
        new = tmp_path / "new.csv"
        new.write_text("k,y\n2,nan\n4,1.5\n")
        assert main(["update", "--state", str(state), "--table", "r",
                     "--csv", str(new)]) == 0
        assert "inserted 2 rows, rejected 0" in capsys.readouterr().out
        after = load_state(str(state))
        assert after.hists1d[("r", "k")].total_rows == 5
        assert after.hists2d[("r", "k", "y")].grid.sum() == 4


class TestInfCells:
    """A REAL cell reading `inf` would turn equi-width attribute boundaries
    into inf/NaN, so ingest rejects it, naming row and column, for `build`
    and for `update` alike."""

    def write(self, tmp_path, r_text):
        doc = {"tables": [
            {"name": t, "file": f"{t}.csv", "columns": [
                {"name": "k", "kind": "integer"},
                {"name": "y", "kind": "real"}]} for t in ("r", "s")],
            "foreign_keys": [{"from": "s.k", "to": "r.k"}]}
        (tmp_path / "schema.json").write_text(json.dumps(doc))
        (tmp_path / "r.csv").write_text(r_text)
        (tmp_path / "s.csv").write_text("k,y\n1,1.0\n3,2.0\n")
        return ["build", "--schema", str(tmp_path / "schema.json"),
                "--state", str(tmp_path / "state.json"), "--bins", "4"]

    def test_build_rejects_inf(self, tmp_path, capsys):
        build = self.write(tmp_path, "k,y\n1,0.5\n3,inf\n5,4.5\n")
        assert main(build) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "row 2, column 'y'" in err
        assert not (tmp_path / "state.json").exists()

    def test_update_rejects_inf(self, tmp_path, capsys):
        build = self.write(tmp_path, "k,y\n1,0.5\n3,2.5\n5,4.5\n")
        assert main(build) == 0
        state = tmp_path / "state.json"
        before = state.read_bytes()
        new = tmp_path / "new.csv"
        new.write_text("k,y\n2,1.5\n4,-inf\n")
        assert main(["update", "--state", str(state), "--table", "r",
                     "--csv", str(new)]) == 2
        assert "row 2, column 'y'" in capsys.readouterr().err
        assert state.read_bytes() == before


class TestBadInput:
    """Malformed schemas and query literals end in `error: ...` and exit
    code 2, not in a traceback."""

    def test_build_with_unnamed_table(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [{"file": "r.csv"}]}))
        assert main(["build", "--schema", str(schema),
                     "--state", str(tmp_path / "state.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: table ") and "has no 'name'" in err
        assert not (tmp_path / "state.json").exists()

    @pytest.mark.parametrize("doc", [
        {"tables": 5},
        {"tables": [{"name": "t", "columns": 5}]},
        {"tables": [{"name": ["t"], "file": "t.csv"}]},
    ], ids=["tables", "columns", "name"])
    def test_build_with_wrong_typed_entry(self, tmp_path, capsys, doc):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        assert main(["build", "--schema", str(schema),
                     "--state", str(tmp_path / "state.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a " in err
        assert not (tmp_path / "state.json").exists()

    @pytest.mark.parametrize("fk,message", [
        ({"from": "s.c", "to": "r.c"},
         "foreign key s.c -> r.c: key column 's.c' is categorical"),
        ({"from": "r.k", "to": "r.k"},
         "foreign key r.k -> r.k joins a column to itself"),
    ], ids=["categorical", "self"])
    def test_build_with_bad_foreign_key(self, tmp_path, capsys, fk, message):
        # a categorical key used to end in a bare ValueError from the
        # domain bounds; a self-FK formed no key domain
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [
            {"name": t, "file": f"{t}.csv", "columns": [
                {"name": "k"}, {"name": "c", "kind": "categorical"}]}
            for t in ("r", "s")], "foreign_keys": [fk]}))
        for t in ("r", "s"):
            (tmp_path / f"{t}.csv").write_text("k,c\n1,a\n2,b\n")
        assert main(["build", "--schema", str(schema),
                     "--state", str(tmp_path / "state.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "state.json").exists()

    def test_build_with_keyword_name(self, tmp_path, capsys):
        # such a table loaded, but no query could name it
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [
            {"name": t, "file": f"{t}.csv", "columns": [{"name": "k"}]}
            for t in ("r", "select")],
            "foreign_keys": [{"from": "select.k", "to": "r.k"}]}))
        for t in ("r", "select"):
            (tmp_path / f"{t}.csv").write_text("k\n1\n2\n")
        assert main(["build", "--schema", str(schema),
                     "--state", str(tmp_path / "state.json")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: table name 'select' is a query keyword")
        assert not (tmp_path / "state.json").exists()

    @pytest.mark.parametrize("command", [
        "build", "evaluate-out", "evaluate-summary", "sweep"])
    def test_output_in_missing_directory(self, bench, built, tmp_path,
                                         capsys, monkeypatch, command):
        missing = str(tmp_path / "missing" / "out")
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n")
        schema = str(bench / "schema.json")
        evaluate = ["evaluate", "--state", str(built), "--workload", str(wl)]
        argv = {"build": ["build", "--schema", schema, "--state", missing],
                "evaluate-out": [*evaluate, "--out", missing],
                "evaluate-summary": [*evaluate, "--summary", missing],
                "sweep": ["sweep", "--schema", schema, "--workload", str(wl),
                          "--bins", "10", "--k", "1", "--out", missing]}
        def work(*args, **kwargs):
            raise AssertionError("estimating before the outputs are open")
        monkeypatch.setattr(estimator, "evaluate_workload", work)
        monkeypatch.setattr(estimator, "sweep", work)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv[command]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(
            f"error: cannot write {'state file ' * (command == 'build')}"
            f"{missing!r}")
        if command in ("evaluate-summary", "sweep"):
            assert out == ""  # the output is opened before any estimate
        assert sorted(tmp_path.rglob("*")) == before  # no temporary file

    def test_between_bounds_of_mixed_types(self, built, capsys):
        sql = "SELECT COUNT(*) FROM t1 WHERE t1.y BETWEEN 'a' AND 5"
        assert main(["estimate", "--state", str(built), sql]) == 2
        assert capsys.readouterr().err.startswith("error: BETWEEN bounds")


class TestNegativeLiterals:
    def test_oracle_scores_query_with_negative_literals(self, tmp_path,
                                                        capsys):
        doc = {"tables": [
            {"name": t, "file": f"{t}.csv", "columns": [
                {"name": "k", "kind": "integer"},
                {"name": "y", "kind": kind}]}
            for t, kind in (("r", "integer"), ("s", "real"))],
            "foreign_keys": [{"from": "s.k", "to": "r.k"}]}
        (tmp_path / "schema.json").write_text(json.dumps(doc))
        (tmp_path / "r.csv").write_text("k,y\n1,-10\n1,-4\n2,-5\n3,0\n3,-1\n")
        (tmp_path / "s.csv").write_text("k,y\n1,-3.0\n2,-2.5\n3,-2.0\n3,-7.5\n")
        state = tmp_path / "state.json"
        assert main(["build", "--schema", str(tmp_path / "schema.json"),
                     "--state", str(state), "--bins", "2", "--k", "1"]) == 0
        sql = ("SELECT COUNT(*) FROM r, s WHERE r.k = s.k "
               "AND r.y > -5 AND s.y <= -2.5")
        preds = bind(parse_sql(sql), load_state(str(state)).schema).predicates
        assert [p.value for p in preds] == [-5, -2.5]
        assert [type(p.value) for p in preds] == [int, float]
        wl = tmp_path / "wl.txt"
        wl.write_text(sql + "\n")
        rep = tmp_path / "rep.jsonl"
        assert main(["evaluate", "--state", str(state), "--workload", str(wl),
                     "--out", str(rep), "--oracle"]) == 0
        (line,) = [json.loads(l) for l in rep.read_text().splitlines()]
        # r rows with y > -5 on keys 1 (one) and 3 (two); s rows with
        # y <= -2.5 on keys 1, 2 and 3 (one each)
        assert line["truth"] == 3 and line.get("error") is None
        assert line["q_error"] >= 1


class TestCategoricalStrings:
    """String categorical columns through CSV, the CLI and SQL."""

    SCHEMA = {"tables": [
        {"name": "r", "file": "r.csv", "columns": [
            {"name": "k"},
            {"name": "c", "kind": "categorical"},
            {"name": "x", "kind": "real"}]},
        {"name": "s", "file": "s.csv", "columns": [
            {"name": "k"},
            {"name": "c", "kind": "categorical"}]}],
        "foreign_keys": [{"from": "s.k", "to": "r.k"}],
        "templates": [["r.k=s.k"]]}
    CATEGORY = {1: "x", 2: "y", 3: "x", 4: "z", 5: "y", 6: "x"}  # c of k
    QUERIES = ["SELECT COUNT(*) FROM r WHERE r.c = 'x'",
               "SELECT COUNT(*) FROM r WHERE r.c IN ('x', 'y')",
               "SELECT COUNT(*) FROM r WHERE c = 'w'"]

    def check_estimates(self, state_path, tables, queries):
        state = load_state(str(state_path))
        for sql in queries:
            truth = oracle.oracle_count(bind(parse_sql(sql), state.schema),
                                        tables)
            assert estimator.estimate(sql, state).estimate == truth, sql

    def test_csv_build_estimate_update(self, tmp_path):
        (tmp_path / "schema.json").write_text(json.dumps(self.SCHEMA))
        schema = catalog.load_schema(str(tmp_path / "schema.json"))
        rk = [1, 1, 2, 3, 3, 3, 4, 5, 6, 6]
        written = {
            "r": make_table("r", {
                "k": rk, "c": [self.CATEGORY[k] for k in rk],
                "x": [0.1, -2.5, 1e-300, 3.0, 0.0, 7.25, 2.0 ** 60, -0.0,
                      1 / 3, 5.5]},
                nulls={"x": [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]}),
            "s": make_table("s", {
                "k": [1, 2, 2, 3, 4, 4, 5, 6, 6, 0],
                "c": ["a,b", 'say "hi"', "", "x", "it's", "x", "b", "",
                      "x", "x"]},
                nulls={"c": [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
                       "k": [0] * 9 + [1]})}
        tables = {}
        for name, data in written.items():
            tdef = schema.table(name)
            catalog.write_table_csv(data, tdef, str(tmp_path / f"{name}.csv"))
            tables[name] = catalog.ingest_table(tdef, schema)
            for col, mask in data.null_mask.items():
                got = tables[name]
                assert got.null_mask[col].tolist() == mask.tolist()
                assert got.columns[col][~mask].tolist() == \
                    data.columns[col][~mask].tolist()
        state = tmp_path / "state.json"
        # two bins of three keys each: every key is held in a container
        assert main(["build", "--schema", str(tmp_path / "schema.json"),
                     "--state", str(state), "--bins", "2", "--k", "3"]) == 0
        assert load_state(str(state)).correlations
        # key exclusion drops exactly the keys whose category is not 'x'
        self.check_estimates(state, tables, self.QUERIES + [
            "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.c = 'x'"])

        batch = make_table("r", {"k": [2, 5, 1], "c": ["w", "x", "w"],
                                 "x": [1.5, 2.5, 3.5]})
        catalog.write_table_csv(batch, schema.table("r"),
                                str(tmp_path / "batch.csv"))
        assert main(["update", "--state", str(state), "--table", "r",
                     "--csv", str(tmp_path / "batch.csv")]) == 0
        r = tables["r"]
        tables["r"] = catalog.TableData(
            name="r", row_count=r.row_count + batch.row_count,
            columns={c: np.concatenate([r.columns[c], batch.columns[c]])
                     for c in r.columns},
            null_mask={c: np.concatenate([r.null_mask[c],
                                          batch.null_mask[c]])
                       for c in r.columns})
        self.check_estimates(state, tables, self.QUERIES)
