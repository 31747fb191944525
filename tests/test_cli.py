import json
import os

import pytest

from tkhist.cli import main
from tkhist.state import load_state


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

    def test_capped_oracle_fails_only_its_query(self, built, tmp_path,
                                                capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1\n"
                      "SELECT COUNT(*) FROM t1, t2 WHERE t1.k1 = t2.k1 || 7\n")
        rep = tmp_path / "rep.jsonl"
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl),
                   "--out", str(rep), "--oracle", "--oracle-cap", "10"])
        assert rc == 1
        capped, given = [json.loads(l) for l in rep.read_text().splitlines()]
        assert "cap" in capped["error"]
        assert given["truth"] == 7 and given.get("error") is None
        summary = json.loads(capsys.readouterr().err)["summary"]
        assert (summary["queries"], summary["failed"]) == (2, 1)

    def test_broken_query_sets_exit_code(self, built, tmp_path):
        wl = tmp_path / "wl.txt"
        wl.write_text("SELECT COUNT(*) FROM missing_table\n")
        rc = main(["evaluate", "--state", str(built), "--workload", str(wl)])
        assert rc == 1


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
