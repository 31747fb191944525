"""`scripts/bench_record.py` on canned run records: the run order, what it
keeps of each run, and the medians, IQRs, wins and gates it writes."""
import importlib.util
import json
import os
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "estimate_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "estimate_qps", "better": "higher", "bound": 0.25}],
}


def canned_run(side, seed, round_, p50, qps, gate_ok=True, error_rate=0.0,
               exit_code=0):
    return {"side": side, "seed": seed, "round": round_,
            "exit_code": exit_code,
            "workloads": {"w": {
                "git_sha": side, "source_sha256": side, "correct": gate_ok,
                "error_rate": error_rate,
                "metrics": {"estimate_ms_p50": p50, "estimate_qps": qps},
                "gates": {"exact": gate_ok}}}}


def test_schedule_alternates_which_side_runs_first():
    assert bench_record.schedule(2) == [
        (0, 1, "parent"), (0, 1, "change"), (0, 7, "parent"),
        (0, 7, "change"), (1, 1, "change"), (1, 1, "parent"),
        (1, 7, "change"), (1, 7, "parent")]


def test_read_run_keeps_each_record(tmp_path):
    runs = tmp_path / ".perfbench" / "runs"
    runs.mkdir(parents=True)
    record = {"git_sha": "abc", "source_sha256": "def", "correct": True,
              "error_rate": 0.0, "metrics": {"estimate_ms_p50": 0.3},
              "gates": [{"name": "exact", "ok": True, "detail": "9/9"}],
              "accuracy": []}
    (runs / "w-s7-t0.json").write_text(json.dumps(record))
    got = bench_record.read_run(str(tmp_path), 7, 3, BENCHMARK)
    assert got == {"w": {"git_sha": "abc", "source_sha256": "def",
                         "correct": True, "error_rate": 0.0,
                         "metrics": {"estimate_ms_p50": 0.3,
                                     "estimate_qps": 0.0},
                         "gates": {"exact": True}, "accuracy": {}}}
    assert json.loads((runs / "w-s7-t0-r3.json").read_text()) == record
    later = os.path.getmtime(runs / "w-s7-t0.json") + 1
    with pytest.raises(SystemExit, match="no record from this run"):
        bench_record.read_run(str(tmp_path), 7, 4, BENCHMARK, since=later)


def test_summarise_medians_iqr_wins_and_gates():
    parent_p50 = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_p50 = [0.5, 2.5, 2.0, 3.0, 5.0]  # won 3, lost 1, one tie
    runs = [canned_run("parent", 1, r, p, 100.0) for r, p in
            enumerate(parent_p50)]
    runs += [canned_run("change", 1, r, c, 100.0 + r, gate_ok=r != 2)
             for r, c in enumerate(change_p50)]
    runs.append(canned_run("parent", 7, 0, 1.0, 10.0))  # no change run
    out = bench_record.summarise(runs, BENCHMARK)
    p50 = out["metrics"]["1"]["w"]["estimate_ms_p50"]
    assert p50 == {"parent_median": 3.0, "change_median": 2.5,
                   "parent_iqr": 2.0, "change_iqr": 1.0,
                   "change_won": 3, "rounds": 5}
    qps = out["metrics"]["1"]["w"]["estimate_qps"]
    assert qps["change_median"] == 102.0 and qps["change_won"] == 4
    assert "7" not in out["metrics"]
    assert out["gates"]["change"]["w"]["exact"] == {"passed": 4, "runs": 5}
    assert out["gates"]["parent"]["w"]["exact"] == {"passed": 6, "runs": 6}
    assert out["failed_gates"] == [{"side": "change", "seed": 1, "round": 2,
                                    "workload": "w", "gate": "exact"}]


CHAIN = ("SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.k1 = t2.k1 "
         "AND t2.k2 = t3.k2")
STAR = "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.k1 = t2.k1 AND t3.k1 = t2.k1"


@pytest.mark.parametrize("sql, shape", [
    (STAR, "3 tables one domain unfiltered"),
    (CHAIN, "3 tables chain unfiltered"),
    (CHAIN + " AND t1.y BETWEEN 2 AND 5", "3 tables chain filtered"),
    ("SELECT COUNT(*) FROM t1, t2 WHERE t1.y BETWEEN 1 AND 3 "
     "AND t1.k1 = t2.k1 AND t2.y IN (1, 2)", "2 tables one domain filtered"),
    ("SELECT COUNT(*) FROM t1 WHERE t1.y < 3", "1 tables one domain filtered"),
])
def test_query_shape(sql, shape):
    """The join columns' components decide chain or one domain; a BETWEEN's
    AND is no join."""
    assert bench_record.query_shape(sql) == shape


def test_shape_accuracy_counts_apart_what_has_no_q_error():
    entries = [{"sql": CHAIN, "value": v, "truth": t} for v, t in [
        (10.0, 1.0), (1.0, 10.0), (100.0, 1.0), (2.0, 2.0),
        (None, 5.0), (float("nan"), 5.0), (-1.0, 5.0), (3.0, 0.0),
        (0.0, 4.0)]]
    entries.append({"sql": STAR, "value": 8.0, "truth": 4.0})
    out = bench_record.shape_accuracy(entries)
    assert list(out) == ["3 tables chain unfiltered",
                         "3 tables one domain unfiltered"]
    chain = out["3 tables chain unfiltered"]
    assert chain == pytest.approx({
        "queries": 9, "failed": 3, "zero_truth": 1, "zero_estimate": 1,
        "q_p50": 10.0, "q_p95": 86.5, "q_max": 100.0, "over_share": 0.5,
        "log10_q_var": 0.5})  # log10 q: 1, 1, 2, 0
    assert out["3 tables one domain unfiltered"]["q_p50"] == 2.0
    assert bench_record.shape_accuracy([{"sql": STAR, "value": None,
                                         "truth": 1.0}])[
        "3 tables one domain unfiltered"]["q_p50"] is None


def test_accuracy_is_summarised_and_compared_by_shape():
    def run(side, round_, value):
        out = canned_run(side, 1, round_, 1.0, 1.0)
        out["workloads"]["w"]["accuracy"] = bench_record.shape_accuracy(
            [{"sql": CHAIN, "value": value, "truth": 2.0}])
        return out

    runs = [run("parent", 0, 4.0), run("change", 0, 2.0),
            run("parent", 1, 4.0), run("change", 1, 3.0)]
    bench = bench_record.bench_file(runs, 2, BENCHMARK)
    parent = bench["accuracy"]["parent"]["1"]["w"]
    assert parent["rounds"] == parent["rounds_alike"] == 2
    assert parent["shapes"]["3 tables chain unfiltered"]["q_p50"] == 2.0
    assert bench["accuracy"]["change"]["1"]["w"]["rounds_alike"] == 1
    lines, ok = bench_record.compare_lines(bench, BENCHMARK)
    assert ok  # accuracy has no bound
    assert lines[-2:] == [
        "seed 1 w 3 tables chain unfiltered: 1 queries, q p50 2 p95 2 max "
        "2, 100% over -> 1 queries, q p50 1 p95 1 max 1, 0% over",
        "seed 1 w change accuracy: 1 of 2 rounds read as the first"]


def test_compare_flags_a_move_past_its_bound():
    runs = [canned_run("parent", 1, 0, 1.0, 100.0),
            canned_run("change", 1, 0, 1.2, 70.0)]
    lines, ok = bench_record.compare_lines(
        bench_record.bench_file(runs, 1, BENCHMARK), BENCHMARK)
    assert not ok
    assert lines[0].startswith("seed 1 w estimate_ms_p50: 1 -> 1.2 "
                               "(20.0% worse, bound 25%) ok")
    assert "(30.0% worse, bound 25%) PAST BOUND" in lines[1]
    runs[1] = canned_run("change", 1, 0, 0.8, 110.0, error_rate=0.1)
    lines, ok = bench_record.compare_lines(
        bench_record.bench_file(runs, 1, BENCHMARK), BENCHMARK)
    assert not ok  # a larger share of failed operations
    assert lines[-1] == "seed 1 w error_rate max: 0 -> 0.1"
    runs[1] = canned_run("change", 1, 0, 0.8, 110.0)
    assert bench_record.compare_lines(
        bench_record.bench_file(runs, 1, BENCHMARK), BENCHMARK)[1]
    runs[1] = canned_run("change", 1, 0, 0.8, 110.0, exit_code=1)
    lines, ok = bench_record.compare_lines(
        bench_record.bench_file(runs, 1, BENCHMARK), BENCHMARK)
    assert not ok  # a run that exited non-zero
    assert lines[-1] == "run FAIL exit 1: change seed 1 round 0"


def test_record_keeps_the_runs_before_one_that_fails(tmp_path,
                                                     monkeypatch):
    """The file is rewritten after each run: when the third run leaves no
    record, the first two are in it."""
    made = []

    def fake_read_run(checkout, seed, round_, benchmark, since):
        if len(made) == 2:
            raise SystemExit("no record from this run")
        made.append(checkout)
        return canned_run(checkout, seed, round_, 1.0, 1.0)["workloads"]

    monkeypatch.setattr(bench_record, "load_benchmark", lambda: BENCHMARK)
    monkeypatch.setattr(bench_record, "read_run", fake_read_run)
    monkeypatch.setattr(bench_record.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(
                            a, 0, stdout="ok\n", stderr=""))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench_record.record("parent", "change", 2, str(out))
    bench = json.loads(out.read_text())
    assert [(r["side"], r["seed"]) for r in bench["runs"]] == [
        ("parent", 1), ("change", 1)]
    assert bench["rounds"] == 2
    assert bench["metrics"]["1"]["w"]["estimate_ms_p50"]["rounds"] == 1


def test_reads_the_repository_benchmark():
    benchmark = bench_record.load_benchmark()
    assert {m["name"] for m in benchmark["end_to_end"]} >= {
        "estimate_ms_p50", "estimate_ms_p95", "peak_rss_mb"}
