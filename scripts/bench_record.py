#!/usr/bin/env python3
"""A before/after benchmark file from alternating perfbench runs.

    python3 scripts/bench_record.py --parent ../parent --change ../change \\
        --rounds 6 --out BENCH.json
    python3 scripts/bench_record.py --compare BENCH.json

Each round runs `python3 perfbench/run.py --workload all --seed S
--seconds 10 --trace 0` once in each checkout, from the checkout's root, at
each seed of SEEDS: the parent first in even rounds, the change first in
odd ones, one run at a time.  A run overwrites its checkout's
`.perfbench/runs/<workload>-s<seed>-t0.json`, so each record is read right
after its run and copied beside it as `<workload>-s<seed>-t0-r<round>.json`,
which keeps every run's per-query estimates and latencies.

The output file holds both checkouts' git SHAs and source digests, the
seeds and rounds, every run's end-to-end metrics, error rate and gates, and
per seed, workload and end-to-end metric of `BENCHMARK.json`: the parent's
and the change's median, each side's interquartile range, and the rounds in
which the change was better than the parent run of its round (ties count
for neither).  Its `accuracy` section holds, per side, seed and workload,
the q-error of each query shape (`shape_accuracy`) over the record's
accuracy queries, and the rounds whose shapes read the same as the first.
`--compare` prints each median's move against its `BENCHMARK.json` bound
and each shape's move, and exits 1 when a move is past its bound, a gate
failed, a run exited non-zero or the change failed a larger share of
operations.  The file is rewritten after every run, so that a run that
leaves no record ends the recording with the runs before it kept.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from tkhist.queryfront import parse_sql  # noqa: E402  (the tree's own parser)
SEEDS = (1, 7)
SECONDS = 10
SIDES = ("parent", "change")


def load_benchmark(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def schedule(rounds: int) -> list[tuple[int, int, str]]:
    """(round, seed, side) in run order: per round each seed, the parent
    first in even rounds."""
    return [(r, seed, side) for r in range(rounds) for seed in SEEDS
            for side in (SIDES if r % 2 == 0 else SIDES[::-1])]


def read_run(checkout: str, seed: int, round_: int, benchmark: dict,
             since: float = 0.0) -> dict:
    """Each workload's result of the run just made in `checkout`, which
    started at time `since`: its end-to-end metrics, error rate and gates;
    the record is copied beside itself under its round's name before the
    next run overwrites it."""
    runs = os.path.join(checkout, ".perfbench", "runs")
    names = [m["name"] for m in benchmark["end_to_end"]]
    out = {}
    for w in benchmark["workloads"]:
        path = os.path.join(runs, f"{w['name']}-s{seed}-t0.json")
        if os.path.getmtime(path) < since:
            raise SystemExit(f"{path}: no record from this run")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        shutil.copyfile(path, path[:-len(".json")] + f"-r{round_}.json")
        out[w["name"]] = {
            "git_sha": record["git_sha"],
            "source_sha256": record["source_sha256"],
            "correct": record["correct"],
            "error_rate": record["error_rate"],
            "metrics": {n: record["metrics"].get(n, 0.0) for n in names},
            "gates": {g["name"]: g["ok"] for g in record["gates"]},
            "accuracy": shape_accuracy(record["accuracy"])}
    return out


def query_shape(sql: str) -> str:
    """A query's shape: its table count; "one domain" when its join columns
    form at most one connected component, else "chain"; filtered or not."""
    query = parse_sql(sql)
    root = {}  # join column -> a column of its component

    def find(col):
        while root.setdefault(col, col) != col:
            col = root[col]
        return col

    for a, b in query.join_edges:
        root[find(a)] = find(b)
    chain = len({find(col) for col in root}) > 1
    return (f"{len(query.aliases)} tables "
            f"{'chain' if chain else 'one domain'} "
            f"{'filtered' if query.predicates else 'unfiltered'}")


def _failed(entry: dict) -> bool:
    """No estimate, or one that is not finite or is negative."""
    value = entry["value"]
    return value is None or not math.isfinite(value) or value < 0


def shape_accuracy(accuracy: list[dict]) -> dict:
    """Per query shape of a run record's `accuracy` entries (`sql`, estimate
    `value`, `truth`): the query count; the failed ones (`_failed`), those
    of zero truth and those estimated 0 against a positive truth, counted
    apart; and over the rest, the q-error's p50, p95 and max (numpy's
    linear percentile, as perfbench reads them), the share of
    overestimates and the variance of log10 q."""
    groups = {}
    for entry in accuracy:
        groups.setdefault(query_shape(entry["sql"]), []).append(entry)
    out = {}
    for shape, entries in sorted(groups.items()):
        ok = [e for e in entries if not _failed(e)]
        scored = [e for e in ok if e["truth"] and e["value"]]
        value = np.array([e["value"] for e in scored], dtype=np.float64)
        truth = np.array([e["truth"] for e in scored], dtype=np.float64)
        q = np.maximum(value / truth, truth / value)
        out[shape] = {
            "queries": len(entries),
            "failed": len(entries) - len(ok),
            "zero_truth": sum(e["truth"] == 0 for e in ok),
            "zero_estimate": sum(e["value"] == 0 and bool(e["truth"])
                                 for e in ok),
            "q_p50": float(np.percentile(q, 50)) if len(q) else None,
            "q_p95": float(np.percentile(q, 95)) if len(q) else None,
            "q_max": float(q.max()) if len(q) else None,
            "over_share": float(np.mean(value > truth)) if len(q) else None,
            "log10_q_var": float(np.var(np.log10(q))) if len(q) else None}
    return out


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: list[dict], benchmark: dict) -> dict:
    """Per seed with a pair of runs, workload and end-to-end metric, each
    side's median and IQR and the rounds the change won; per side, such
    seed and workload, the shapes' accuracy of the first paired round and
    the paired rounds that read the same; per side, workload and gate, the
    runs that passed it; and every failed gate."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    by = {(r["side"], r["seed"], r["round"]): r["workloads"] for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    rounds = sorted({r["round"] for r in runs})
    summary, accuracy = {}, {side: {} for side in SIDES}
    for seed in seeds:
        paired = [r for r in rounds
                  if all((s, seed, r) in by for s in SIDES)]
        if not paired:
            continue
        per_wl = summary[str(seed)] = {}
        for w in benchmark["workloads"]:
            wl = w["name"]
            per_wl[wl] = {}
            for name, direction in better.items():
                values = {s: [by[(s, seed, r)][wl]["metrics"][name]
                              for r in paired] for s in SIDES}
                sign = 1 if direction == "lower" else -1
                won = sum(sign * (c - p) < 0 for p, c in
                          zip(values["parent"], values["change"]))
                per_wl[wl][name] = {
                    "parent_median": statistics.median(values["parent"]),
                    "change_median": statistics.median(values["change"]),
                    "parent_iqr": _iqr(values["parent"]),
                    "change_iqr": _iqr(values["change"]),
                    "change_won": won, "rounds": len(paired)}
            for side in SIDES:
                rates = [by[(side, seed, r)][wl]["error_rate"]
                         for r in paired]
                per_wl[wl][f"{side}_error_rate_max"] = max(rates)
                shapes = [by[(side, seed, r)][wl].get("accuracy", {})
                          for r in paired]
                accuracy[side].setdefault(str(seed), {})[wl] = {
                    "shapes": shapes[0], "rounds": len(paired),
                    "rounds_alike": sum(s == shapes[0] for s in shapes)}
    gates, failed = {}, []
    for r in runs:
        for wl, result in r["workloads"].items():
            for gate, ok in result["gates"].items():
                count = gates.setdefault(r["side"], {}).setdefault(
                    wl, {}).setdefault(gate, {"passed": 0, "runs": 0})
                count["runs"] += 1
                count["passed"] += bool(ok)
                if not ok:
                    failed.append({"side": r["side"], "seed": r["seed"],
                                   "round": r["round"], "workload": wl,
                                   "gate": gate})
    return {"metrics": summary, "accuracy": accuracy, "gates": gates,
            "failed_gates": failed}


def _move_text(move: float) -> str:
    if move == 0:
        return "unchanged"
    return f"{abs(move):.1%} {'worse' if move > 0 else 'better'}"


def _shape_text(stats: dict | None) -> str:
    if stats is None:
        return "absent"
    if stats["q_p50"] is None:
        return f"{stats['queries']} queries, none scored"
    return (f"{stats['queries']} queries, q p50 {stats['q_p50']:.4g} p95 "
            f"{stats['q_p95']:.4g} max {stats['q_max']:.4g}, "
            f"{stats['over_share']:.0%} over")


def accuracy_lines(accuracy: dict) -> list[str]:
    """One line per seed, workload and query shape: each side's q-error
    (`_shape_text`), and one more where a side's rounds read differently."""
    lines = []
    for seed, per_wl in accuracy.get("parent", {}).items():
        for wl, parent in per_wl.items():
            change = accuracy["change"][seed][wl]
            for shape in sorted({*parent["shapes"], *change["shapes"]}):
                p, c = parent["shapes"].get(shape), change["shapes"].get(shape)
                lines.append(f"seed {seed} {wl} {shape}: {_shape_text(p)} "
                             f"-> {_shape_text(c)}"
                             + (" (unchanged)" if p == c else ""))
            for side, acc in (("parent", parent), ("change", change)):
                if acc["rounds_alike"] != acc["rounds"]:
                    lines.append(f"seed {seed} {wl} {side} accuracy: "
                                 f"{acc['rounds_alike']} of {acc['rounds']} "
                                 f"rounds read as the first")
    return lines


def compare_lines(bench: dict, benchmark: dict) -> tuple[list[str], bool]:
    """One line per seed, workload and metric: the medians, the move as a
    share of the parent's median, worse or better, the bound and the
    rounds won; the shapes' `accuracy_lines`; and whether every move is
    inside its bound, every gate passed, every run exited 0 and the
    change's error rate is not above the parent's."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in benchmark["end_to_end"]}
    lines, ok = [], not bench["failed_gates"]
    for seed, per_wl in bench["metrics"].items():
        for wl, metrics in per_wl.items():
            for name, (bound, direction) in bounds.items():
                m = metrics[name]
                p, c = m["parent_median"], m["change_median"]
                move = (c - p) / abs(p) if p else (0.0 if c == p else
                                                   float("inf"))
                if direction == "higher":
                    move = -move
                inside = move <= bound
                ok &= inside
                lines.append(
                    f"seed {seed} {wl} {name}: {p:.6g} -> {c:.6g} "
                    f"({_move_text(move)}, bound {bound:.0%}) "
                    f"{'ok' if inside else 'PAST BOUND'}, change won "
                    f"{m['change_won']}/{m['rounds']}, parent IQR "
                    f"{m['parent_iqr']:.3g}")
            rates = (metrics["parent_error_rate_max"],
                     metrics["change_error_rate_max"])
            ok &= rates[1] <= rates[0]
            lines.append(f"seed {seed} {wl} error_rate max: "
                         f"{rates[0]:.3g} -> {rates[1]:.3g}")
    lines += accuracy_lines(bench.get("accuracy", {}))
    for f in bench["failed_gates"]:
        lines.append(f"gate FAIL {f['gate']}: {f['side']} {f['workload']} "
                     f"seed {f['seed']} round {f['round']}")
    for r in bench["runs"]:
        if r["exit_code"]:
            ok = False
            lines.append(f"run FAIL exit {r['exit_code']}: {r['side']} "
                         f"seed {r['seed']} round {r['round']}")
    return lines, ok


def bench_file(runs: list[dict], rounds: int, benchmark: dict) -> dict:
    """The benchmark file of the runs made so far."""
    ids = {side: {key: sorted({w[key] for r in runs if r["side"] == side
                               for w in r["workloads"].values()}, key=str)
                  for key in ("git_sha", "source_sha256")}
           for side in SIDES}
    return {"command": (f"python3 perfbench/run.py --workload all --seed S "
                        f"--seconds {SECONDS} --trace 0"),
            "seeds": list(SEEDS), "rounds": rounds, **ids,
            **summarise(runs, benchmark), "runs": runs}


def record(parent: str, change: str, rounds: int, out: str) -> None:
    """Make the runs of `schedule(rounds)`, rewriting `out` after each, so
    that a run that fails to leave a record keeps the ones before it."""
    benchmark = load_benchmark()
    checkouts = {"parent": parent, "change": change}
    runs = []
    for round_, seed, side in schedule(rounds):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", "all", "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
        since = time.time()
        done = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                              text=True, check=False)
        if not done.stdout.strip():
            raise SystemExit(f"{side} run made no output: {done.stderr}")
        runs.append({"side": side, "seed": seed, "round": round_,
                     "exit_code": done.returncode,
                     "workloads": read_run(checkouts[side], seed, round_,
                                           benchmark, since)})
        print(f"round {round_} seed {seed} {side} exit {done.returncode}",
              file=sys.stderr, flush=True)
        with open(out + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(bench_file(runs, rounds, benchmark), fh, indent=1)
            fh.write("\n")
        os.replace(out + ".tmp", out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="the parent's checkout")
    ap.add_argument("--change", help="the change's checkout")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--out", help="the benchmark file to write")
    ap.add_argument("--compare", metavar="FILE",
                    help="print a written file's moves against the bounds")
    args = ap.parse_args(argv)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            lines, ok = compare_lines(json.load(fh), load_benchmark())
        print("\n".join(lines))
        return 0 if ok else 1
    if not (args.parent and args.change and args.out) or args.rounds < 1:
        ap.error("--parent, --change and --out are needed, and --rounds "
                 "must be at least 1")
    record(args.parent, args.change, args.rounds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
