#!/usr/bin/env python3
"""tkhist benchmark: build, estimate and update paths, with exact truths.

    python3 perfbench/run.py --workload filtered-corr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the program is imported from `src/`.  One
workload runs in one process with one closed-loop client: each estimate is
sent after the previous one returned.  The inputs come from `--seed`
through `tkhist.synth`; the program only reads their CSV files and SQL text.

Timings are scaled to a fixed machine speed.  On a CPU shared with other
tenants the speed of the same Python code drifts by a quarter within
seconds and by up to half between runs, so the run interleaves a fixed
pure-Python reference probe with the program's calls: one probe before
each estimate, three before and after each update, and three between the
stages of each set-up.  A scaled time is the wall time times REF_PROBE_MS
over the median time of the probes next to it: the one before an
estimate, the six around an update batch or a set-up stage; percentiles
and rates are taken over scaled times.  They read as milliseconds (or
seconds) on a machine where the probe takes REF_PROBE_MS, about the
probe's typical time on the 2-core 2.0 GHz Xeon machine the benchmark was
defined on.  Raw wall times are printed as `raw` lines and kept in the run
record.

Filtered-corr and joins-fullk run their estimate loop for `--seconds`
(and for at least MIN_ESTIMATES estimates, up to the end of a block of the
query mix), then apply PROBE_BATCHES update batches so that update throughput exists for every state shape.
Update-mix applies max(`--seconds`, 5) batches, each followed by a reload
and its fixed query set, so that its accuracy and state size do not depend
on the program's speed.

With `--trace 0` the end-to-end metrics are measured with no wrapper
installed.  With `--trace 1` the same run alternates untraced and traced
estimates, traces the last set-up and every update, and reports per-layer
metrics and the tracing overhead instead.  Each metric is printed as
`metric <name> <value> <unit> n=<samples>`; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A run record with the
environment, the gates and every metric is written under `.perfbench/runs/`.
The exit code is non-zero when a correctness gate fails.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3
MIN_ESTIMATES = 200  # so that at least ten samples lie beyond the p95
EXACT_RTOL = 1e-9
PROBE_ROUNDS = 6
REF_PROBE_MS = 0.7

END_TO_END = [
    ("setup_s", "s"), ("state_bytes", "bytes"), ("peak_rss_mb", "MiB"),
    ("estimate_ms_p50", "ms"), ("estimate_ms_p95", "ms"),
    ("estimate_qps", "1/s"), ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"), ("qerror_max", "ratio"),
    ("update_rows_per_s", "rows/s"),
]
PER_LAYER = [
    ("catalog.ingest_s", "s"), ("catalog.domain_bounds_s", "s"),
    ("histcore.build1d_s", "s"), ("histcore.build2d_s", "s"),
    ("histcore.container_coverage", "ratio"),
    ("histcore.insert_calls", "count"),
    ("djpcd.discover_s", "s"), ("djpcd.envelope_scan_s", "s"),
    ("djpcd.envelopes", "count"), ("djpcd.find_excluded_s", "s"),
    ("djpcd.excluded_keys", "count"),
    ("djpcd.unsound_excluded_keys", "count"),
    ("state.save_s", "s"), ("state.load_s", "s"),
    ("state.bytes.hists1d", "bytes"), ("state.bytes.hists2d", "bytes"),
    ("state.bytes.correlations", "bytes"), ("state.bytes.freq", "bytes"),
    ("state.bytes.other", "bytes"),
    ("queryfront.parse_bind_s", "s"), ("queryfront.decompose_s", "s"),
    ("estimator.estimate_s", "s"), ("estimator.run_plan_self_s", "s"),
    ("predicate.selectivity_s", "s"),
    ("joinengine.lift_s", "s"), ("joinengine.apply_filters_s", "s"),
    ("joinengine.star_fold_s", "s"), ("joinengine.jtkh_join_calls", "count"),
    ("joinengine.chain_translate_s", "s"),
    ("joinengine.chain_translate_calls", "count"),
    ("cli.update_s", "s"), ("cli.update_state_io_s", "s"),
    ("cli.update_rows_inserted", "count"),
    ("cli.update_rows_rejected", "count"),
    ("trace.estimate_p50_ratio", "ratio"), ("trace.setup_ratio", "ratio"),
]


def _import_program():
    """Import tkhist from this checkout's src/ and nowhere else.

    numpy reads the thread variables when it is first imported, so this
    runs before any import of numpy, tkhist or the benchmark's own modules;
    that is why those are imported inside the functions below."""
    for var in BLAS_VARS:  # this process only
        os.environ[var] = "1"
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, SRC)
    try:
        import tkhist
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tkhist from {SRC}: {exc}")
    if not os.path.abspath(tkhist.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: tkhist was imported from "
                         f"{tkhist.__file__}, not from {SRC}")


def reference_probe() -> float:
    """Seconds taken by a fixed workload of small dict builds, the kind of
    interpreter and allocator work the program mostly does.  The dicts stay
    small so that they come from the heap and the cache, never from fresh
    pages, which would time the kernel instead of the CPU."""
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        d = {}
        for i in range(1000):
            d[i] = i * 3
        sum(d.values())
    return time.perf_counter() - t0


def _scale(probes: list[float]) -> float:
    return REF_PROBE_MS / (statistics.median(probes) * 1000.0)


def _percentile(values: list[float], p: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def _run_record(args) -> dict:
    import numpy as np
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tkhist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
    }


class Bench:
    """One workload run: set-up, the measured loop, truths and gates."""

    def __init__(self, args, workdir: str):
        from tkhist import queryfront
        from tracing import Tracer
        from workloads import WORKLOADS
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.workdir = workdir
        self.state_path = os.path.join(workdir, "state.json")
        self.tracer = Tracer() if args.trace else None
        self.queryfront = queryfront
        self.setups: list[dict] = []  # per set-up: stage seconds, traced
        self.estimates: list[dict] = []  # one per estimate call
        self.updates: list[dict] = []  # one per update batch
        self.probes: dict[str, list[float]] = {
            "setup": [], "estimate": [], "update": []}
        self.phases: dict[str, float] = {}  # harness wall time per phase
        self.gates: list[tuple[str, bool, str]] = []
        self.reports: list[tuple[str, bool, str]] = []  # checks not gated
        self.metrics: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.accuracy: list[dict] = []
        self.zero_truths = 0
        self.attempted = self.failed = 0

    def probe(self, phase: str, count: int = 1) -> list[float]:
        times = [reference_probe() for _ in range(count)]
        self.probes[phase].extend(times)
        return times

    def scale(self, phase: str) -> float:
        """Factor from measured time to time at the reference speed."""
        return _scale(self.probes[phase])

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + time.perf_counter() - t0)

    # -- build path --------------------------------------------------------

    def setup_once(self, schema_path: str) -> tuple[dict, float, object]:
        """Program time from CSV files to a loaded state ready to answer:
        seconds per stage, and their sum scaled stage by stage by the probes
        just before and after each stage."""
        from tkhist import catalog, estimator, state as state_mod
        from workloads import BINS
        stages: dict[str, float] = {}
        blocks = [self.probe("setup", 3)]

        def stage(name, fn, *fn_args):
            t0 = time.perf_counter()
            out = fn(*fn_args)
            stages[name] = time.perf_counter() - t0
            blocks.append(self.probe("setup", 3))
            return out

        config = state_mod.BuildConfig(bin_count=BINS, top_k=self.w.top_k)
        schema = stage("schema", catalog.load_schema, schema_path)
        tables = stage("ingest", state_mod.ingest_all, schema)
        st = stage("build", state_mod.build_state, schema, tables, config)
        if self.w.discover:
            stage("discover", estimator.discover_correlations, st, tables)
        stage("save", state_mod.save_state, st, self.state_path)
        st = stage("load", state_mod.load_state, self.state_path)
        scaled = sum(seconds * _scale(before + after) for seconds, before, after
                     in zip(stages.values(), blocks, blocks[1:]))
        return stages, scaled, st

    def setup(self, schema_path: str):
        st = None
        for rep in range(SETUP_REPS):
            traced = self.tracer is not None and rep == SETUP_REPS - 1
            st = None  # free the previous state before building the next
            gc.collect()
            if traced:
                self.tracer.install("setup")
            try:
                stages, scaled, st = self.setup_once(schema_path)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.setups.append({"traced": traced, "stages": stages,
                                "seconds": sum(stages.values()),
                                "scaled": scaled})
        return st

    # -- estimate path -----------------------------------------------------

    def estimate(self, sql: str, st, batch: int | None = None) -> dict:
        from tkhist import estimator
        n = len(self.estimates)
        traced = self.tracer is not None and n % 2 == 1
        probe = self.probe("estimate")[0]
        if traced:
            self.tracer.install(f"q{n}")
        t0 = time.perf_counter()
        try:
            value, error = estimator.estimate(sql, st).estimate, None
        except Exception as exc:  # a failing estimate is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        rec = {"sql": sql, "value": value, "seconds": seconds, "probe": probe,
               "traced": traced, "error": error, "batch": batch,
               "truth": None}
        self.estimates.append(rec)
        return rec

    # -- update path -------------------------------------------------------

    def update(self, st, table: str, csv_path: str, rows):
        """One `tkhist update` batch, in process; returns the mask of rows
        whose keys lie inside the key domains of `st`, which the update must
        accept."""
        import numpy as np
        from tkhist import cli
        accept = np.ones(rows.row_count, dtype=bool)
        for kc in st.key_columns(table):
            dom = st.domains[st.column_domain[f"{table}.{kc}"]]
            v = rows.columns[kc].astype(np.float64)
            accept &= rows.null_mask[kc] | ((v >= dom.lo) & (v <= dom.hi))
        out = io.StringIO()
        probes = self.probe("update", 3)
        if self.tracer is not None:
            self.tracer.install(f"u{len(self.updates)}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code, error = cli.main(["update", "--state", self.state_path,
                                        "--table", table, "--csv", csv_path]), None
        except Exception as exc:  # a failing update is counted, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()
        probes += self.probe("update", 3)
        # "inserted <n> rows, rejected <m> (out-of-range key); ..."
        printed = out.getvalue().split()
        inserted = int(printed[1]) if code == 0 else 0
        rejected = int(printed[4]) if code == 0 else 0
        self.updates.append({
            "table": table, "seconds": seconds, "scale": _scale(probes),
            "code": code, "error": error,
            "inserted": inserted, "rejected": rejected,
            "expected_inserted": int(accept.sum())})
        return accept

    # -- truths and gates --------------------------------------------------

    def bind(self, schema, sql: str):
        return self.queryfront.bind(self.queryfront.parse_sql(sql), schema)

    def check_exclusions(self, schema, st, tables,
                         recs: list[dict]) -> tuple[int, int]:
        """(excluded keys, excluded keys with rows passing the filter).

        A key excluded on a domain is sound when some predicate of the query
        is passed by no row of its table that carries the key in that
        domain's column."""
        import numpy as np
        from tkhist import djpcd
        from truth import predicate_mask
        if not st.correlations:
            return 0, 0
        excluded_total = unsound = 0
        sat_cache: dict = {}
        for rec in recs:
            query = self.bind(schema, rec["sql"])
            excluded = djpcd.find_excluded_keys(query, st.correlations,
                                                st.column_domain)
            excluded_total += sum(len(keys) for keys in excluded.values())
            for dom, keys in excluded.items():
                keys = np.asarray(sorted(keys))
                killed = np.zeros(len(keys), dtype=bool)
                for pred in query.predicates:
                    alias, col = pred.column.split(".", 1)
                    table = query.aliases[alias]
                    data = tables[table]
                    for kc in st.key_columns(table):
                        if st.column_domain[f"{table}.{kc}"] != dom:
                            continue
                        cache_key = (table, kc, pred)
                        if cache_key not in sat_cache:
                            hit = predicate_mask(pred, data.columns[col],
                                                 data.null_mask[col])
                            hit &= ~data.null_mask[kc]
                            sat_cache[cache_key] = np.unique(
                                data.columns[kc][hit])
                        killed |= ~np.isin(keys, sat_cache[cache_key])
                unsound += int((~killed).sum())
        return excluded_total, unsound

    def check_state(self, st, tables) -> None:
        """Container coverage, envelope count and, on the full-capture
        workload, the precondition that no bin holds more than k keys."""
        import numpy as np
        rows = sum(h.total_rows for h in st.hists1d.values())
        held = sum(sum(b.topk.values()) for h in st.hists1d.values()
                   for b in h.bins)
        self.metrics["histcore.container_coverage"] = held / rows if rows else 0.0
        self.metrics["djpcd.envelopes"] = sum(
            len(env) for env in (st.correlations or {}).values())
        if self.w.queries != "joins":
            return
        worst = 0
        for (table, kc), hist in st.hists1d.items():
            distinct = np.unique(tables[table].non_null(kc))
            per_bin = np.bincount(hist.domain.bins_of(distinct),
                                  minlength=hist.domain.bin_count)
            worst = max(worst, int(per_bin.max()))
        self.gates.append((
            "full_capture_precondition", worst <= self.w.top_k,
            f"at most {worst} distinct keys per bin in the data, k = "
            f"{self.w.top_k}"))

    def gate_exact(self, schema, st) -> None:
        """Single-domain estimates equal the truth at full capture."""
        worst, checked = 0.0, 0
        for rec in self.estimates:
            if rec["truth"] is None or rec["value"] is None:
                continue
            plan = self.queryfront.decompose(self.bind(schema, rec["sql"]),
                                             st.column_domain)
            if len(plan.groups) != 1:
                continue
            checked += 1
            worst = max(worst, abs(rec["value"] - rec["truth"])
                        / max(rec["truth"], 1))
        self.gates.append((
            "exact_single_domain", checked > 0 and worst <= EXACT_RTOL,
            f"{checked} star and 2-table estimates, worst relative error "
            f"{worst:.3g}"))

    def state_sections(self, st) -> None:
        """Bytes per top-level section of the state document, and the check
        that they add up to the state file with the JSON envelope."""
        from tkhist import state as state_mod
        doc = state_mod.state_to_document(st)
        size = {k: len(json.dumps(v, sort_keys=True, separators=(",", ":"))
                       .encode("utf-8"))
                for k, v in doc.items()}
        # braces, commas between members, and '"key":' per member
        envelope = 2 + len(doc) - 1 + sum(len(json.dumps(k)) + 1 for k in doc)
        file_bytes = os.path.getsize(self.state_path)
        named = ("hists1d", "hists2d", "correlations", "freq")
        for k in named:
            self.metrics[f"state.bytes.{k}"] = size[k]
        self.metrics["state.bytes.other"] = sum(
            v for k, v in size.items() if k not in named)
        self.metrics["state_bytes"] = file_bytes
        total = sum(size.values()) + envelope
        self.gates.append((
            "state_sections_add_up", total == file_bytes,
            f"sections {sum(size.values())} + envelope {envelope} = {total}, "
            f"file {file_bytes}"))

    # -- workloads ---------------------------------------------------------

    def run(self) -> None:
        from truth import ExactCounter
        import workloads as wl
        args, w = self.args, self.w
        with self.phase("generate"):
            schema_path, schema, tables = wl.make_tables(
                w, args.seed, os.path.join(self.workdir, "data"))
            lit = wl.Literals(tables)
            batches = wl.update_batches(
                w, args.seed, max(args.seconds, 5) if w.updates
                else wl.PROBE_BATCHES, os.path.join(self.workdir, "stream"),
                drift=w.updates)
        with self.phase("setup"):
            st = self.setup(schema_path)
        self.check_state(st, tables)
        counter = ExactCounter(tables)
        if w.updates:
            accuracy, excluded = self.run_updates(schema, lit, st, tables,
                                                  counter, batches)
        else:
            accuracy, excluded = self.run_estimates(schema, lit, st, tables,
                                                    counter)
            with self.phase("updates"):
                for table, csv_path, rows in batches:
                    self.update(st, table, csv_path, rows)
        self.metrics["djpcd.excluded_keys"] = (
            excluded / len(self.estimates) if self.estimates else 0.0)
        self.finish(accuracy)

    def run_estimates(self, schema, lit, st, tables, counter):
        """The timed closed loop over a read-only state, then its truths."""
        import workloads as wl
        if self.w.queries == "joins":
            accuracy_sql = wl.join_queries(schema, self.args.seed)
            stream = itertools.cycle(accuracy_sql)
            period = len(accuracy_sql)
        else:
            accuracy_sql = wl.design_queries(schema, lit)
            stream = wl.filtered_stream(schema, lit, self.args.seed)
            period = wl.TAIL_PERIOD
        with self.phase("estimates"):
            deadline = time.perf_counter() + self.args.seconds
            minimum = max(MIN_ESTIMATES, len(accuracy_sql))
            for done, sql in enumerate(stream):
                # stop between whole blocks of the query mix, so that the
                # mix behind the latency figures does not depend on speed
                if (done >= minimum and (done - len(accuracy_sql)) % period == 0
                        and time.perf_counter() >= deadline):
                    break
                self.estimate(sql, st)
        self.state_sections(st)
        with self.phase("truths"):
            truth_of = {sql: counter.count(self.bind(schema, sql))
                        for sql in accuracy_sql}
        accuracy = {}  # the first estimate of each accuracy query
        for rec in self.estimates:
            if rec["sql"] in truth_of:
                rec["truth"] = truth_of[rec["sql"]]
                accuracy.setdefault(rec["sql"], rec)
        with self.phase("checks"):
            excluded, unsound = self.check_exclusions(
                schema, st, tables, self.estimates)
            self.metrics["djpcd.unsound_excluded_keys"] = unsound
            if self.w.queries == "filtered":
                self.gates.append((
                    "exclusion_sound", unsound == 0,
                    f"{unsound} of {excluded} excluded keys have rows that "
                    f"pass the filter"))
            else:
                self.gate_exact(schema, st)
        return list(accuracy.values()), excluded

    def run_updates(self, schema, lit, st, tables, counter, batches):
        """Update batches, each followed by a reload and a fixed query set
        whose truths include every row accepted so far."""
        from tkhist import state as state_mod
        import workloads as wl
        queries = wl.update_queries(schema, lit)
        excluded = unsound = 0
        for b, (table, csv_path, rows) in enumerate(batches):
            with self.phase("updates"):
                accept = self.update(st, table, csv_path, rows)
                st = state_mod.load_state(self.state_path)
            with self.phase("estimates"):
                recs = [self.estimate(sql, st, batch=b) for sql in queries]
            with self.phase("truths"):
                tables[table] = _append_rows(tables[table], rows, accept)
                counter.replace(table, tables[table])
                for rec in recs:
                    rec["truth"] = counter.count(self.bind(schema, rec["sql"]))
            with self.phase("checks"):
                e, u = self.check_exclusions(schema, st, tables, recs)
            excluded += e
            unsound += u
        self.state_sections(st)
        self.metrics["djpcd.unsound_excluded_keys"] = unsound
        # reported, not gated: updates leave the correlation map stale
        self.reports.append((
            "exclusion_sound", unsound == 0,
            f"{unsound} of {excluded} excluded keys have rows that pass "
            f"the filter"))
        return self.estimates, excluded

    # -- metrics -----------------------------------------------------------

    def finish(self, accuracy: list[dict]) -> None:
        m, raw, n = self.metrics, self.raw, self.samples
        self.accuracy = accuracy
        broken = 0
        for rec in self.estimates:
            v = rec["value"]
            bad = v is None or not math.isfinite(v) or v < 0
            rec["failed"] = bad or (rec["truth"] is not None
                                    and rec["truth"] > 0 and v == 0)
            broken += bad
        self.gates.append(("estimates_finite_nonnegative", broken == 0,
                           f"{broken} estimates raised, non-finite or "
                           f"negative"))
        self.attempted = len(self.estimates) + len(self.updates)
        self.failed = (sum(r["failed"] for r in self.estimates)
                       + sum(u["code"] != 0 for u in self.updates))
        upd_bad = [u for u in self.updates
                   if u["code"] != 0 or u["inserted"] != u["expected_inserted"]]
        self.gates.append(("updates_applied", not upd_bad,
                           f"{len(upd_bad)} update batches failed or "
                           f"accepted another row count than expected"))

        untraced = [r["seconds"] * 1000.0 for r in self.estimates
                    if not r["traced"] and r["value"] is not None]
        scaled = [r["seconds"] * 1000.0 * _scale([r["probe"]])
                  for r in self.estimates
                  if not r["traced"] and r["value"] is not None]
        qerrs = [max(r["value"] / r["truth"], r["truth"] / r["value"])
                 for r in accuracy
                 if r["truth"] and r["value"] and not r["failed"]]
        self.gates.append(("measured", bool(untraced and qerrs),
                           f"{len(untraced)} untraced estimates, "
                           f"{len(qerrs)} q-errors"))
        if not (untraced and qerrs):
            return
        untraced_setups = [s["seconds"] for s in self.setups if not s["traced"]]
        raw["setup_s"] = statistics.median(untraced_setups)
        n["setup_s"] = len(untraced_setups)
        raw["estimate_ms_p50"] = _percentile(untraced, 50)
        raw["estimate_ms_p95"] = _percentile(untraced, 95)
        n["estimate_ms_p50"] = n["estimate_ms_p95"] = len(untraced)
        raw["estimate_qps"] = len(untraced) / (sum(untraced) / 1000.0)
        n["estimate_qps"] = len(untraced)
        inserted = sum(u["inserted"] for u in self.updates)
        raw["update_rows_per_s"] = inserted / sum(u["seconds"]
                                                  for u in self.updates)
        n["update_rows_per_s"] = len(self.updates)
        m["setup_s"] = statistics.median(
            s["scaled"] for s in self.setups if not s["traced"])
        m["estimate_ms_p50"] = _percentile(scaled, 50)
        m["estimate_ms_p95"] = _percentile(scaled, 95)
        m["estimate_qps"] = len(scaled) / (sum(scaled) / 1000.0)
        m["update_rows_per_s"] = inserted / sum(
            u["seconds"] * u["scale"] for u in self.updates)
        m["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        m["qerror_p50"] = _percentile(qerrs, 50)
        m["qerror_p95"] = _percentile(qerrs, 95)
        m["qerror_max"] = max(qerrs)
        n["qerror_p50"] = n["qerror_p95"] = n["qerror_max"] = len(qerrs)
        self.zero_truths = sum(1 for r in accuracy if r["truth"] == 0)
        m["cli.update_rows_inserted"] = inserted
        m["cli.update_rows_rejected"] = sum(u["rejected"] for u in self.updates)
        if self.tracer is not None:
            self.layer_metrics(scaled)

    def layer_metrics(self, untraced_ms: list[float]) -> None:
        """Per-layer metrics from the spans, in raw seconds: set-up layers
        per traced set-up, estimate layers per traced estimate, update
        layers per batch."""
        m = self.metrics
        spans = self.tracer.by_trace()
        setup = spans.get("setup", {})

        def total(trace: dict, name: str, key: str = "s") -> float:
            return trace.get(name, {}).get(key, 0.0)

        for metric, span in [
                ("catalog.ingest_s", "catalog.ingest"),
                ("catalog.domain_bounds_s", "catalog.domain_bounds"),
                ("histcore.build1d_s", "histcore.build1d"),
                ("histcore.build2d_s", "histcore.build2d"),
                ("djpcd.discover_s", "djpcd.discover"),
                ("djpcd.envelope_scan_s", "djpcd.envelope_scan"),
                ("state.save_s", "state.save"),
                ("state.load_s", "state.load")]:
            m[metric] = total(setup, span)

        queries = [t for tid, t in spans.items() if tid.startswith("q")]
        nq = max(len(queries), 1)
        for metric, span, key in [
                ("queryfront.parse_bind_s", "queryfront.parse_bind", "s"),
                ("queryfront.decompose_s", "queryfront.decompose", "s"),
                ("estimator.estimate_s", "estimator.estimate", "s"),
                ("estimator.run_plan_self_s", "estimator.run_plan", "self_s"),
                ("predicate.selectivity_s", "predicate.selectivity", "s"),
                ("joinengine.lift_s", "joinengine.lift", "s"),
                ("joinengine.apply_filters_s", "joinengine.apply_filters", "s"),
                ("joinengine.star_fold_s", "joinengine.star_fold", "s"),
                ("joinengine.jtkh_join_calls", "joinengine.jtkh_join", "calls"),
                ("joinengine.chain_translate_s", "joinengine.chain_translate",
                 "s"),
                ("joinengine.chain_translate_calls",
                 "joinengine.chain_translate", "calls"),
                ("djpcd.find_excluded_s", "djpcd.find_excluded", "s")]:
            m[metric] = sum(total(t, span, key) for t in queries) / nq
        self.samples["estimator.estimate_s"] = len(queries)

        batches = [t for tid, t in spans.items() if tid.startswith("u")]
        nb = max(len(batches), 1)
        m["cli.update_s"] = sum(total(t, "cli.update") for t in batches) / nb
        m["cli.update_state_io_s"] = sum(
            total(t, "state.load") + total(t, "state.save")
            for t in batches) / nb
        m["histcore.insert_calls"] = self.tracer.calls["histcore.insert"]

        traced = [r["seconds"] * 1000.0 * _scale([r["probe"]])
                  for r in self.estimates
                  if r["traced"] and r["value"] is not None]
        m["trace.estimate_p50_ratio"] = (_percentile(traced, 50)
                                         / _percentile(untraced_ms, 50))
        traced_setups = [s["scaled"] for s in self.setups if s["traced"]]
        m["trace.setup_ratio"] = (statistics.median(traced_setups)
                                  / m["setup_s"])


def _append_rows(data, rows, accept):
    """A table plus the accepted rows of one update batch."""
    import numpy as np
    from tkhist.catalog import TableData
    return TableData(
        name=data.name,
        columns={c: np.concatenate([v, rows.columns[c][accept]])
                 for c, v in data.columns.items()},
        null_mask={c: np.concatenate([v, rows.null_mask[c][accept]])
                   for c, v in data.null_mask.items()},
        row_count=data.row_count + int(accept.sum()))


def run_one(args) -> int:
    record = _run_record(args)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(args, workdir)
    try:
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key in ("workload", "seed", "git_sha", "source_sha256", "python",
                "numpy", "nproc", "blas_threads"):
        print(f"record {key} {json.dumps(record[key])}")
    for name, unit in END_TO_END + (PER_LAYER if args.trace else []):
        samples = bench.samples.get(name)
        tail = f" n={samples}" if samples is not None else ""
        print(f"metric {name} {bench.metrics.get(name, 0.0)} {unit}{tail}")
    error_rate = bench.failed / max(bench.attempted, 1)
    print(f"metric error_rate {error_rate} ratio n={bench.attempted}")
    for name, value in bench.raw.items():
        print(f"raw {name} {value}")
    for phase in bench.probes:
        if bench.probes[phase]:
            print(f"info scale.{phase} {bench.scale(phase)} "
                  f"n={len(bench.probes[phase])}")
    print(f"info zero_truth_queries {bench.zero_truths}")
    for kind, checks in (("gate", bench.gates), ("report", bench.reports)):
        for name, ok, detail in checks:
            print(f"{kind} {name} {'PASS' if ok else 'FAIL'} {detail}")
    correct = all(ok for _, ok, _ in bench.gates)

    record.update(
        correct=correct, attempted=bench.attempted, failed=bench.failed,
        error_rate=error_rate, metrics=bench.metrics, raw=bench.raw,
        samples=bench.samples,
        scale={p: bench.scale(p) for p in bench.probes if bench.probes[p]},
        setups=bench.setups, harness_phases_s=bench.phases,
        gates=[{"name": g, "ok": ok, "detail": d} for g, ok, d in bench.gates],
        reports=[{"name": g, "ok": ok, "detail": d}
                 for g, ok, d in bench.reports],
        errors=[r["error"] for r in bench.estimates if r["error"]][:20],
        accuracy=[{k: r[k] for k in ("sql", "value", "truth", "seconds",
                                     "batch")} for r in bench.accuracy],
        latencies=[[r["seconds"], r["probe"], r["traced"]]
                   for r in bench.estimates],
        updates=bench.updates)
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if bench.tracer is not None:
        with open(os.path.join(runs, f"{tag}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(bench.tracer.records(), fh)

    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": bench.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        if done.returncode != 0:
            combined["correct"] = False
            code = done.returncode
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="filtered-corr, joins-fullk, update-mix or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
