"""Command-line interface.

Subcommands: build, estimate, evaluate, update, sweep, synth.  The state file
path defaults to the TKHIST_STATE environment variable when --state is
omitted.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
import time

from . import catalog, estimator, synth
from .errors import TKHistError
from .state import (DEFAULT_BIN_COUNT, DEFAULT_TOP_K, BuildConfig, apply_rows,
                    build_state, ingest_all, load_state, save_state)

STATE_ENV = "TKHIST_STATE"


def _state_path(args) -> str:
    path = args.state or os.environ.get(STATE_ENV)
    if not path:
        raise TKHistError(
            f"no state file given (use --state or ${STATE_ENV})")
    return path


def _add_state_arg(p):
    p.add_argument("--state", default=None,
                   help=f"state file path (default: ${STATE_ENV})")


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; a bad entry is a usage error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _open_report(outputs: contextlib.ExitStack, path: str,
                 newline: str | None = None):
    """`path` opened for writing until `outputs` closes, or else an input
    error; opened before any work, so that a bad path fails fast."""
    try:
        return outputs.enter_context(
            open(path, "w", encoding="utf-8", newline=newline))
    except OSError as exc:
        raise TKHistError(f"cannot write {path!r}: {exc}") from exc


def cmd_build(args) -> int:
    schema = catalog.load_schema(args.schema)
    tables = ingest_all(schema)
    config = BuildConfig(bin_count=args.bins, top_k=args.k)
    t0 = time.perf_counter()
    state = build_state(schema, tables, config)
    if args.djpcd:
        estimator.discover_correlations(state, tables)
    build_s = time.perf_counter() - t0
    size = save_state(state, _state_path(args))
    print(f"built {len(schema.tables)} tables, {len(state.domains)} key "
          f"domains in {build_s:.2f}s; state file {size} bytes")
    return 0


def cmd_estimate(args) -> int:
    state = load_state(_state_path(args))
    rep = estimator.estimate(args.sql, state)
    rep.score(args.truth)
    print(json.dumps(rep.to_dict()))
    return 0


def cmd_evaluate(args) -> int:
    state = load_state(_state_path(args))
    entries = estimator.parse_workload(args.workload)
    tables = ingest_all(state.schema) if args.oracle else None
    with contextlib.ExitStack() as outputs:
        out = _open_report(outputs, args.out) if args.out else sys.stdout
        csv_out = args.summary and _open_report(outputs, args.summary,
                                                newline="")
        reports, summary = estimator.evaluate_workload(state, entries,
                                                       tables=tables)
        for rep in reports:
            out.write(json.dumps(rep.to_dict()) + "\n")
        if csv_out:
            writer = csv.writer(csv_out)
            d = summary.to_dict()
            writer.writerow(d.keys())
            writer.writerow(d.values())
    print(json.dumps({"summary": summary.to_dict()}), file=sys.stderr)
    return 1 if summary.failed else 0


def cmd_update(args) -> int:
    path = _state_path(args)
    state = load_state(path, table=args.table)
    data = catalog.ingest_table(state.schema.table(args.table), state.schema,
                                path=args.csv)
    inserted, rejected = apply_rows(state, args.table, data)
    size = save_state(state, path)
    print(f"inserted {inserted} rows, rejected {rejected} "
          f"(out-of-range key); state file {size} bytes")
    return 0


def cmd_sweep(args) -> int:
    schema = catalog.load_schema(args.schema)
    tables = ingest_all(schema)
    entries = estimator.parse_workload(args.workload)
    with contextlib.ExitStack() as outputs:
        out = (_open_report(outputs, args.out, newline="") if args.out
               else sys.stdout)
        points = estimator.sweep(schema, tables, entries, args.bins, args.k,
                                 use_djpcd=args.djpcd)
        writer = csv.writer(out)
        writer.writerow(["bin_count", "top_k", "build_seconds", "state_bytes",
                         "median_q", "mean_latency_ms"])
        for p in points:
            writer.writerow([p.bin_count, p.top_k, f"{p.build_seconds:.4f}",
                             p.state_bytes,
                             "" if p.median_q is None else f"{p.median_q:.4f}",
                             f"{p.mean_latency_ms:.3f}"])
    return 0


def cmd_synth(args) -> int:
    spec = synth.SyntheticSpec(tables=args.tables, rows=args.rows,
                               layout=args.layout, skew=args.skew,
                               distinct_keys=args.distinct,
                               correlated=args.correlated)
    schema, tables = synth.generate_synthetic(spec, seed=args.seed)
    path = synth.write_benchmark(schema, tables, args.out)
    print(f"wrote {len(schema.tables)} tables to {args.out} (schema: {path})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; `main` runs `cmd_<command>` for each call."""
    ap = argparse.ArgumentParser(prog="tkhist",
                                 description="top-k histogram cardinality "
                                             "estimation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build histograms from schema + CSVs")
    p.add_argument("--schema", required=True)
    _add_state_arg(p)
    p.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT)
    p.add_argument("--k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--no-djpcd", dest="djpcd", action="store_false",
                   help="skip correlation discovery (and key exclusion)")

    p = sub.add_parser("estimate", help="estimate one COUNT(*) query")
    _add_state_arg(p)
    p.add_argument("sql")
    p.add_argument("--truth", type=float, default=None)

    p = sub.add_parser("evaluate", help="estimate a workload file")
    _add_state_arg(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--out", default=None, help="JSON-lines report path")
    p.add_argument("--summary", default=None, help="CSV summary path")
    p.add_argument("--oracle", action="store_true",
                   help="compute missing truths with the exact join oracle")

    p = sub.add_parser("update", help="stream new rows into an existing state")
    _add_state_arg(p)
    p.add_argument("--table", required=True)
    p.add_argument("--csv", required=True)

    p = sub.add_parser("sweep", help="rebuild/evaluate over a (bins, k) grid")
    p.add_argument("--schema", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--bins", type=_int_list, default="25,50,100,200")
    p.add_argument("--k", type=_int_list, default="0,5,20")
    p.add_argument("--out", default=None)
    p.add_argument("--no-djpcd", dest="djpcd", action="store_false",
                   help="build every grid point without discovery")

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--tables", type=int, default=3)
    p.add_argument("--rows", type=int, default=10_000)
    p.add_argument("--layout", choices=["star", "chain", "mixed"],
                   default="star")
    p.add_argument("--skew", type=float, default=1.2)
    p.add_argument("--distinct", type=int, default=1000)
    p.add_argument("--correlated", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # looked up per call, so a wrapper installed on a cmd_* runs
        return globals()[f"cmd_{args.command}"](args)
    except TKHistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
