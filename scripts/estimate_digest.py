#!/usr/bin/env python3
"""Digests of a tree's estimates and state files on perfbench's workloads.

    python3 scripts/estimate_digest.py --tree . --seed 1 > change.txt
    python3 scripts/estimate_digest.py --tree ../parent --seed 1 > parent.txt
    diff parent.txt change.txt

For each workload, the tree's own `src/` builds the state from the CSV files
that the tree's `perfbench/workloads.py` generates, then applies the
workload's update batches through `tkhist update`.  Printed, one line each:
the state file's byte count after the build and after every batch, then
the sha256 and byte count of each of its top-level sections (with
`schema_base_dir` blanked, so that trees built in different directories
compare), so that a format change can be checked section by section; and
the sha256 of the `float.hex` of every estimate: the
accuracy queries and the first STREAM_QUERIES queries of the filtered
stream after the build, and update-mix's per-batch query set after each batch's
reload.  A failing estimate digests its exception's type and message.
Two trees that estimate alike print the same lines.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

STREAM_QUERIES = 200  # filtered-stream queries estimated after the build


def print_state(prefix: str, path: str) -> None:
    """The file's byte count, then one line per top-level section."""
    with open(path, "rb") as fh:
        raw = fh.read()
    print(f"{prefix} bytes={len(raw)}")
    doc = json.loads(raw)
    doc["schema_base_dir"] = ""
    for name, section in sorted(doc.items()):
        text = json.dumps(section, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        print(f"{prefix} {name} {hashlib.sha256(text).hexdigest()} "
              f"bytes={len(text)}")


def estimates_digest(estimator, queries: list[str], st) -> str:
    out = hashlib.sha256()
    for sql in queries:
        try:
            text = float(estimator.estimate(sql, st).estimate).hex()
        except Exception as exc:  # a failing query is part of the digest
            text = f"{type(exc).__name__}: {exc}"
        out.update(f"{sql}\t{text}\n".encode("utf-8"))
    return f"{out.hexdigest()} n={len(queries)}"


def run_workload(name: str, seed: int, workdir: str) -> None:
    import itertools

    import workloads as wl
    from tkhist import catalog, cli, estimator, state as state_mod

    w = wl.WORKLOADS[name]
    schema_path, schema, tables = wl.make_tables(
        w, seed, os.path.join(workdir, "data"))
    lit = wl.Literals(tables)
    loaded = catalog.load_schema(schema_path)
    ingested = state_mod.ingest_all(loaded)
    st = state_mod.build_state(loaded, ingested, state_mod.BuildConfig(
        bin_count=wl.BINS, top_k=w.top_k))
    if w.discover:
        estimator.discover_correlations(st, ingested)
    path = os.path.join(workdir, "state.json")
    state_mod.save_state(st, path)
    print_state(f"{name} state build", path)
    st = state_mod.load_state(path)
    if w.queries == "joins":
        queries = wl.join_queries(schema, seed)
    else:
        queries = wl.design_queries(schema, lit) + list(itertools.islice(
            wl.filtered_stream(schema, lit, seed), STREAM_QUERIES))
    print(f"{name} estimates build {estimates_digest(estimator, queries, st)}")
    batches = wl.update_batches(
        w, seed, 10 if w.updates else wl.PROBE_BATCHES,
        os.path.join(workdir, "stream"), drift=w.updates)
    for b, (table, csv_path, _) in enumerate(batches):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["update", "--state", path, "--table", table,
                             "--csv", csv_path])
        print_state(f"{name} state batch{b} code={code}", path)
        if w.updates:
            st = state_mod.load_state(path)
            digest = estimates_digest(estimator,
                                      wl.update_queries(schema, lit), st)
            print(f"{name} estimates batch{b} {digest}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
                    help="checkout whose src/ and perfbench/ are used")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads as wl
    for name in wl.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="tkhist-digest-") as workdir:
            run_workload(name, args.seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
