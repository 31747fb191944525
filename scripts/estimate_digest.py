#!/usr/bin/env python3
"""A tree's estimates and state-file digests on perfbench's workloads.

    python3 scripts/estimate_digest.py --tree . --seed 1 > change.txt
    python3 scripts/estimate_digest.py --tree ../parent --seed 1 > parent.txt
    diff parent.txt change.txt
    python3 scripts/estimate_digest.py --compare parent.txt change.txt

For each workload, the tree's own `src/` builds the state from the CSV files
that the tree's `perfbench/workloads.py` generates, then applies the
workload's update batches through `tkhist update`.  Printed, one line each:
the state file's byte count after the build and after every batch, then
the sha256 and byte count of each of its top-level sections (with
`schema_base_dir` blanked, so that trees built in different directories
compare), so that a format change can be checked section by section, and
for a section of named entries the sha256 of its entries' bodies alone, in
sorted order, so that a change that renames entries shows whether their
contents moved; and
every estimate, numbered, with the first 12 hex digits of its SQL's sha256
and its `float.hex`: the accuracy queries after the build, the same
queries a second time on the same loaded state (`build-warm`, whose bound
queries and plans the state has cached), then the first STREAM_QUERIES
queries of the filtered stream, numbered on from the accuracy queries; the
accuracy queries again on the built state without its correlation map
(`build-nomap`, the state that a build without discovery makes) on a
workload that runs discovery, and update-mix's per-batch query set after
each batch's reload.  A failing estimate prints its exception's type and
message.  Two trees that estimate alike print the same lines.

`--compare` reads two such outputs and prints how many estimates moved and
the largest relative difference between them.  A `build-warm` estimate
that only the change's output holds is compared with the parent's `build`
estimate of the same number, its cold one.  It exits 1 when that
difference is above TOLERANCE (1e-9), when a failing estimate's message
differs, or when the two outputs do not hold the same queries.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

STREAM_QUERIES = 200  # filtered-stream queries estimated after the build
TOLERANCE = 1e-9  # the largest relative difference `--compare` accepts


def canonical(value) -> bytes:
    """`value` as the state file writes it: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def print_state(prefix: str, path: str) -> None:
    """The file's byte count, then one line per top-level section: its
    digest and byte count and, when it is an object, the digest of its
    entries' bodies, sorted, without their names."""
    with open(path, "rb") as fh:
        raw = fh.read()
    print(f"{prefix} bytes={len(raw)}")
    doc = json.loads(raw)
    doc["schema_base_dir"] = ""
    for name, section in sorted(doc.items()):
        text = canonical(section)
        line = (f"{prefix} {name} {hashlib.sha256(text).hexdigest()} "
                f"bytes={len(text)}")
        if isinstance(section, dict):
            bodies = b"\n".join(sorted(map(canonical, section.values())))
            line += f" bodies={hashlib.sha256(bodies).hexdigest()}"
        print(line)


def print_estimates(prefix: str, estimator, queries: list[str], st,
                    first: int = 0) -> None:
    """One line per estimate: `prefix #i`, counting from `first`, its
    query's hash and its `float.hex`, or a failing estimate's exception
    type and message."""
    for i, sql in enumerate(queries, first):
        try:
            text = float(estimator.estimate(sql, st).estimate).hex()
        except Exception as exc:  # a failing query is part of the output
            text = f"{type(exc).__name__}: {exc}"
        query = hashlib.sha256(sql.encode("utf-8")).hexdigest()[:12]
        print(f"{prefix} #{i} {query} {text}")


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
        accuracy, stream = wl.join_queries(schema, seed), []
    else:
        accuracy = wl.design_queries(schema, lit)
        stream = list(itertools.islice(wl.filtered_stream(schema, lit, seed),
                                       STREAM_QUERIES))
    print_estimates(f"{name} estimates build", estimator, accuracy, st)
    print_estimates(f"{name} estimates build-warm", estimator, accuracy, st)
    print_estimates(f"{name} estimates build", estimator, stream, st,
                    first=len(accuracy))
    if w.discover:
        print_estimates(f"{name} estimates build-nomap", estimator,
                        wl.design_queries(schema, lit),
                        dataclasses.replace(st, correlations={}))
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
            print_estimates(f"{name} estimates batch{b}", estimator,
                            wl.update_queries(schema, lit), st)


def estimate_lines(path: str) -> dict[str, tuple[str, str]]:
    """The estimates of an output file: `workload estimates phase #i` ->
    (its query's hash, the estimate's text)."""
    found = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ", 5)
            if len(parts) == 6 and parts[1] == "estimates" \
                    and parts[3].startswith("#"):
                found[" ".join(parts[:4])] = (parts[4], parts[5])
    return found


def relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two `float.hex` texts; 0 when they are
    equal, inf when either is not a number or a failure's message."""
    if a == b:
        return 0.0
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except ValueError:
        return math.inf
    if x == y:  # 0.0 and -0.0
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(diff) else diff


def compare(parent: str, change: str) -> int:
    """Print the largest relative difference between the estimates of two
    outputs; 1 when it is above TOLERANCE or when they do not hold the
    same queries."""
    a, b = estimate_lines(parent), estimate_lines(change)
    for key in b:  # a warm estimate the parent lacks: its cold one
        cold = key.replace(" estimates build-warm ", " estimates build ")
        if key not in a and cold in a:
            a[key] = a[cold]
    same = [key for key in a if key in b and a[key][0] == b[key][0]]
    if not a or len(same) != len(a) or len(b) != len(a):
        print(f"queries differ: {len(a)} estimates in {parent}, {len(b)} in "
              f"{change}, {len(same)} of the same query in both")
        return 1
    diffs = {key: relative_difference(a[key][1], b[key][1]) for key in a}
    worst = max(diffs, key=diffs.get)
    moved = sum(1 for d in diffs.values() if d)
    print(f"estimates {len(diffs)} moved {moved} "
          f"max_relative_difference {diffs[worst]:.3g}"
          + (f" at {worst}: {a[worst][1]} -> {b[worst][1]}" if moved else ""))
    return 0 if diffs[worst] <= TOLERANCE else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
                    help="checkout whose src/ and perfbench/ are used")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two outputs instead of running")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads as wl
    for name in wl.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="tkhist-digest-") as workdir:
            run_workload(name, args.seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
