"""The benchmark harness still runs the program end to end.

perfbench reads the built containers, the sections of `state_to_document`
and the functions its tracer wraps; this runs every workload once, briefly
and traced, so that a change to any of them fails here first.  A set-up,
estimate-path or update-path layer whose function the program stops
calling through the wrapped module attribute would read 0, so each layer a
workload exercises must be present and non-zero.  Seed 2 keeps
the run records of the benchmark's seed 1 in place.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("filtered-corr", "joins-fullk", "update-mix")
SETUP_LAYERS = ("catalog.ingest_s", "catalog.domain_bounds_s",
                "histcore.build1d_s", "histcore.build2d_s", "state.save_s",
                "state.load_s")
# the estimate-path and update-path layers every workload exercises
RUN_LAYERS = ("queryfront.decompose_s", "estimator.run_plan_self_s",
              "joinengine.lift_s", "joinengine.star_fold_s",
              "joinengine.jtkh_join_calls",
              "joinengine.chain_translate_calls", "cli.update_s",
              "cli.update_state_io_s", "histcore.insert_calls")


def test_every_workload_runs_and_passes_its_gates():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "all", "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    layers = {w: [*SETUP_LAYERS, *RUN_LAYERS] for w in WORKLOADS}
    for w in ("filtered-corr", "update-mix"):  # discovery and filters
        layers[w] += ["djpcd.discover_s", "djpcd.envelope_scan_s",
                      "predicate.selectivity_s", "djpcd.find_excluded_s"]
    zero = [f"{w}.{name}" for w, names in layers.items() for name in names
            if not summary["metrics"].get(f"{w}.{name}", {}).get("value")]
    assert zero == [], "layers missing or 0"
