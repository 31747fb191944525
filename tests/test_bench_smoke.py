"""The benchmark harness still runs the program end to end.

perfbench reads the built containers, the sections of `state_to_document`
and the functions its tracer wraps; this runs every workload once, briefly
and traced, so that a change to any of them fails here first.  Seed 2 keeps
the run records of the benchmark's seed 1 in place.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_workload_runs_and_passes_its_gates():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "all", "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
