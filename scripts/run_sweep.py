#!/usr/bin/env python3
"""Accuracy/size/latency trade-off sweep over (bin count, top-k).

A thin wrapper around `tkhist sweep`: it takes the same options and writes
the same CSV (one row per grid point).

Example:
    python scripts/make_benchmark.py --out /tmp/bench
    python scripts/run_sweep.py --schema /tmp/bench/star/schema.json \\
        --workload /tmp/bench/star/workload.txt --bins 25,50,100,200 --k 0,5,20
"""
import sys

from tkhist import cli

if __name__ == "__main__":
    sys.exit(cli.main(["sweep", *sys.argv[1:]]))
