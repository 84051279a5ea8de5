#!/usr/bin/env python3
"""The repo benchmark: one run of one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds graphr_run and graphr_serve from the checkout (Release, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's inputs
from the seed, measures for S seconds, checks every output against a
one-shot reference and prints a metric table on stderr and, as the
last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics (from the traced in-process replay). See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

import runs
import workloads as W
from build import ROOT, BenchError, build, build_dir

WORKLOADS = {
    "serve_warm": (W.ServeWarm, runs.measure_serve, runs.trace_serve),
    "serve_store_churn": (W.ServeStoreChurn, runs.measure_serve,
                          runs.trace_serve),
    "sweep_repro": (W.SweepRepro, runs.measure_sweep, runs.trace_sweep),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    with open(path) as f:
        return json.load(f)


def result_line(spec, trace, outcome):
    """The final JSON object: every metric BENCHMARK.json lists for
    this kind of run, with its unit, and nothing else."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in outcome.metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": outcome.metrics[m["name"]],
                              "unit": m["unit"]}
    return {"correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def print_table(result, notes, out):
    rate = result["failed"] / max(1, result["attempted"])
    out.write(f"{'metric':<28} {'value':>14}  unit\n")
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        out.write(f"{name:<28} {m['value']:>14.6g}  {m['unit']}{note}\n")
    out.write(f"attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {rate:.6g}, correct {result['correct']}\n")


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    make_input, measure, trace = WORKLOADS[args.workload]
    bins = build(trace=bool(args.trace))
    work = build_dir() / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        outcome = run(make_input(args.seed), bins, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The trace run's error rate: no relative bound can hold a metric
    # that is 0 when all is well, so it is a per-layer metric.
    outcome.metrics["error_rate"] = outcome.failed / max(1, outcome.attempted)
    result = result_line(spec, args.trace, outcome)
    print_table(result, outcome.notes, sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as err:
        sys.stderr.write(f"perfbench: error: {err}\n")
        sys.exit(1)
