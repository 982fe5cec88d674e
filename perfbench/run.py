"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ext_ladder --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the batch runs once
untraced and once traced, and the metrics are the per-layer ones.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here, before ppalg is imported

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this many
TRACE_DIR = ROOT / ".bench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("criteria", "ext_ladder", "module_ops"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the fixed batch: about this long on the reference host")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the set-up time as JSON (used internally)")
    return ap.parse_args(argv)


def import_program():
    """Import ppalg from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ppalg" / "__init__.py").is_file():
        sys.exit("perfbench: no program source at %s; run from the root of a checkout" % src)
    sys.path.insert(0, str(src))
    import ppalg
    if Path(ppalg.__file__).resolve().parent != src / "ppalg":
        sys.exit("perfbench: imported ppalg from %s, not from %s" % (ppalg.__file__, src))


def setup_samples(args, own_s, own_factor):
    """Normalized set-up times: this process's plus SETUP_CHILDREN fresh
    processes that import, plan and parse the same inputs, then exit."""
    samples = [own_s * own_factor]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        samples.append(probe["setup_s"] * probe["factor"])
    return samples


def report(metrics, tally):
    for label, check, detail, wrong in tally.failures:
        print("FAILED %s [%s%s]: %s" % (label, check, "" if wrong else ", don't know", detail))
    print("fail_ratio %.4f (%d of %d ops failed; %d wrong answers)"
          % (tally.fail_ratio, tally.failed, tally.attempted, tally.wrong))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import harness
    import workloads

    plan = workloads.plan(args.workload, args.seed, args.seconds)
    ops = plan.build()
    own_setup_s = time.perf_counter() - START
    setup_speed = harness.HostSpeed()
    for _ in range(5):
        setup_speed.sample()
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s, "factor": setup_speed.factor}))
        return 0

    print("workload %s seed %d seconds %g trace %d" % (args.workload, args.seed,
                                                      args.seconds, args.trace))
    print("inputs digest %s" % plan.digest)
    setup_s = statistics.median(setup_samples(args, own_setup_s, setup_speed.factor))

    tally = harness.Tally()
    untraced = workloads.run_batch(ops, tally, harness.HostSpeed())
    print("host speed factor %.3f (nominal / measured reference slice)" % untraced.speed.factor)
    if not args.trace:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": untraced.wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"}}
        for name, m in metrics.items():
            print("%-12s %12.6f %s" % (name, m["value"], m["unit"]))
        times = [untraced.speed.normalize(t) for t in untraced.op_s]
        if args.workload != "criteria":
            # printed, not in the JSON: criteria has too few ops for a p90
            for pct in (50, 90):
                print("op_p%d_s     %12.6f s (%d ops)" % (pct, harness.percentile(times, pct),
                                                         len(times)))
        print("raw wall     %12.6f s (%d timed calls)" % (sum(untraced.op_s), len(times)))
        report(metrics, tally)
        return 0

    import tracepoints
    speed = harness.HostSpeed()
    tracer = harness.Tracer(speed.net_clock)
    traced_ops = plan.build()  # fresh modules, so no cached state carries over
    tally.prefix = "traced: "
    tracepoints.install(tracer)
    try:
        traced = workloads.run_batch(traced_ops, tally, speed, tracer)
    finally:
        tracer.unwrap_all()

    layers = tracepoints.per_layer(tracer)
    layers["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
    tracer.write_jsonl(path)
    print("%d spans written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
    for name, value in layers.items():
        print("%-45s %s" % (name, value))
    report({name: {"value": value, "unit": tracepoints.unit_of(name)}
            for name, value in layers.items()}, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
