#!/usr/bin/env python3
"""Benchmark of the splicezeta package: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze|verify|sweep|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workload runs in a fresh worker process (worker.py) with one client and a
closed loop.  Set-up time is measured in that process and in SETUPS more
processes that only set up, and reported as the median.

The last line of output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  Exit status: 0 when every failing op is a known defect listed
by id in workloads.KNOWN, 1 on any other wrong output, 2 when the benchmark
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 4              # set-up-only processes besides the measuring one
TIMEOUT_S = 170         # for all worker processes of one run together

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_frac", "ratio"), ("peak_rss_mb", "MB"))


def per_layer_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def worker(args, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0), *extra], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker over the {TIMEOUT_S} s limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def report(res, trace):
    """Human-readable lines before the result line."""
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"per-op cap {res['cap_s']:g} CPU s  passes {res['passes']}  "
          f"ops {res['attempted']} ({res['ops_per_pass']} per pass)  "
          f"wall {res['wall_s']:.1f} s, CPU in ops {res['busy_s']:.1f} s")
    if not trace:
        print(f"  op_tail_ms is the p{res['tail_pct']:.3f} latency "
              f"of {res['attempted']} ops")
        print(f"  fail_frac {res['fail_frac']:.6f}  "
              f"(ok_frac = 1 - fail_frac)")
    print(f"  traffic {json.dumps(res['traffic'], sort_keys=True)}")
    print(f"  inputs {res['inputs_digest']}")
    if trace:
        print(f"  traced passes {res['traced_passes']}, spans in "
              f"{res['spans_file']} ({res['spans_dropped']} not kept)")
    print(f"  digests checked {res['digests_checked']}, "
          f"not frozen {res['digests_missing']}")
    for op_id, (kind, reason, known) in res["failures"].items():
        tag = "known defect" if known else "WRONG"
        print(f"  {tag}: {op_id}: {kind}: {reason}")
    for op_id in res["known_passed"]:
        print(f"  known defect no longer fails: {op_id}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=("analyze", "verify", "sweep", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, default=0, metavar="N",
                    help="self-test: one set-up, one pass of the first N ops")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "splicezeta", "__init__.py")):
        print("error: run from the root of a splicezeta checkout "
              "(src/splicezeta not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    smoke = ["--max-ops", str(args.smoke), "--passes", "1"] if args.smoke else []
    try:
        setups = [worker(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(0 if args.smoke else SETUPS)]
        res = worker(args, deadline, *smoke)
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res.update(workload=args.workload, seed=args.seed)
    setups.append(res["setup_s"])

    if args.trace:
        units = per_layer_units()
        values = res["layers"]
    else:
        units = dict(END_TO_END)
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": res["ops_per_s"], "op_p50_ms": res["op_p50_ms"],
                  "op_tail_ms": res["op_tail_ms"], "ok_frac": 1 - res["fail_frac"],
                  "peak_rss_mb": res["peak_rss_mb"]}
    report(res, args.trace)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = all(known for _, _, known in res["failures"].values())
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
