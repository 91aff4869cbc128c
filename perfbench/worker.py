"""One workload in one fresh, single-threaded process.

Started by run.py; prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC [--setup-only] [--passes K]

--t0 is the launcher's time.monotonic() just before it started this process,
so set-up time includes interpreter start-up and `import splicezeta`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests")
OUT_DIR = ".perfbench"          # spans and scratch files, inside the checkout


class CapExceeded(BaseException):
    """Raised by the per-op alarm; a BaseException so no handler in the
    package swallows it."""


def _alarm(signum, frame):
    raise CapExceeded()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_digests(workload):
    path = os.path.join(DIGESTS, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs ops under the cap, times them and checks their outputs."""

    def __init__(self, workload, digests, tracer=None, record=None):
        from workloads import KNOWN, Raised
        self.known = KNOWN
        self.Raised = Raised
        self.w = workload
        self.digests = digests
        self.tracer = tracer
        self.record = record            # dict filled with digests, or None
        self.lat = []                   # seconds per attempted op
        self.failed = {}                # op id -> (kind, reason, known)
        self.attempted = 0
        self.failed_attempts = 0
        self.digest_checked = 0
        self.digest_missing = 0

    def call(self, fn, op_id):
        """(outcome, seconds, capped) of one call under the cap.

        The seconds are the worker thread's CPU time, so that time spent
        descheduled by other tenants of the machine does not count.  The
        cap is on the process's CPU time too, so that which ops run into
        it does not depend on how busy the machine is.
        """
        tr = self.tracer
        signal.setitimer(signal.ITIMER_PROF, self.w.cap_s)
        if tr is not None:
            tr.open(op_id)
        t0 = time.thread_time_ns()
        capped = False
        try:
            outcome = fn()
        except CapExceeded:
            outcome, capped = None, True
        except Exception as exc:          # the op's outcome; checked below
            outcome = self.Raised(exc)
        finally:
            dt = time.thread_time_ns() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
            if tr is not None:
                tr.close()
        return outcome, dt / 1e9, capped

    def run_pass(self, ops, probes=False):
        """Run every op once; returns the CPU seconds spent inside ops."""
        busy = 0.0
        for op in ops:
            outcome, dt, capped = self.call(op.call, op.id)
            busy += dt
            self.attempted += 1
            self.lat.append(dt)
            if capped:
                self._fail(op, "cap", f"over the {self.w.cap_s:g} s cap")
            else:
                reason = op.check(outcome)
                if reason is not None:
                    kind = "raised" if isinstance(outcome, self.Raised) else "wrong"
                    self._fail(op, kind, reason)
                else:
                    self._digest(op, outcome)
            if probes:
                for name, fn in op.probes:
                    _, _, capped = self.call(fn, f"probe:{op.id}/{name}")
                    if capped:
                        break
        for op_id, reason in self.w.end_pass():
            self.failed[op_id] = ("wrong", reason, False)
        return busy

    def _fail(self, op, kind, reason):
        """Record a failure; it is a known defect only when the op id and
        the kind of failure are both listed in KNOWN."""
        self.failed_attempts += 1
        self.failed[op.id] = (kind, reason, self.known.get(op.id) == kind)

    def _digest(self, op, outcome):
        got = digest(op.text(outcome))
        key = op.id if op.shared else f"{self.w.seed}:{op.id}"
        if self.record is not None:
            self.record[key] = got
        want = self.digests.get(key)
        if want is None:
            self.digest_missing += 1
        elif want == got:
            self.digest_checked += 1
        else:
            self._fail(op, "wrong", "output differs from the frozen digest")


def tail(lat):
    """Latency at the highest percentile with at least 10 samples above it."""
    xs = sorted(lat)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes "
                         "(0: ceil(--seconds / the workload's pass_s))")
    ap.add_argument("--max-ops", type=int, default=0,
                    help="smoke test: keep only this many ops per pass")
    ap.add_argument("--record", default=None,
                    help="write the digest of every op output to this file")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS   # imports splicezeta: part of set-up

    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGPROF, _alarm)
    w = WORKLOADS[args.workload](args.seed, OUT_DIR)
    w.partial = bool(args.max_ops)
    try:
        return _run(args, w)
    finally:
        w.cleanup()


def planned_passes(args, w):
    """Passes a run makes: --passes when given, else as many as fill
    --seconds at the commit that defined the benchmark.

    The count is fixed rather than timed so that every run of a workload
    sees the same inputs and the same number of samples, however busy the
    machine is; `op_tail_ms` depends on that number.
    """
    return args.passes or math.ceil(args.seconds / w.pass_s)


def _run(args, w):
    w.setup()
    w.warmup()
    ops = w.ops[:args.max_ops] if args.max_ops else w.ops
    # the benchmark's own objects (ops, inputs, references) would otherwise
    # lengthen every full collection that the package's allocations trigger
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {} if args.record else None
    runner = Runner(w, load_digests(w.name), record=record)
    out = {"setup_s": setup_s, "cap_s": w.cap_s}
    planned = planned_passes(args, w)
    # the traced run times one untraced pass, for the tracing overhead
    passes = 1 if args.trace else planned
    busy = 0.0
    start = time.monotonic()
    for _ in range(passes):
        busy += runner.run_pass(ops)
    wall = time.monotonic() - start

    lat = runner.lat
    completed = runner.attempted - runner.failed_attempts
    t_val, t_pct = tail(lat)
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed_attempts,
        "passes": passes,
        "ops_per_pass": len(ops),
        "wall_s": wall,
        "busy_s": busy,
        "ops_per_s": completed / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": t_val * 1e3,
        "tail_pct": t_pct,
        "fail_frac": runner.failed_attempts / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": {k: list(v) for k, v in sorted(runner.failed.items())},
        # listed defects among this run's ops that did not fail
        "known_passed": sorted(op.id for op in ops if op.id in runner.known
                               and op.id not in runner.failed),
        "digests_checked": runner.digest_checked,
        "digests_missing": runner.digest_missing,
        "traffic": w.traffic(),
        "inputs_digest": digest("\n".join(op.id for op in w.ops)),
    })
    if args.trace:
        out.update(_traced(args, w, ops, busy / passes, planned))
    if record is not None:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=0)
    print(json.dumps(out))
    return 0


def _traced(args, w, ops, untraced_pass_s, planned):
    """Per-layer metrics from traced passes over the same ops.

    The wrappers go in only now, after the untraced pass.
    """
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    w.tracer = tracer
    runner = Runner(w, {}, tracer=tracer)
    passes = max(1, planned // 2)
    traced_busy = sum(runner.run_pass(ops, probes=True) for _ in range(passes))
    layers = {k: v / passes for k, v in tracer.layer_metrics().items()}
    n_in = layers.pop("refine.nodes_in")
    layers["refine.growth"] = layers["refine.nodes_out"] / n_in if n_in else 1.0
    layers["zeta.eq_s"] = tracer.seconds_in("ZetaExpr.__eq__") / passes
    layers["zeta.specialize_s"] = tracer.seconds_in("specialize_chi_top") / passes
    layers["trace.overhead_s"] = traced_busy / passes - untraced_pass_s
    path = os.path.join(OUT_DIR, f"spans-{w.name}-{args.seed}.tsv")
    tracer.write(path)
    return {"layers": layers, "traced_passes": passes, "spans_file": path,
            "spans_dropped": tracer.dropped}


if __name__ == "__main__":
    sys.exit(main())
