#!/usr/bin/env python3
"""Freeze the digest of every op's output text at the current commit.

    python3 perfbench/freeze.py [--seeds 0-10] [--workloads analyze,cli]

Run from the root of a checkout.  Writes perfbench/digests/<workload>.json,
a map from op id to the first 12 hex digits of the SHA-256 of the op's
rendered output (`render()` strings, `--machine` text, exit codes).  Every
later run compares the ops whose ids are in the table, so run this only on
a commit whose outputs are the reference.  Ops of seeds outside the frozen
range are counted as "not frozen" and checked by the other references only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analyze", "verify", "sweep", "cli")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for name in args.workloads.split(","):
        table = {}
        # the sweep grid does not depend on the seed, only its order does
        seeds = args.seeds[:1] if name == "sweep" else args.seeds
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                rec = os.path.join(tmp, "digests.json")
                subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"),
                     "--workload", name, "--seed", str(seed), "--trace", "0",
                     "--t0", repr(time.monotonic()),
                     "--passes", "1", "--record", rec],
                    env=env, check=True, stdout=subprocess.DEVNULL)
                with open(rec, encoding="utf-8") as fh:
                    table.update(json.load(fh))
            print(f"{name} seed {seed}: {len(table)} digests", flush=True)
        path = os.path.join(HERE, "digests", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True, indent=0)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
