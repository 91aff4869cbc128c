#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload, with and without
tracing, and for two seeds, runs the first few ops and checks that

- BENCHMARK.json keeps to its own format (keys, names, bounds, sizes);
- the last output line is the result object, with every output correct;
- the metric names emitted equal those declared in BENCHMARK.json;
- another seed changes the inputs but not the metric names.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE_OPS = 30
SEEDS = (1, 2)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def smoke(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke", str(SMOKE_OPS)]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = run.stdout.strip().splitlines()
    assert run.returncode == 0, (cmd, run.returncode, run.stderr[-2000:])
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in want], workload
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    inputs = next(line.split()[1] for line in lines
                  if line.strip().startswith("inputs "))
    return inputs


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("BENCHMARK.json: ok")
    for w in spec["workloads"]:
        seen = []
        for seed in SEEDS:
            for trace in (0, 1):
                seen.append((seed, smoke(spec, w["name"], seed, trace)))
        by_seed = dict(seen)
        assert len(set(by_seed.values())) == len(SEEDS), (
            f"{w['name']}: seeds {SEEDS} gave the same inputs")
        print(f"{w['name']}: ok (inputs {', '.join(by_seed.values())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
