#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smoke size, untraced
and traced, must print a result line whose metrics are exactly the ones
BENCHMARK.json lists, with no failed operation and every check passing.

Run from the repository root: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w["name"], "--seed", "7",
                 "--seconds", "2", "--trace", str(trace), "--smoke"],
                cwd=root, capture_output=True, text=True, timeout=300)
            lines = out.stdout.strip().splitlines()
            try:
                r = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                ok = (out.returncode == 0 and r["correct"] is True and r["failed"] == 0
                      and r["attempted"] > 0 and got == want[trace]
                      and all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()))
            except (IndexError, ValueError, KeyError):
                ok = False
            print("%-4s %s trace=%d" % ("ok" if ok else "FAIL", w["name"], trace))
            if not ok:
                bad += 1
                sys.stdout.write(out.stdout[-2000:] + out.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
