#!/usr/bin/env python3
"""Build pdm-serve and the benchmark executable from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_pipelined --seed 1 --seconds 25 --trace 0

The last line of stdout is the run's JSON result. Scratch files (the
file_mixed disk files, trace output) go under .perfbench/ in the
repository root. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_pipelined", "batch_lookup_mem", "file_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small populations, for a quick self-test")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # --cache=disabled keeps every build artefact inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled",
         "./bin/pdm_serve.exe", "./perfbench/bench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(root, "_build", "default", "bin", "pdm_serve.exe"),
           "--work-dir", os.path.join(root, ".perfbench")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # The run, and the pdm-serve child it starts, share one CPU: with the
    # load on both vCPUs of a shared host, the hypervisor's steal and
    # cross-CPU wake-ups set the figures (see README, design choices).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # setsid: its own process group, so a run that overstays is stopped together
    # with the pdm-serve child it started.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
