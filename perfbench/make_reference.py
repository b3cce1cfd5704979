#!/usr/bin/env python3
"""Record the LRB output references the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root, only when the engine's outputs change on
purpose. Writes, for lrb_ramp and lrb_overload,

  * reference/<workload>_<seed>.ref, the full fingerprint, for the default
    and holdout seeds (recording also cross-checks the benchmark's LRB code
    against lrb::RunLRBExperiment);
  * reference/digests.txt, one digest line per workload for seeds 0-20.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FULL_SEEDS = (42, 7)
DIGEST_SEEDS = range(0, 21)
WORKLOADS = ("lrb_ramp", "lrb_overload")


def drive(binary, workload, seed, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("failed: %s" % " ".join(cmd))
    for line in proc.stdout.splitlines():
        if line.startswith("# digest "):
            return line[len("# digest "):]
    sys.exit("no digest line: %s" % " ".join(cmd))


def main():
    binary = run.build(run.build_dir())
    if binary is None:
        return 2
    out_dir = os.path.join(run.HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    digests = []
    for workload in WORKLOADS:
        for seed in FULL_SEEDS:
            path = os.path.join(out_dir, "%s_%d.ref" % (workload, seed))
            drive(binary, workload, seed, ["--write-reference", path])
            print("wrote", path)
        for seed in DIGEST_SEEDS:
            digests.append("%s %s" % (workload, drive(binary, workload, seed)))
            print(digests[-1])
    with open(os.path.join(out_dir, "digests.txt"), "w") as f:
        f.write("\n".join(digests) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
