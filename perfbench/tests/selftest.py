#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root. For every workload in BENCHMARK.json, a short
untraced and a short traced run on the default seed, and a short untraced
run on the holdout seed, must each

  * exit 0 and pass the output check (correct, failed == 0);
  * print, as the last line, exactly the metrics BENCHMARK.json names for
    that mode, each with its declared unit, end-to-end values never 0;
  * on the LRB workloads, report the same virtual-time response figures
    ("# ..._vs" lines) traced and untraced.

The benchmark program is built on the first run (see perfbench/run.py).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_SEED = 42
HOLDOUT_SEED = 7


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check(workload, seed, trace, specs, failures):
    label = "%s seed %d trace %d" % (workload, seed, trace)
    before = len(failures)
    code, lines, err = run(workload, seed, trace)
    if code != 0 or not lines:
        failures.append("%s: exit %d\n%s" % (label, code, err[-2000:]))
        return []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append("%s: output check %s" % (label, lines[-1][:200]))
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        failures.append("%s: metrics %s" % (label, sorted(metrics)))
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        if got["unit"] != spec["unit"]:
            failures.append("%s: %s unit %s, declared %s"
                            % (label, spec["name"], got["unit"], spec["unit"]))
        if not trace and not got["value"]:
            failures.append("%s: %s is 0" % (label, spec["name"]))
    print("%s %s" % ("ok  " if len(failures) == before else "FAIL", label))
    return [l for l in lines if l.startswith("# ") and "_vs " in l]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = check(workload, DEFAULT_SEED, 0, bench["end_to_end"], failures)
        traced = check(workload, DEFAULT_SEED, 1, bench["per_layer"], failures)
        if untraced != traced:
            failures.append("%s: virtual-time figures differ traced vs untraced"
                            % workload)
        check(workload, HOLDOUT_SEED, 0, bench["end_to_end"], failures)
    for failure in failures:
        print(failure, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
