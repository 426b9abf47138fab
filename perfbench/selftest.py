#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each injected fault must fail the run.

Run from the repository root:

    python3 perfbench/selftest.py

A clean run must pass with zero failures; a corrupted verdict, a dropped
reply and a shed reply (on admit-small) and a corrupted session verdict (on
session-churn, caught by the replay) must each raise the failed share, set
"correct" to false and exit nonzero.  The metric names each mode prints
must be exactly the ones BENCHMARK.json registers.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def run(workload, inject="none", trace="0", seconds="1"):
    args = RUN + ["--workload", workload, "--seed", "7", "--seconds", seconds,
                  "--trace", trace, "--inject", inject]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def main():
    registered = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in registered["end_to_end"]]
    per_layer = [m["name"] for m in registered["per_layer"]]
    failures = []

    def check(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
        if not ok:
            failures.append(label)

    code, result, proc = run("admit-small")
    check("clean run passes", code == 0 and result is not None
          and result["correct"] and result["failed"] == 0,
          f"exit {code}, {proc.stderr[-300:] if code else ''}")
    if result is not None:
        check("trace 0 prints the end-to-end metrics",
              sorted(result["metrics"]) == sorted(end_to_end))

    for workload, inject in (("admit-small", "corrupt"), ("admit-small", "drop"),
                             ("admit-small", "shed"), ("session-churn", "corrupt")):
        code, result, proc = run(workload, inject)
        bit = (code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0
               and result["metrics"]["ok_share"]["value"] < 1.0)
        check(f"{workload} --inject {inject} fails the run", bit,
              f"exit {code}, result {None if result is None else {k: result[k] for k in ('correct', 'attempted', 'failed')}}")

    code, result, proc = run("session-churn", trace="1", seconds="2")
    check("traced run passes", code == 0 and result is not None and result["correct"],
          f"exit {code}")
    if result is not None:
        check("trace 1 prints the per-layer metrics",
              sorted(result["metrics"]) == sorted(per_layer))

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
