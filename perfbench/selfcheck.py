"""Self-check of the benchmark: ``python3 perfbench/selfcheck.py``.

Runs every workload at a minimal size, with tracing off and on, and checks
that each metric BENCHMARK.json names is reported with its unit and that the
answers pass.  Then it breaks one reference value on purpose and checks that
the benchmark counts the mismatches as failures instead of passing them.
Exits 0 when every check holds.
"""
import json
import os
import sys

import run
import workloads


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads than workloads.py")

    for t in workloads.FULL_SWEEP + workloads.CATALOGUE_HIGH:
        # N = sum(d_i - 1): the degrees and the root-count closed forms agree.
        if sum(d - 1 for d in workloads.degrees(t)) != workloads.positive_root_count(t):
            problems.append(f"degrees of {t} disagree with its positive-root count")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, seed=1, seconds=0, trace=trace, minimal=True)
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {expected[trace]}")
            if record["failed"]:
                problems.append(f"{name} trace={trace}: failures {record['failures']}")

    # A deliberately wrong reference must turn into counted failures.
    right = workloads.reduced_word_count
    workloads.reduced_word_count = lambda t: right(t) + 1
    try:
        record = run.measure("words", seed=1, seconds=0, trace=False, minimal=True)
    finally:
        workloads.reduced_word_count = right
    counts = sum(1 for job in workloads.jobs_for("words", 1, minimal=True) if job["kind"] == "count")
    if record["failed"] != counts:
        problems.append(f"wrong reference gave {record['failed']} failures, expected {counts}")

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
