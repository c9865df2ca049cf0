"""Append one point to the bench trajectory: ``python3 perfbench/trajectory.py LABEL``.

Reads the untraced result files that ``run.py`` left in ``.bench_out/`` and
appends, per workload, the median and quartiles of every end-to-end metric
over the seeds run, with the environment of those runs, to trajectory.json.
Empty .bench_out/ first, then run the same seeds on every workload, for
example ten seeds each.
"""
import glob
import json
import os
import statistics
import sys

import run
import workloads


def main() -> None:
    label = sys.argv[1]
    point = {"label": label, "workloads": {}}
    for name in workloads.WORKLOADS:
        records = []
        for path in sorted(glob.glob(os.path.join(run.OUT, f"{name}-seed*-trace0.json"))):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        if len(records) < 2:
            raise SystemExit(f"need at least two untraced runs of {name} in {run.OUT}")
        point["environment"] = {
            k: v for k, v in records[0]["environment"].items() if k not in ("seed", "workload")
        }
        summary = {"seeds": sorted(r["environment"]["seed"] for r in records)}
        for metric, unit in run.END_TO_END_UNITS.items():
            values = [r["metrics"][metric]["value"] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
        point["workloads"][name] = summary
    path = os.path.join(workloads.HERE, "trajectory.json")
    points = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            points = json.load(fh)
    points.append(point)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=1)
        fh.write("\n")
    print(f"appended {label!r} to {path}")


if __name__ == "__main__":
    main()
