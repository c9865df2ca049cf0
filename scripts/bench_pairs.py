"""Alternating benchmark pairs, a base commit against the working tree.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --out BENCH_26.json --pairs 10 --seconds 30 \
        --seed 2601 [--base HEAD] [--trace 0] [--workload catalogue ...]

The base commit is extracted with ``git archive`` into a temporary directory
and benchmarked with its own ``perfbench/run.py``; the working tree runs its
own.  The tracked files of ``perfbench/`` must not differ between the two, so
both sides run the same benchmark code with the same settings.  Pair k runs
seed ``--seed`` + k on both sides, the base first in even pairs and the
working tree first in odd ones.  For every metric of every workload the
output file holds each side's runs, median and quartiles, and the number of
pairs the working tree won (ties count for neither side), in the direction
BENCHMARK.json gives.  Stopped by SIGTERM or Ctrl-C, it removes the
extracted base.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, into: str) -> None:
    """The files of rev, written under ``into`` by ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: the summary its last stdout line holds."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {checkout} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[dict], change: list[dict], better: dict) -> dict:
    """Per metric: both sides' summaries and the pairs the change won."""
    metrics = {}
    for name, entry in base[0]["metrics"].items():
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1 if better[name] == "lower" else -1
        metrics[name] = {
            "unit": entry["unit"],
            "better": better[name],
            "base": summary(b),
            "change": summary(c),
            "change_wins": sum(1 for x, y in zip(b, c) if sign * (x - y) > 0),
            "ties": sum(1 for x, y in zip(b, c) if x == y),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="result file, e.g. BENCH_26.json")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="repeat; default: all")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    base_rev = git("rev-parse", args.base)
    result = {
        "base": base_rev,
        "change": f"working tree on {git('rev-parse', 'HEAD')}",
        "settings": {
            "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace,
            "seeds": [args.seed + k for k in range(args.pairs)],
        },
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    diff = ["git", "diff", "--quiet", base_rev, "--", "perfbench"]
    if subprocess.run(diff, cwd=ROOT).returncode:
        raise SystemExit(f"perfbench/ differs between {args.base} and the working tree")
    # SIGTERM ends the run as SystemExit, so the with block removes base_dir
    # (and subprocess.run kills a perfbench child it is waiting on).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_dir:
        extract(base_rev, base_dir)
        for workload in workloads:
            runs: dict = {"base": [], "change": []}
            for k, seed in enumerate(result["settings"]["seeds"]):
                order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
                for side in order:
                    checkout = base_dir if side == "base" else ROOT
                    runs[side].append(run(checkout, workload, seed, args.seconds, args.trace))
                print(f"{workload}: pair {k + 1}/{args.pairs} done", file=sys.stderr)
            result["workloads"][workload] = {
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "metrics": compare(runs["base"], runs["change"], better),
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
