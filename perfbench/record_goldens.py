"""Record the CLI goldens: ``python3 perfbench/record_goldens.py``.

Runs every CLI call the benchmark makes as ``python -m weyldecomp ...`` and
writes exit code, stdout and stderr to goldens.json.  Run it only on a commit
whose CLI output is known to be right; the benchmark then requires every later
commit to reproduce these bytes.
"""
import json
import os
import subprocess
import sys

import run
import workloads


def main() -> None:
    run.build()
    calls = workloads.CLI_CALLS + [
        job["argv"] for job in workloads.coverage_jobs() if job["kind"] == "cli"
    ]
    goldens = {}
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "weyldecomp", *argv],
            capture_output=True, text=True, env=run.worker_env(), cwd=run.ROOT, timeout=120,
        )
        goldens[workloads.cli_key(argv)] = {
            "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
        }
    with open(os.path.join(workloads.HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} CLI goldens")


if __name__ == "__main__":
    main()
