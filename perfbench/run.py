"""Layered benchmark for weyldecomp.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json): ``catalogue``,
``search``, ``words`` and ``cli``.  All are closed loop with a single client:
one job at a time, in one worker process.  A run repeats passes over the
workload's jobs until ``--seconds`` is used up; each pass starts a fresh worker
(``worker.py``), because ``build_root_system``, ``longest_element`` and
``_simple_reflections`` are cached per process.  Every job has a time budget;
a job that raises, answers wrongly or overruns counts as failed, and the
worker is killed and replaced when it overruns.

Times are CPU seconds (user + system) of the worker and of the CLI children
it reaps, scaled to the host's speed.  The package is single threaded and the
load is one job at a time, so on an idle machine CPU time equals wall time.
On a shared virtual machine, wall time also counts the time the host gives
the CPU to other guests, which varies by a factor of two from minute to
minute; and CPU time itself moves by 20% within seconds as other guests load
the same cores.  So the worker times a fixed piece of work (calibrate.py)
right after the import and after every job.  Each job's CPU time is multiplied
by CALIB_REF_S over the mean of the two readings on either side of it, and the
set-up time by CALIB_REF_S over the reading after the import: a figure reads
as CPU seconds on a host where the fixed work takes CALIB_REF_S.  Unscaled CPU
times and wall-clock times are kept in the result file.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: every public call the benchmark makes is wrapped in a span, and a
small coverage pass (one B4 job per layer) follows each traced pass, so that
layers a workload never calls still have a reading.  The run is single
threaded, so no layer waits on another and no wait time is reported.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, per-pass figures,
failures, and with tracing the spans) goes to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

JOB_BUDGET_S = 60.0  # per job; a job past it fails and its worker is killed
RUN_DEADLINE_S = 150.0  # jobs not started by then fail, so a run always ends
READY_BUDGET_S = 30.0
# Workers started and ended at once after each untraced pass, so that set-up
# time, one short reading per worker, has enough samples for a steady median.
SETUP_SAMPLES = 4
# CPU seconds of calibrate.run() on the reference host, a 2-core Xeon VM with
# Python 3.11.7 (its readings there spread from 0.033 to 0.037 s).  A fixed
# constant: it only sets the scale in which every time is reported.
CALIB_REF_S = 0.035

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answered_frac": "frac",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}
# per-layer time metric -> span name
LAYER_TIMES = {
    "rootsys.build_s": "rootsys.build",
    "weyl.w0_s": "weyl.w0",
    "weyl.length_s": "weyl.length",
    "weyl.reduced_word_s": "weyl.reduced_word",
    "weyl.evaluate_s": "weyl.evaluate",
    "weyl.count_words_s": "weyl.count_words",
    "decompose.canonical_s": "decompose.canonical",
    "decompose.verify_s": "decompose.verify",
    "decompose.tower_s": "decompose.tower",
    "decompose.recursion_s": "decompose.recursion",
    "decompose.search_s": "decompose.search",
    "words.identities_s": "words.identities",
}
# per-layer rate metric -> span name; the work comes from workloads.work_units
LAYER_RATES = {
    "rootsys.roots_per_s": "rootsys.build",
    "weyl.w0_steps_per_s": "weyl.w0",
    "weyl.words_states_per_s": "weyl.count_words",
    "words.pairs_per_s": "words.identities",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "1/s" for name in LAYER_RATES},
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "bench.other_s": "s",
    "trace.overhead_frac": "frac",
}
NO_WAITS = "none: single-threaded, one job at a time, so no layer waits on another"


class BenchError(Exception):
    """The benchmark cannot run here (no package source, or the worker died)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def build() -> None:
    """Check that the package source is in the checkout and byte-compile it."""
    if not os.path.isfile(os.path.join(SRC, "weyldecomp", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(SRC, 'weyldecomp')}")
    if not compileall.compile_dir(SRC, quiet=2):
        raise BenchError("the package source does not compile")


class Worker:
    """A worker process speaking the line protocol described in worker.py."""

    def __init__(self, trace: bool):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=worker_env(),
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.buf = b""
        ready = self.read(READY_BUDGET_S)
        if ready is None or "ready" not in ready:
            self.kill()
            raise BenchError("the worker did not start")
        if not os.path.abspath(ready["file"]).startswith(SRC + os.sep):
            self.kill()
            raise BenchError(f"weyldecomp was imported from {ready['file']}, not {SRC}")
        self.setup = {
            "scaled_s": ready["setup_cpu_s"] * CALIB_REF_S / ready["calib_s"],
            "cpu_s": ready["setup_cpu_s"],
            "wall_s": ready["ready"] - spawned,
        }

    def send(self, obj: dict) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, timeout: float) -> dict | None:
        """The next protocol message, or None on timeout or end of output."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def finish(self) -> dict:
        """End the worker and return its resource usage."""
        self.proc.stdin.close()
        msg = self.read(JOB_BUDGET_S)
        if msg is not None:
            self.proc.wait(READY_BUDGET_S)
        self.kill()
        if msg is None or "rusage" not in msg:
            raise BenchError("the worker did not report its resource usage")
        return msg["rusage"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def run_pass(jobs: list[dict], trace: bool, goldens: dict, deadline: float) -> dict:
    """Run the jobs in order in a fresh worker; replace the worker if a job overruns."""
    records = []
    setups = []
    usages = []
    worker = None
    first = last = None
    try:
        for job_id, job in enumerate(jobs):
            rec = {"job": job, "spans": [], "problems": []}
            records.append(rec)
            if time.perf_counter() > deadline:
                rec["problems"].append("not started before the run deadline")
                continue
            if worker is None:
                worker = Worker(trace)
                setups.append(worker.setup)
            start = time.perf_counter()
            worker.send({**job, "id": job_id})
            msg = worker.read(JOB_BUDGET_S)
            end = time.perf_counter()
            first = start if first is None else first
            last = end
            if msg is None:
                rec["problems"].append(f"no answer within {JOB_BUDGET_S:g} s")
                worker.kill()
                worker = None
            elif "error" in msg:
                rec["problems"].append(msg["error"])
            else:
                rec["answers"] = msg["answers"]
                rec["spans"] = msg["spans"]
                rec["raw_cpu_s"] = msg["cpu_s"]
                rec["scale"] = CALIB_REF_S / statistics.fmean(msg["calib_s"])
                rec["cpu_s"] = msg["cpu_s"] * rec["scale"]
                rec["problems"] = workloads.check(job, msg["answers"], goldens)
        if worker is not None:
            usages.append(worker.finish())
            worker = None
    finally:
        if worker is not None:
            worker.kill()
    return {
        "records": records,
        "setups": setups,
        "cpu_s": sum(rec.get("cpu_s", 0.0) for rec in records),
        "raw_cpu_s": sum(rec.get("raw_cpu_s", 0.0) for rec in records),
        "wall_s": (last - first) if first is not None else 0.0,
        "rusage": usages,
    }


def _pass_peak_mb(p: dict, workload: str) -> float:
    # The cli workload's own work happens in the CLI children, which the
    # worker reaps, so its RUSAGE_CHILDREN is the largest CLI child's peak.
    key = "children_maxrss_kb" if workload == "cli" else "self_maxrss_kb"
    return max((u[key] for u in p["rusage"]), default=0) / 1024.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def setup_sample() -> dict:
    """Start a worker and end it at once; its set-up figures."""
    worker = Worker(trace=False)
    worker.finish()
    return worker.setup


def _job_medians(passes: list[dict]) -> list[float]:
    """Each job's median scaled CPU seconds over the passes that answered it.

    Every pass runs the same job list, so records line up by position.  A
    percentile over these medians does not move with the number of passes
    that fit in a run, as one over all the samples would.
    """
    medians = []
    for recs in zip(*(p["records"] for p in passes)):
        times = [r["cpu_s"] for r in recs if "cpu_s" in r]
        if times:
            medians.append(statistics.median(times))
    return medians


def end_to_end(passes: list[dict], workload: str) -> dict:
    calls = _job_medians(passes)
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["problems"])
    return {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(s["scaled_s"] for p in passes for s in p["setups"]),
        "peak_rss_mb": statistics.median(_pass_peak_mb(p, workload) for p in passes),
        "answered_frac": 1.0 - failed / attempted,
        "call_p50_ms": 1000.0 * statistics.median(calls),
        "call_p90_ms": 1000.0 * _p90(calls),
    }


def _layer_totals(p: dict) -> dict:
    """Per span name: [scaled CPU seconds, work units] summed over the pass's call spans."""
    totals: dict = {}
    for rec in p["records"]:
        for name, _start, _end, parent, _job, cpu in rec["spans"]:
            if parent is None:
                continue  # the job span itself; its children are the layers
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += cpu * rec["scale"]
            if name in LAYER_RATES.values():
                entry[1] += workloads.work_units(name, rec["job"]["type"])
    return totals


def _child_ms(passes: list[dict], key: str) -> list[float]:
    return [
        1000.0 * rec["answers"]["child"][key] * rec["scale"]
        for p in passes
        for rec in p["records"]
        if "child" in (rec.get("answers") or {})
    ]


def per_layer(untraced: list[dict], traced: list[dict], coverage: list[dict]) -> tuple:
    """Per-layer metrics from traced passes, falling back to the coverage pass
    for a layer the workload never calls; plus the CPU-time accounting."""
    work = [_layer_totals(p) for p in traced]
    cover = [_layer_totals(p) for p in coverage]
    seen = set().union(*work)

    def per_pass(span: str) -> list:
        return [(w if span in seen else c).get(span, [0.0, 0]) for w, c in zip(work, cover)]

    metrics = {m: statistics.median(t for t, _ in per_pass(s)) for m, s in LAYER_TIMES.items()}
    for m, s in LAYER_RATES.items():
        metrics[m] = statistics.median(u / t if t else 0.0 for t, u in per_pass(s))
    accounting = []
    for p, w in zip(traced, work):
        spans = sum(t for t, _ in w.values())
        accounting.append(
            {"cpu_s": p["cpu_s"], "spans_s": spans, "other_s": p["cpu_s"] - spans,
             "self_s": {name: t for name, (t, _) in w.items()}}
        )
    interp = [
        1000.0 * x * rec["scale"]
        for p in coverage
        for rec in p["records"]
        for x in (rec.get("answers") or {}).get("interp_s", [])
    ]
    cli_source = traced if _child_ms(traced, "run_s") else coverage
    metrics["cli.interp_ms"] = statistics.median(interp)
    metrics["cli.import_ms"] = statistics.median(_child_ms(cli_source, "import_s"))
    metrics["cli.run_ms"] = statistics.median(_child_ms(cli_source, "run_s"))
    metrics["bench.other_s"] = statistics.median(a["other_s"] for a in accounting)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["cpu_s"] for p in traced)
        / statistics.median(p["cpu_s"] for p in untraced)
        - 1.0
    )
    return metrics, accounting


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, minimal: bool = False) -> dict:
    """Run one benchmark run and return its full record."""
    build()
    goldens = workloads.load_goldens()
    jobs = workloads.jobs_for(workload, seed, minimal)
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    untraced, traced, coverage = [], [], []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(jobs, False, goldens, deadline))
        untraced[-1]["setups"] += [setup_sample() for _ in range(SETUP_SAMPLES)]
        if trace:
            traced.append(run_pass(jobs, True, goldens, deadline))
            coverage.append(run_pass(workloads.coverage_jobs(), True, goldens, deadline))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - started + longest > seconds:
            break
    passes = untraced + traced + coverage
    records = [r for p in passes for r in p["records"]]
    failures = [
        {"job": r["job"], "problems": r["problems"]} for r in records if r["problems"]
    ]
    record = {
        "attempted": len(records),
        "failed": len(failures),
        "failed_frac": len(failures) / len(records),
        "failures": failures,
        "passes": [
            {k: p[k] for k in ("cpu_s", "raw_cpu_s", "wall_s", "setups", "rusage")}
            for p in untraced
        ],
    }
    if trace:
        metrics, accounting = per_layer(untraced, traced, coverage)
        units = PER_LAYER_UNITS
        record["waits"] = NO_WAITS
        record["accounting"] = accounting
        record["spans"] = [
            {"pass": i, "spans": [s for r in p["records"] for s in r["spans"]]}
            for i, p in enumerate(traced)
        ]
    else:
        metrics, units = end_to_end(untraced, workload), END_TO_END_UNITS
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    record["environment"] = environment(args)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"{args.workload}: {record['attempted']} jobs, {record['failed']} failed "
        f"(failed_frac {record['failed_frac']:.4f}); record in .bench_out/{name}"
    )
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    if args.trace:
        print(f"  waits: {record['waits']}")
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
