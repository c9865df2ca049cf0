"""Benchmark worker: one fresh process per pass, package caches cleared per job.

Protocol, one JSON object per line: the worker first writes
``{"ready": <CLOCK_MONOTONIC after import weyldecomp>, "setup_cpu_s": ...,
"calib_s": ..., "file": ...}``; then for every job line read from stdin it
writes ``{"id", "answers", "spans", "cpu_s", "calib_s": [before, after]}`` or
``{"id", "error"}``.  On end of input it writes ``{"rusage": ...}`` and exits.
``calib_s`` holds readings of calibrate.py taken right after the import and
right before and after each job, so the harness can scale each time to the
host's speed at that moment.

Times are CPU seconds (user + system) of the worker and of the children it
has reaped.  Everything is single threaded, so on an idle machine CPU time is
the wall time; unlike wall time it leaves out the time a shared host gives the
CPU to other guests.

Usage: ``python worker.py TRACE`` with TRACE 0 or 1 and the package on
PYTHONPATH.  With tracing on, every public call is wrapped in a span
``[name, start, end, parent, job, cpu_s]`` kept in memory and returned with
the job; start and end are wall-clock readings for the timeline.
"""
import sys
import time

import weyldecomp

READY = time.clock_gettime(time.CLOCK_MONOTONIC)
SETUP_CPU_S = time.process_time()  # interpreter start-up plus the import

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402

import calibrate  # noqa: E402
import weyldecomp.cli  # noqa: E402
from weyldecomp import NoRelation  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_BUDGET_S = 50  # below the harness job budget, so no child outlives its worker


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Job:
    """Runs one job's public calls, recording a span per call when tracing."""

    def __init__(self, job_id: int, trace: bool):
        self.id = job_id
        self.trace = trace
        self.spans: list = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.trace:
            return fn(*args, **kwargs)
        start, cpu0 = time.perf_counter(), cpu_s()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                [name, start, time.perf_counter(), "bench.job", self.id, cpu_s() - cpu0]
            )


def run_catalogue(job: Job, spec: dict) -> dict:
    wd = weyldecomp
    rs = job.call("rootsys.build", wd.system, spec["type"])
    w0 = job.call("weyl.w0", wd.longest_element, rs)
    length = job.call("weyl.length", wd.length_of, rs, w0)
    cls = job.call("weyl.classify", wd.classify_longest, rs)
    word = job.call("weyl.reduced_word", wd.reduced_word_of, rs, w0)
    back = job.call("weyl.evaluate", wd.evaluate_word, rs, word)
    dec = job.call("decompose.canonical", wd.canonical_decomposition, rs)
    report = job.call("decompose.verify", wd.verify_decomposition, rs, dec)
    tower = job.call("decompose.tower", wd.parabolic_tower, rs)
    try:
        recursion = job.call("decompose.recursion", wd.recursion_relation_check, rs)
    except NoRelation:
        recursion = "NoRelation"
    return {
        "positive_roots": len(rs.positive_roots),
        "length": length,
        "word_length": len(word),
        "roundtrip": back == w0,
        "minus_identity": cls.kind == "minus_identity",
        "factor_count": len(dec.factors),
        "verify_ok": report.all_ok(),
        "tower": [list(s) for s in tower.supports],
        "recursion": recursion,
    }


def run_search(job: Job, spec: dict) -> dict:
    wd = weyldecomp
    rs = job.call("rootsys.build", wd.system, spec["type"])
    found = job.call(
        "decompose.search",
        wd.enumerate_max_orthogonal,
        rs,
        rank_bound=rs.rank,
        size_bound=len(rs.positive_roots),
    )
    canonical = job.call("decompose.canonical", wd.canonical_decomposition, rs)
    return {
        "found": [[list(r) for r in d.roots] for d in found],
        "canonical": [list(r) for r in canonical.roots],
    }


def run_count(job: Job, spec: dict) -> dict:
    wd = weyldecomp
    rs = job.call("rootsys.build", wd.system, spec["type"])
    w0 = job.call("weyl.w0", wd.longest_element, rs)
    count = job.call(
        "weyl.count_words", wd.count_reduced_words, rs, w0, state_bound=spec["state_bound"]
    )
    return {"count": count}


def run_identities(job: Job, spec: dict) -> dict:
    argv = ["check-identities", "--type", spec["type"], "--json"]
    code, out, err = job.call("words.identities", weyldecomp.cli.run, argv)
    return {"code": code, "stdout": out, "stderr": err}


def spawn(cmd: list, **kwargs) -> tuple:
    """Run cmd to its exit, killing it after CHILD_BUDGET_S.

    Returns (exit code, stdout, stderr, CPU seconds of the child).
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    before = kids.ru_utime + kids.ru_stime
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs
    )
    timer = threading.Timer(CHILD_BUDGET_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc.returncode, out, err, kids.ru_utime + kids.ru_stime - before


def run_cli(job: Job, spec: dict) -> dict:
    """One ``python -m weyldecomp`` call; the job's CPU time covers spawn to exit.

    With tracing on, the call goes through cli_child.py, which reports its
    import and run times on an extra pipe and prints exactly what the module
    entry point prints.
    """
    if not job.trace:
        code, out, err, _ = spawn([sys.executable, "-m", "weyldecomp", *spec["argv"]])
        return {"code": code, "stdout": out, "stderr": err}
    rfd, wfd = os.pipe()
    child = os.path.join(HERE, "cli_child.py")
    start, cpu0 = time.perf_counter(), cpu_s()
    try:
        code, out, err, _ = spawn(
            [sys.executable, child, str(wfd), *spec["argv"]], pass_fds=(wfd,)
        )
    finally:
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            report = fh.read()
        job.spans.append(
            ["cli.call", start, time.perf_counter(), "bench.job", job.id, cpu_s() - cpu0]
        )
    answers = {"code": code, "stdout": out, "stderr": err}
    if report:
        answers["child"] = json.loads(report)
    return answers


def run_interp(job: Job, spec: dict) -> dict:
    """Bare interpreter start-up, ``python -c pass``: the child's CPU seconds."""
    return {"interp_s": [spawn([sys.executable, "-c", "pass"])[3] for _ in range(spec["repeat"])]}


RUNNERS = {
    "catalogue": run_catalogue,
    "search": run_search,
    "count": run_count,
    "identities": run_identities,
    "cli": run_cli,
    "interp": run_interp,
}


def package_caches() -> list:
    """Every module-level functools cache in the package."""
    return [
        obj
        for name, mod in list(sys.modules.items())
        if name == "weyldecomp" or name.startswith("weyldecomp.")
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def main() -> None:
    trace = sys.argv[1] == "1"
    caches = package_caches()
    # Keep the protocol on the real stdout; anything else printed goes to stderr.
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    calib = calibrate.run()
    send(
        {"ready": READY, "setup_cpu_s": SETUP_CPU_S, "calib_s": calib, "file": weyldecomp.__file__}
    )
    for line in sys.stdin:
        spec = json.loads(line)
        # Cold caches for every job, so that the job order the seed picks
        # never lets one type reuse another's cached subsystems.
        for cache in caches:
            cache.cache_clear()
        job = Job(spec["id"], trace)
        start, cpu0 = time.perf_counter(), cpu_s()
        try:
            answers = RUNNERS[spec["kind"]](job, spec)
        except Exception as exc:  # an unexpected exception is a failed job
            send({"id": job.id, "error": f"{type(exc).__name__}: {exc}"})
            continue
        cpu = cpu_s() - cpu0
        if trace:
            job.spans.append(["bench.job", start, time.perf_counter(), None, job.id, cpu])
        before, calib = calib, calibrate.run()
        send(
            {"id": job.id, "answers": answers, "spans": job.spans, "cpu_s": cpu,
             "calib_s": [before, calib]}
        )
    usage = {
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    send({"rusage": usage})


if __name__ == "__main__":
    main()
