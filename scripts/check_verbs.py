"""The CLI at the rank limit: a fixed table of calls, each with its exact exit.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/check_verbs.py

It runs each call in ``CALLS`` once as a child ``python -m weyldecomp``:

- every verb in ``cli._VERBS`` on A64, B64, C64, D64 and E8, expected to exit
  0, except 1 for ``unique`` (the size guard refuses) and ``count-words``
  (the state bound refuses);
- ``unique --bound 100000`` on A20, D30, B64, C64 and D64;
- ``check-identities`` on D32 and A62 (B64's, the largest sweep, is above);
- ``count-words`` on E6.

A call passes if it finishes within 60 s (it is killed after that), exits
with exactly its expected code, and prints nothing on stderr when it exits 0
and exactly one line when it exits 1.  A ``check-identities`` call must also
print the pair and named-case counts that ``identity_counts`` gives by closed
forms, a second route to the sweep's numbers.  For each call the script
prints its argv, exit code, CPU time and peak RSS, read from ``os.wait4`` for
that child alone, then a total line.  It exits 1 naming every call that
failed.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading

from weyldecomp import cli

TIMEOUT_S = 60
RANK_LIMIT = ("A64", "B64", "C64", "D64", "E8")
REFUSED = ("unique", "count-words")
LIFTED_BOUND = ("A20", "D30", "B64", "C64", "D64")
CALLS = (
    [((verb, "--type", t), int(verb in REFUSED)) for t in RANK_LIMIT for verb in cli._VERBS]
    + [(("unique", "--type", t, "--bound", "100000"), 0) for t in LIFTED_BOUND]
    + [(("check-identities", "--type", t), 0) for t in ("D32", "A62")]
    + [(("count-words", "--type", "E6"), 0)]
)


def identity_counts(t: str) -> tuple[int, int]:
    """(P, K) in ``check-identities``' "(P pairs, K named cases)" on t of family
    A to E, by closed forms in the Coxeter number h: P = N(N - 1) over the
    N = nh/2 positive roots, and K = N(2h - 4) in A, D and E, 4n(n - 1)^2 in
    B_n and n(n - 1)(4n - 6) in C_n (tests/test_words.py checks them to rank 20)."""
    fam, n = t[0], int(t[1:])
    h = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get(n)}[fam]
    N = n * h // 2
    named = {"B": 4 * n * (n - 1) ** 2, "C": n * (n - 1) * (4 * n - 6)}
    return N * (N - 1), named.get(fam, N * (2 * h - 4))


def run(args: tuple[str, ...]) -> tuple[int, int, str, float, float]:
    """Run one call; return (exit code, stderr lines, stdout, CPU seconds, peak
    RSS in MB).  A call killed at the timeout has exit code -9."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "weyldecomp", *args], stdout=out, stderr=err
        )
        timer = threading.Timer(TIMEOUT_S, child.kill)
        timer.start()
        # wait4 reaps the child itself (Popen.wait would drop its rusage), and
        # the returncode set below tells Popen that it is gone.
        _, status, usage = os.wait4(child.pid, 0)
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = len(err.read().splitlines())
        out.seek(0)
        text = out.read().decode()
    return child.returncode, lines, text, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def main() -> int:
    failed, cpu, peak = [], 0.0, 0.0
    for args, expected in CALLS:
        code, lines, out, seconds, rss = run(args)
        cpu, peak = cpu + seconds, max(peak, rss)
        call = f"{' '.join(args)}: exit {code}, {lines} stderr lines"
        print(f"{call}, {seconds:.1f} s CPU, peak RSS {rss:.0f} MB", flush=True)
        if code != expected or lines != expected:  # no stderr line on exit 0, one on exit 1
            failed.append(f"{call}, expected exit {expected}")
        elif args[0] == "check-identities":
            counts = re.search(r"\((\d+) pairs, (\d+) named cases\)", out)
            want = identity_counts(args[2])
            if counts is None or tuple(map(int, counts.groups())) != want:
                failed.append(f"{call}, expected ({want[0]} pairs, {want[1]} named cases)")
    print(f"{len(CALLS)} calls, {len(failed)} failed: {cpu:.1f} s CPU, "
          f"largest peak RSS {peak:.0f} MB")
    for call in failed:
        print(call, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
