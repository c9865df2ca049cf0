"""Job lists and independent reference answers for the four workloads.

A job is a JSON-able dict that ``worker.py`` executes.  Every answer a worker
returns is checked here against a reference that does not come from the
package: closed forms for root counts and group orders, the hook-length
formula for reduced-word counts, family rules for the shape of w0, and CLI
output recorded at the seed commit (``goldens.json``).
"""
from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# Every type of the test suite's full sweep.
FULL_SWEEP = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# High ranks, where the dense matrix products dominate.  No type here is the
# recursion parabolic of another (A_n -> A_{n-2}, B_n -> B_{n-2},
# C_n -> C_{n-1}, D_n -> D_{n-2}), so one job never warms another's cache.
CATALOGUE_HIGH = ["A15", "A16", "B11", "B12", "C11", "C13", "D11", "D12"]
SEARCH_TYPES = ["E6", "E7", "E8", "F4", "G2", "A9", "B9", "C8", "D8"]
COUNT_TYPES = ["A6", "B5", "C5", "D5", "F4"]
IDENTITY_TYPES = ["E6", "E7", "A8", "B6", "C6", "D6"]

# Short CLI calls over every verb on small and medium types, including the
# expected non-zero exits.  Their outputs are pinned in goldens.json.
CLI_CALLS = [
    ["info", "--type", "A3", "--json"],
    ["info", "--type", "D5", "--json"],
    ["info", "--type", "E8", "--json"],
    ["info", "--type", "G2", "--json"],
    ["w0", "--type", "A3", "--json"],
    ["w0", "--type", "E7", "--json"],
    ["w0", "--type", "F4", "--json"],
    ["decompose", "--type", "B4", "--json"],
    ["decompose", "--type", "D5", "--json"],
    ["decompose", "--type", "E8", "--json"],
    ["verify", "--type", "A5", "--json"],
    ["verify", "--type", "D4", "--json"],
    ["verify", "--type", "E6", "--json"],
    ["unique", "--type", "A3", "--json"],
    ["unique", "--type", "B4", "--json"],
    ["unique", "--type", "F4", "--json"],
    ["unique", "--type", "G2", "--json"],
    ["unique", "--type", "E7", "--json"],
    ["unique", "--type", "E7", "--bound", "63", "--json"],
    ["tower", "--type", "A4", "--json"],
    ["tower", "--type", "E6", "--json"],
    ["tower", "--type", "C3", "--json"],
    ["recursion", "--type", "B4", "--json"],
    ["recursion", "--type", "E7", "--json"],
    ["recursion", "--type", "D4", "--json"],
    ["recursion", "--type", "G2", "--json"],
    ["count-words", "--type", "A3", "--json"],
    ["count-words", "--type", "B3", "--json"],
    ["count-words", "--type", "F4", "--json"],
    ["check-identities", "--type", "A4", "--json"],
    ["check-identities", "--type", "C3", "--json"],
    ["check-identities", "--type", "D4", "--json"],
    ["check-identities", "--type", "F4", "--json"],
    ["export", "--type", "C3", "--json"],
    ["export", "--type", "D4", "--json"],
    ["export", "--type", "E6", "--json"],
    ["export", "--type", "E8", "--json"],
    ["export", "--type", "G2", "--json"],
    ["info", "--type", "Z3", "--json"],
    ["frobnicate", "--type", "A3"],
]

# One small job per layer, run in a traced pass so that every per-layer
# metric has a reading on every workload, including layers the workload
# itself never calls.
COVERAGE_TYPE = "B4"

WORKLOADS = ("catalogue", "search", "words", "cli")


def cli_key(argv) -> str:
    return " ".join(argv)


def load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def jobs_for(workload: str, seed: int, minimal: bool = False) -> list[dict]:
    """The workload's jobs for one pass, in the order the seed fixes."""
    if workload == "catalogue":
        types = ["A2", "B3", "G2"] if minimal else FULL_SWEEP + CATALOGUE_HIGH
        jobs = [{"kind": "catalogue", "type": t} for t in types]
    elif workload == "search":
        types = ["A3", "G2"] if minimal else SEARCH_TYPES
        jobs = [{"kind": "search", "type": t} for t in types]
    elif workload == "words":
        counts = ["A3", "B3"] if minimal else COUNT_TYPES
        idents = ["A3"] if minimal else IDENTITY_TYPES
        jobs = [_count_job(t) for t in counts]
        jobs += [{"kind": "identities", "type": t} for t in idents]
    elif workload == "cli":
        calls = [["info", "--type", "A3", "--json"], ["recursion", "--type", "D4", "--json"]]
        calls = calls if minimal else CLI_CALLS
        jobs = [{"kind": "cli", "argv": list(argv)} for argv in calls]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


def coverage_jobs() -> list[dict]:
    t = COVERAGE_TYPE
    jobs = [
        {"kind": "catalogue", "type": t},
        {"kind": "search", "type": t},
        _count_job(t),
        {"kind": "identities", "type": t},
        {"kind": "cli", "argv": ["info", "--type", t, "--json"]},
        {"kind": "interp", "repeat": 3},
    ]
    return jobs


def _count_job(t: str) -> dict:
    # The memo holds at most |W| elements, so |W| is a valid state bound.
    return {"kind": "count", "type": t, "state_bound": group_order(t)}


# ---------------------------------------------------------------- references

_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}
_EXCEPTIONAL_ROOTS = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}

# Seed-recorded constants for types without a hook-length shape.
REDUCED_WORD_COUNTS = {"D4": 2316, "D5": 12985968, "F4": 2144892, "G2": 2}

# Types whose cross-rank recursion is undefined (tested behaviour).
NO_RELATION = {"A1", "A2", "B2", "B3", "C2", "D3", "D4", "D5", "G2"}


def _split(t: str) -> tuple[str, int]:
    return t[0], int(t[1:])


def positive_root_count(t: str) -> int:
    """N from the closed forms n(n+1)/2, n^2, n^2, n(n-1) and the constants."""
    if t in _EXCEPTIONAL_ROOTS:
        return _EXCEPTIONAL_ROOTS[t]
    fam, n = _split(t)
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[fam]


def degrees(t: str) -> tuple[int, ...]:
    if t in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[t]
    fam, n = _split(t)
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    return tuple(range(2, 2 * n - 1, 2)) + (n,)  # D


def group_order(t: str) -> int:
    """|W| as the product of the degrees."""
    return math.prod(degrees(t))


def _syt_count(shape: list[int]) -> int:
    """Standard Young tableaux of a partition shape, by the hook-length formula."""
    cells = sum(shape)
    conj = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = math.prod(
        (shape[i] - j) + (conj[j] - i) - 1 for i in range(len(shape)) for j in range(shape[i])
    )
    return math.factorial(cells) // hooks


def reduced_word_count(t: str) -> int:
    """Reduced words of w0: staircase SYT in A_n, square SYT in B_n and C_n."""
    fam, n = _split(t)
    if fam == "A":
        return _syt_count(list(range(n, 0, -1)))
    if fam in "BC":
        return _syt_count([n] * n)
    return REDUCED_WORD_COUNTS[t]


def w0_is_minus_identity(t: str) -> bool:
    fam, n = _split(t)
    return not ((fam == "A" and n >= 2) or (fam == "D" and n % 2) or t == "E6")


def canonical_factor_count(t: str) -> int:
    """The dimension of the -1 eigenspace of w0 = -P: the number of P-orbits."""
    fam, n = _split(t)
    if w0_is_minus_identity(t):
        return n
    return {"A": (n + 1) // 2, "D": n - 1, "E": 4}[fam]


def work_units(span_name: str, t: str) -> int:
    """The work a span does, from closed forms: roots, steps, states or pairs."""
    n_pos = positive_root_count(t)
    if span_name in ("rootsys.build", "weyl.w0"):
        return n_pos
    if span_name == "weyl.count_words":
        return group_order(t)
    if span_name == "words.identities":
        return n_pos * (n_pos - 1)
    raise KeyError(span_name)


# ---------------------------------------------------------------- checks

def check(job: dict, ans: dict, goldens: dict) -> list[str]:
    """Problems with one job's answers; an empty list means every check passed."""
    kind = job["kind"]
    if kind == "catalogue":
        return _check_catalogue(job["type"], ans)
    if kind == "search":
        problems = []
        if len(ans["found"]) != 1:
            problems.append(f"{len(ans['found'])} decompositions, expected exactly one")
        elif sorted(ans["found"][0]) != sorted(ans["canonical"]):
            problems.append("the unique decomposition is not the canonical one")
        return problems
    if kind == "count":
        expected = reduced_word_count(job["type"])
        return [] if ans["count"] == expected else [f"count {ans['count']} != {expected}"]
    if kind == "identities":
        code, out, err = ans["code"], ans["stdout"], ans["stderr"]
        doc = json.loads(out) if code == 0 and out else {}
        ok = doc.get("ok") is True and doc.get("checks") and all(doc["checks"].values())
        return [] if ok and err == "" else [f"identity sweep failed: exit {code} {err!r}"]
    if kind == "cli":
        golden = goldens.get(cli_key(job["argv"]))
        if golden is None:
            return ["no golden output recorded"]
        got = {"code": ans["code"], "stdout": ans["stdout"], "stderr": ans["stderr"]}
        return [] if got == golden else ["output differs from the golden"]
    if kind == "interp":
        return []
    raise ValueError(f"unknown job kind {kind!r}")


def _check_catalogue(t: str, ans: dict) -> list[str]:
    n_pos = positive_root_count(t)
    expect = {
        "positive_roots": n_pos,
        "length": n_pos,
        "word_length": n_pos,
        "roundtrip": True,
        "minus_identity": w0_is_minus_identity(t),
        "factor_count": canonical_factor_count(t),
        "verify_ok": True,
        "recursion": "NoRelation" if t in NO_RELATION else True,
    }
    problems = [f"{k}: {ans[k]!r} != {v!r}" for k, v in expect.items() if ans[k] != v]
    tower = [set(s) for s in ans["tower"]]
    if not tower or any(not a < b for a, b in zip(tower, tower[1:])):
        problems.append(f"tower is not a strictly ascending chain: {ans['tower']}")
    return problems
