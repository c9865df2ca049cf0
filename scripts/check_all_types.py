"""The headline results on every supported type, in one process.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/check_all_types.py [--record]

For each of the 257 types that ``build_root_system`` accepts (ranks up to
64) it checks that:

- ``verify_decomposition`` passes all five checks on the canonical
  decomposition;
- the cross-rank recursion holds, or is refused with ``NoRelation``: 248
  and 9 types;
- the uniqueness search with its guard lifted finds exactly one
  decomposition, equal as a set to the canonical roots (the search lists
  simple factors in another order);
- the sha256 of ``json.dumps(list(cli.run(["export", "--type", T])))``
  equals the digest recorded in ``tests/fixtures/all_types_export_digests.json``;
- the sha256 of ``json.dumps`` of five values equals the one recorded for
  that type and field in the ledger ``tests/fixtures/all_types_ledger.json``:
  the positive roots in order, w0's matrix, ``reduced_word_of(w0)``, the
  recursion outcome and the lifted-bound search's root sequences.  The
  ledger is a regression oracle recorded from the code, not an independent
  route: it says that these outputs did not change.  ``--record`` rewrites
  it from the checkout's code when every other check passes;
- the positive roots are distinct (``root_index`` has one entry for each)
  and as many as the closed form says: n(n+1)/2 in A_n, n^2 in B_n and C_n,
  n(n-1) in D_n, and 36, 63, 120, 24 and 6 in E6, E7, E8, F4 and G2;
- the length of w0 is that same closed form.  The roots, w0 and its kept
  word ``longest_word`` come from one walk, so neither the root count nor
  ``length_of`` (which reads that word) is a second route to l(w0).  The
  script walks w0 down from its own negated column heights with
  ``_greedy_walk``, as ``reduced_word_of`` does for any other matrix, and
  counts the letters.  Every other check except the root count takes w0 as
  given, so a type whose w0 fails this one is checked no further;
- that walk's letters, reversed, are ``longest_word``, and ``evaluate_word``
  replays ``longest_word`` to w0;
- w0 is minus a diagram automorphism that is an involution of 1..n
  (``classify_longest``), as w0 is its own inverse.

It prints its CPU time and peak RSS, and the CPU time over all types, each
with its slowest type, of three phases: the build (``build_root_system``, the
greedy walk to w0 included); the decomposition layer (the canonical
decomposition, built on this first call for the system, then
``verify_decomposition``, ``parabolic_tower`` and
``recursion_relation_check``); and the lifted-bound search.  It gates on none
of them.  It exits 1 naming the types that fail, and for the ledger each field
that differs.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from weyldecomp import (
    NoRelation,
    canonical_decomposition,
    classify_longest,
    cli,
    enumerate_max_orthogonal,
    evaluate_word,
    longest_element,
    parabolic_tower,
    recursion_relation_check,
    reduced_word_of,
    system,
    verify_decomposition,
)
from weyldecomp.rootsys import _greedy_walk

TYPES = (
    [f"A{n}" for n in range(1, 65)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 65)]
    + [f"D{n}" for n in range(3, 65)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
FIXTURES = Path(__file__).parents[1] / "tests" / "fixtures"
DIGESTS = FIXTURES / "all_types_export_digests.json"
LEDGER = FIXTURES / "all_types_ledger.json"
FIELDS = ("positive_roots", "longest", "reduced_word", "recursion", "search")


def root_count(t: str) -> int:
    """|positive roots| of t by its closed form."""
    n = int(t[1:])
    closed = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}
    return closed.get(t[0]) or {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[t]


def is_involution(sigma: tuple[int, ...]) -> bool:
    """True iff sigma, a map of 1..n into itself, is its own inverse."""
    return all(sigma[s - 1] == i for i, s in enumerate(sigma, 1))


def sha256(value) -> str:
    """The hex sha256 of ``json.dumps(value)``."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def failures(t: str, digest: str, entry: dict, recursion: Counter, timings: dict) -> list[str]:
    """The checks t fails; fills ``entry`` with the sha256 of each ledger
    field it reaches, counts its recursion outcome in ``recursion`` and
    records the CPU seconds of its build, its decomposition layer and its
    lifted-bound search under ``timings[phase][t]``."""
    start = time.process_time()
    rs = system(t)
    timings["build"][t] = time.process_time() - start
    w0 = longest_element(rs)
    entry["positive_roots"] = sha256(rs.positive_roots)
    entry["longest"] = sha256(w0)
    entry["reduced_word"] = sha256(reduced_word_of(rs, w0))
    count = len(rs.positive_roots)
    failed = []
    if count != root_count(t) or len(rs.root_index) != count:
        failed.append(f"root count ({count}, {len(rs.root_index)} distinct)")
    walk = tuple(_greedy_walk(rs.simple_coroots, [-sum(col) for col in zip(*w0)]))
    if len(walk) != root_count(t):  # every check below takes w0 as given
        return failed + [f"w0 length ({len(walk)})"]
    if walk[::-1] != rs.longest_word or evaluate_word(rs, rs.longest_word) != w0:
        failed.append("w0 word")
    if not is_involution(classify_longest(rs).automorphism):
        failed.append("w0 involution")
    start = time.process_time()
    canonical = canonical_decomposition(rs)  # the first call for this system
    verified = verify_decomposition(rs, canonical).all_ok()
    parabolic_tower(rs)
    try:
        holds = recursion_relation_check(rs)
    except NoRelation:
        holds = "NoRelation"
    timings["decomposition layer"][t] = time.process_time() - start
    if not verified:
        failed.append("verify")
    recursion[holds] += 1
    entry["recursion"] = sha256(holds)
    if holds is False:
        failed.append("recursion")
    start = time.process_time()
    found = enumerate_max_orthogonal(rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots))
    timings["lifted-bound search"][t] = time.process_time() - start
    entry["search"] = sha256([d.roots for d in found])
    if len(found) != 1 or set(found[0].roots) != set(canonical.roots):
        failed.append(f"uniqueness ({len(found)} found)")
    export = json.dumps(list(cli.run(["export", "--type", t]))).encode()
    if hashlib.sha256(export).hexdigest() != digest:
        failed.append("export digest")
    return failed


def main() -> int:
    if sys.argv[1:] not in ([], ["--record"]):
        raise SystemExit(f"usage: {sys.argv[0]} [--record]")
    recording = sys.argv[1:] == ["--record"]
    digests = json.loads(DIGESTS.read_text())
    ledger = dict.fromkeys(TYPES, {}) if recording else json.loads(LEDGER.read_text())
    for path, table in (DIGESTS, digests), (LEDGER, ledger):
        if len(TYPES) != 257 or sorted(table) != sorted(TYPES):
            raise SystemExit(f"{path} does not hold one entry per supported type")
    recursion: Counter = Counter()
    timings: dict[str, dict[str, float]] = {
        "build": {},
        "decomposition layer": {},
        "lifted-bound search": {},
    }
    entries: dict[str, dict[str, str]] = {t: {} for t in TYPES}
    failed = {}
    for t in TYPES:
        what = failures(t, digests[t], entries[t], recursion, timings)
        if not recording:
            what += [f"ledger {f}" for f in FIELDS if entries[t].get(f) != ledger[t].get(f)]
        if what:
            failed[t] = what
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        f"{len(TYPES)} types, recursion {dict(recursion)}: "
        f"{usage.ru_utime + usage.ru_stime:.1f} s CPU, peak RSS {usage.ru_maxrss / 1024:.0f} MB"
    )
    for phase, seconds in timings.items():
        if seconds:  # a type whose w0 fails is not searched
            slowest = max(seconds, key=seconds.get)
            print(
                f"{phase}: {sum(seconds.values()):.2f} s CPU over {len(seconds)} "
                f"types, slowest {slowest} {seconds[slowest]:.3f} s"
            )
    if recursion != Counter({True: 248, "NoRelation": 9}):
        failed["recursion"] = [f"{dict(recursion)}, not 248 True and 9 NoRelation"]
    for t, what in failed.items():
        print(f"{t}: {', '.join(what)}", file=sys.stderr)
    if recording and not failed:
        LEDGER.write_text(json.dumps(entries, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
