"""The headline results on every supported type, in one process.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/check_all_types.py

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
- the positive roots are distinct (``root_index`` has one entry for each)
  and as many as the closed form says: n(n+1)/2 in A_n, n^2 in B_n and C_n,
  n(n-1) in D_n, and 36, 63, 120, 24 and 6 in E6, E7, E8, F4 and G2;
- the length of w0 is that same closed form.  The roots and w0 come from
  one walk, so the root count is no second route to l(w0), but
  ``length_of`` walks w0 down again from its own column heights.  Every
  other check except the root count takes w0 as given, so a type whose w0
  fails this one is checked no further;
- w0 is minus a diagram automorphism that is an involution of 1..n
  (``classify_longest``), as w0 is its own inverse.

It prints its CPU time and peak RSS, and the CPU time that the build
(``build_root_system``, the greedy walk to w0 included) and the lifted-bound
search took over all types, each with its slowest type; it gates on none of
them.  It exits 1 naming the types that fail.
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
    length_of,
    longest_element,
    recursion_relation_check,
    system,
    verify_decomposition,
)

TYPES = (
    [f"A{n}" for n in range(1, 65)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 65)]
    + [f"D{n}" for n in range(3, 65)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
DIGESTS = Path(__file__).parents[1] / "tests" / "fixtures" / "all_types_export_digests.json"


def root_count(t: str) -> int:
    """|positive roots| of t by its closed form."""
    n = int(t[1:])
    closed = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}
    return closed.get(t[0]) or {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[t]


def is_involution(sigma: tuple[int, ...]) -> bool:
    """True iff sigma, a map of 1..n into itself, is its own inverse."""
    return all(sigma[s - 1] == i for i, s in enumerate(sigma, 1))


def failures(t: str, digest: str, recursion: Counter, timings: dict) -> list[str]:
    """The checks t fails; counts its recursion outcome in ``recursion`` and
    records the CPU seconds of its build and of its lifted-bound search under
    ``timings[phase][t]``."""
    start = time.process_time()
    rs = system(t)
    timings["build"][t] = time.process_time() - start
    count = len(rs.positive_roots)
    failed = []
    if count != root_count(t) or len(rs.root_index) != count:
        failed.append(f"root count ({count}, {len(rs.root_index)} distinct)")
    length = length_of(rs, longest_element(rs))
    if length != root_count(t):  # every check below takes w0 as given
        return failed + [f"w0 length ({length})"]
    if not is_involution(classify_longest(rs).automorphism):
        failed.append("w0 involution")
    canonical = canonical_decomposition(rs)
    if not verify_decomposition(rs, canonical).all_ok():
        failed.append("verify")
    try:
        holds = recursion_relation_check(rs)
    except NoRelation:
        holds = "NoRelation"
    recursion[holds] += 1
    if holds is False:
        failed.append("recursion")
    start = time.process_time()
    found = enumerate_max_orthogonal(rs, rank_bound=rs.rank, size_bound=len(rs.positive_roots))
    timings["lifted-bound search"][t] = time.process_time() - start
    if len(found) != 1 or set(found[0].roots) != set(canonical.roots):
        failed.append(f"uniqueness ({len(found)} found)")
    export = json.dumps(list(cli.run(["export", "--type", t]))).encode()
    if hashlib.sha256(export).hexdigest() != digest:
        failed.append("export digest")
    return failed


def main() -> int:
    digests = json.loads(DIGESTS.read_text())
    if len(TYPES) != 257 or sorted(digests) != sorted(TYPES):
        raise SystemExit(f"{DIGESTS} does not hold one digest per supported type")
    recursion: Counter = Counter()
    timings: dict[str, dict[str, float]] = {"build": {}, "lifted-bound search": {}}
    failed = {t: f for t in TYPES if (f := failures(t, digests[t], recursion, timings))}
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
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
