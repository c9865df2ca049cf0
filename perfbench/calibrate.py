"""A fixed piece of pure-Python work that measures the host's speed.

``run()`` lists the signed permutation group of rank 4 (the Weyl group of
B4, 384 elements) by breadth-first search over integer tuple matrices, the
kind of work the package does, but with code of its own: a change to the
package never changes how long it takes, a change in the host's speed does.

On a shared virtual machine the CPU time of fixed work moves by 20% within
seconds and by 15% from minute to minute (other guests on the same cores).
A reading taken next to a job tracks that job's slowdown closely: readings
on either side of a package job correlate with it at 0.7 to 0.85.
"""
import time

RANK = 4
ORDER = 384  # 2^4 * 4!


def _compose(u, v):
    cols = list(zip(*v))
    n = len(u)
    return tuple(tuple(sum(row[k] * col[k] for k in range(n)) for col in cols) for row in u)


def _generators():
    eye = [[int(i == j) for j in range(RANK)] for i in range(RANK)]
    gens = []
    for i in range(RANK - 1):
        m = [r[:] for r in eye]
        m[i], m[i + 1] = m[i + 1], m[i]
        gens.append(tuple(map(tuple, m)))
    m = [r[:] for r in eye]
    m[-1][-1] = -1
    gens.append(tuple(map(tuple, m)))
    return tuple(map(tuple, eye)), gens


def run() -> float:
    """CPU seconds of one pass of the fixed work, about 35 ms."""
    start = time.process_time()
    eye, gens = _generators()
    seen = {eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = _compose(w, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    if len(seen) != ORDER:
        raise AssertionError(f"calibration listed {len(seen)} elements, not {ORDER}")
    return time.process_time() - start
