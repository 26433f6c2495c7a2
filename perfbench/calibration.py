"""A fixed pure-Python loop that measures how fast the host runs right now.

The host of a shared virtual machine changes speed by up to 2x, from one
second to the next and from one run to the next, on unchanged code.  So
the benchmark times this loop right before every job and states each
job's time in units of the loop's time (``ref``) around that job: the
host's speed cancels, and any change in the program's own speed stays.

The loop imports nothing from msostr, so no change of the program can
move it.  It is a subset construction over dicts, tuples and frozensets,
the kind of work the automaton engine does.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# the words over {a, b} whose K-th letter from the right is a: its subset
# construction visits 2^K state sets
K = 8
LETTERS = ("a", "b")
DELTA = {(0, "a"): (0, 1), (0, "b"): (0,)}
DELTA.update({(i, x): (i + 1,) for i in range(1, K) for x in LETTERS})
# A job's reference time is the median of the loop times taken within
# REACH seconds of job time of the job's middle, and of at least NEAREST
# of them.  Chosen on recorded runs of the workloads: wider windows
# follow the host's changes of speed less closely, narrower ones rest on
# too few loop times.
REACH = 0.5
NEAREST = 3


def _subsets() -> int:
    start = frozenset({0})
    seen = {start: 0}
    todo = [start]
    while todo:
        states = todo.pop()
        for x in LETTERS:
            step = frozenset(q for p in states for q in DELTA.get((p, x), ()))
            if step not in seen:
                seen[step] = len(seen)
                todo.append(step)
    return len(seen)


def time_loop() -> float:
    """Seconds the loop takes now (about a millisecond)."""
    start = perf_counter()
    if _subsets() != 2 ** K:
        raise AssertionError("calibration loop went wrong")
    return perf_counter() - start


def in_ref(starts: list[float], times: list[float], loops: list[float]) -> list[float]:
    """Each job time divided by its reference time.  Job ``i`` started at
    ``starts[i]`` seconds of job time and took ``times[i]``; ``loops[i]``
    was timed right before it."""
    out = []
    for i, (start, t) in enumerate(zip(starts, times)):
        mid = start + t / 2
        lo = bisect.bisect_left(starts, mid - REACH)
        hi = bisect.bisect_right(starts, mid + REACH)
        if hi - lo < NEAREST:
            lo = max(0, min(i - NEAREST // 2, len(loops) - NEAREST))
            hi = lo + NEAREST
        out.append(t / statistics.median(loops[lo:hi]))
    return out
