"""How fast the machine runs right now, from a fixed reference loop.

The benchmark runs on a few vCPUs of a shared host, where the same work
takes from 1.0 to 2.0 times its best time for stretches of seconds to
minutes, and process CPU time stretches with it (it is not steal time).  A
run that lands in a slow stretch would read slow whatever the program did.

So the benchmark times this loop next to the work it measures, and scales
each measured time by ``NOMINAL_S / (time of the loop nearby)``: the time
the work would take on a machine running the loop in ``NOMINAL_S``.  The
loop is pure Python, like the package (float math, calls, tuples), and
touches nothing of the program, so a change to the program cannot move it.
On a fixed deck of shooting searches timed next to the loop for 100 s, the
spread (q3 - q1) / median of deck times fell from 0.12 to 0.05 once scaled.
The match is not exact: in fast stretches the loop speeds up more than the
package does (1.6 against 1.3 times), and process start-up, which is most
of a ``cli-cold`` call and of a set-up, follows the loop more loosely still.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: Iterations of the reference loop: about 3 ms on a 2-vCPU Xeon VM.
ITERATIONS = 10_000
#: Scaled times are given for a machine that runs the loop in this time.
NOMINAL_S = 0.003
#: Reference times on each side of a call that scale it: the machine's speed
#: changes over seconds, and five references span under a second on the
#: in-process workloads, about 1.5 s on ``cli-cold``.
WINDOW = 2


def reference_s(passes: int = 1) -> float:
    """Wall time of the reference loop, the median of ``passes`` passes."""
    times = []
    for _ in range(passes):
        t0 = perf_counter()
        x = 0.1
        acc = 0.0
        for _ in range(ITERATIONS):
            v = (math.cos(x), math.sin(x))
            acc += v[0] * v[1] + abs(v[0] - 0.5)
            x += 1e-4
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by the median of the reference times taken around it
    (``WINDOW`` before and after, in the order they were taken), so that one
    reference slowed by an interrupt does not move it."""
    out = []
    for i, s in enumerate(seconds):
        nearby = refs[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(s * NOMINAL_S / statistics.median(nearby))
    return out
