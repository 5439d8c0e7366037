"""A fixed pure-Python reference workload that measures host speed.

The benchmark's host shares its cores with other tenants.  Their load
changes the speed of this process by up to 1.8x, in spells that last
from seconds to minutes, and CPU time shows the same change (it is
contention for the core, not time spent off it).  A run of this loop
right before each timed call measures how fast the host is at that
moment, and the benchmark reports every host time rescaled by it::

    reported = measured * REF_S / (time of the reference run)

Reported times are therefore *reference seconds*: the time the call
would take on a host where one reference run takes :data:`REF_S`.
Raw host times are printed alongside as context.

The loop moves flits through a small 8x8 mesh of router objects
(deques, dicts, attribute access, method calls), which tracks the
simulator's own slowdowns closely: over 115 passes of
``lowload_gated`` on a 2-vCPU VM whose pass times varied 16%
(coefficient of variation), pass time over reference time varied 4.5%.
It imports nothing from ``repro``, so a change to the simulator does
not change the yardstick.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

#: seconds one reference run takes on an uncontended core of the VM
#: the benchmark was written on (Xeon, 2 vCPUs, Python 3.11); only a
#: scale, so reported times read like host seconds on that machine
REF_S = 0.002
_DIRS = 5


class _Router:
    def __init__(self, i: int, k: int) -> None:
        self.id, self.x, self.y = i, i % k, i // k
        self.ports = [deque() for _ in range(_DIRS)]
        self.sent = 0

    def route(self, dst: int, k: int) -> int:
        dx = dst % k - self.x
        if dx:
            return 1 if dx > 0 else 2
        dy = dst // k - self.y
        if dy:
            return 3 if dy > 0 else 4
        return 0


def reference_run(k: int = 8, cycles: int = 60, rate: float = 0.05) -> int:
    """Inject, route and eject flits on a ``k`` x ``k`` mesh: the total
    latency of the delivered flits (the same on every call)."""
    rng = random.Random(11)
    n = k * k
    routers = [_Router(i, k) for i in range(n)]
    flits: dict[int, tuple[int, int]] = {}
    seq = latency = 0
    for cycle in range(cycles):
        for r in routers:
            if rng.random() < rate:
                seq += 1
                flits[seq] = (rng.randrange(n), cycle)
                r.ports[0].append(seq)
        for r in routers:
            for q in r.ports:
                if not q:
                    continue
                f = q[0]
                dst, born = flits[f]
                p = r.route(dst, k)
                if p == 0:
                    q.popleft()
                    del flits[f]
                    latency += cycle - born
                    continue
                nxt = routers[r.id + (1, -1, k, -k)[p - 1]].ports[p]
                if len(nxt) < 4:
                    q.popleft()
                    nxt.append(f)
                    r.sent += 1
    return latency


def host_scale(runs: int = 1) -> float:
    """:data:`REF_S` over the median time of ``runs`` reference runs now:
    the factor that turns a host time measured next into reference
    seconds."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_run()
        times.append(time.perf_counter() - t0)
    return REF_S / statistics.median(times)
