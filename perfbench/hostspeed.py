"""Host-speed probe: a fixed slice of interpreter work, timed between the
program's operations, that scales measured times to a reference host speed.

On the shared 2-vCPU virtual machine the reference figures come from, the
interpreter's speed drifts by up to ±25 % over tens of seconds to minutes
(the machine's other tenants), far more than one run can average out: the
same round of simulations reads 10.5 s in one run and 13.5 s in the next.
The probe runs the same kind of work as the simulator (heap operations,
dict updates, attribute writes) and creates no object the garbage
collector tracks, so its speed follows the host, not the program's heap.
A time multiplied by :meth:`HostProbe.scale` is the time the same work
would take on the host at reference speed.
"""

from __future__ import annotations

import statistics
import time
from heapq import heappop, heappush
from typing import List

#: Round figure near the median time of one probe slice on the reference
#: host (2-vCPU VM, Python 3.11).  Only a unit: it makes scaled times read
#: in seconds.
REFERENCE_S = 0.005

# Preallocated once, so a slice allocates no container the collector tracks;
# the heap is empty again when a slice returns.
_HEAP: List[int] = []
_TABLE = {i: 0 for i in range(256)}


class _Cell:
    __slots__ = ("v",)

    def __init__(self) -> None:
        self.v = 0


_CELL = _Cell()


def probe_slice() -> float:
    """Time one fixed slice of interpreter work."""
    heap, table, cell = _HEAP, _TABLE, _CELL
    t0 = time.perf_counter()
    for i in range(8000):
        heappush(heap, (i * 7919) % 10007)
        table[i & 255] = (table[i & 255] + i) & 0xFFFF
        cell.v = i
    while heap:
        heappop(heap)
    return time.perf_counter() - t0


class HostProbe:
    """Probe samples taken during one measured interval."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Host time spent probing, to subtract from the interval.
        self.spent = 0.0

    def sample(self, slices: int = 3) -> None:
        t0 = time.perf_counter()
        self.samples.extend(probe_slice() for _ in range(slices))
        self.spent += time.perf_counter() - t0

    def scale(self) -> float:
        """Reference speed over the host's speed during the interval."""
        return REFERENCE_S / statistics.median(self.samples)
