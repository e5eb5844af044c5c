"""Host-speed calibration: fixed units of interpreter work timed beside the work.

On the shared 2-vCPU host this benchmark was tuned on, the same code runs in
two speed regimes that switch every few seconds to a minute (neighbours on
the same cores): the slow regime takes 1.4x to 1.9x as long as the fast one,
depending on the code.  A 10-second run cannot average that away, so raw
host times of separate runs spread wider than any useful regression bound.

Every timed segment and every set-up is therefore bracketed by calibration
samples.  A sample times two fixed units and takes their geometric mean:

* a memory-bound unit: random lookups in a 300,000-entry dict, bound by
  memory latency the way the simulator's large object graphs are;
* a compute-bound unit: a miniature discrete-event loop (heap, generator
  resumptions, small dict updates) whose working set stays in cache.

The memory unit alone tracked ``warm_get_fanout`` well but under-corrected
the compute-bound ``reclaim_fleet``; the compute unit alone did the reverse.
Over six runs each, their geometric mean cut the quartile spread of the
median time per request from 0.45 to 0.09 of the median on
``reclaim_fleet`` and from 0.22 to 0.07 on ``warm_get_fanout``.  Host times
are reported scaled to the speed at which a sample takes ``REFERENCE_S``:

    calibrated = raw * REFERENCE_S / (mean of the bracketing samples)

The units share no code with the program, so a change to the program moves
calibrated and raw times alike; raw times are reported beside them.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from time import perf_counter

#: Sample time at the reference speed: the median on an Intel Xeon 2-vCPU
#: host with CPython 3.11 when this benchmark was written.
REFERENCE_S = 0.0153


def _event_loop_unit() -> int:
    table: dict[int, float] = {}
    heap: list[tuple[float, int]] = []

    def process(index: int):
        delay = 0.001 * (index % 7 + 1)
        for step in range(40):
            table[index] = table.get(index, 0.0) + step * delay
            yield delay * ((step * 2654435761) % 97 + 1)

    processes = [process(index) for index in range(250)]
    for index, proc in enumerate(processes):
        heapq.heappush(heap, (next(proc), index))
    resumed = 0
    while heap:
        now, index = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + next(processes[index]), index))
        except StopIteration:
            continue
        resumed += 1
    return resumed


class Calibrator:
    """Times the calibration units and keeps every sample."""

    def __init__(self, entries: int = 300_000, lookups: int = 30_000) -> None:
        rng = random.Random(7)
        self._table = {f"key-{index}": index for index in range(entries)}
        self._keys = tuple(f"key-{rng.randrange(entries)}" for _ in range(lookups))
        for key in self._keys:  # cache every key's hash before timing
            hash(key)
        self.memory_samples: list[float] = []
        self.compute_samples: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time both units once; returns (and records) their geometric mean."""
        table, total = self._table, 0
        started = perf_counter()
        for key in self._keys:
            total += table[key]
        memory = perf_counter() - started
        started = perf_counter()
        _event_loop_unit()
        compute = perf_counter() - started
        self.memory_samples.append(memory)
        self.compute_samples.append(compute)
        self.samples.append(math.sqrt(memory * compute))
        return self.samples[-1]

    @staticmethod
    def scale(samples: list[float]) -> float:
        """Factor turning raw host times measured beside ``samples`` into
        reference-speed times."""
        return REFERENCE_S / statistics.median(samples)
