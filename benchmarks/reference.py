"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared machine the same operation can take a third longer from one
minute to the next, and a run of tens of seconds cannot average that away.
The benchmark times a reference kernel before and after every operation and
rescales the operation's host time by `REFERENCE_S[kind] / kernel seconds`:
the time the operation would have taken at the speed the kernel had when
`REFERENCE_S` was recorded. Each kernel does the kind of work its workloads
do, because the machine does not slow every kind of work alike: `router`
interprets small objects, dicts, a heap, `min` over a 128-entry table and
numpy scalar updates, like the router, its cache and its limiter; `replay`
adds writing and parsing a packet trace; `array` hashes and bins half a
million integer keys, like the sketch sweep. The
kernels are the benchmark's own code, so a change to xtrsim cannot change
how long they take.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass

import numpy as np

# Median seconds of each kernel on the machine the first baseline was taken
# on (2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"router": 0.26, "replay": 0.40, "array": 0.27}


@dataclass
class _Entry:
    key: int
    hits: int
    last: float


def router_kernel() -> int:
    cache: dict[int, _Entry] = {}
    heap: list[tuple[float, int, int]] = []
    lines = []
    state = 12345
    for i in range(11_000):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = state >> 54
        entry = cache.get(key)
        if entry is None:
            if len(cache) >= 128:
                victim = min(cache.values(), key=lambda e: (e.hits, e.last))
                del cache[victim.key]
            cache[key] = _Entry(key, 0, float(i))
            heapq.heappush(heap, (i + 0.5, i, key))
        else:
            entry.hits += 1
            entry.last = float(i)
        while heap and heap[0][0] <= i:
            heapq.heappop(heap)
        if i % 4 == 0:
            lines.append(f"{float(i)!r} {key:#x}")
    cells = np.zeros((4, 1000), dtype=np.uint16)
    for i in range(6_000):
        x = (i * 2654435761) % 2147483647
        cols = [((12345 + 7 * row) * x + 17) % 2147483647 % 1000 for row in range(4)]
        for row, col in enumerate(cols):
            cells[row, col] = min(int(cells[row, col]) + 1, 65535)
        lines.append(min(int(cells[row, col]) for row, col in enumerate(cols)))
    return len(lines)


def text_kernel() -> int:
    text = "".join(f"{i * 0.0000131!r} {0xA7 << 96 | i:#x} {0xFD << 120 | i * 7:#x} attacker\n"
                   for i in range(40_000))
    events = []
    for line in text.splitlines():
        ts, src, dst, role = line.split()
        events.append((float(ts), int(src, 0), int(dst, 0), role))
    return len(events)


def array_kernel() -> int:
    keys = np.arange(500_000, dtype=np.int64) * 2654435761 % (1 << 40)
    total = 0
    for width in range(1000, 25_000, 1000):
        idx = (keys.astype(np.uint64) * 48271 + 11) % 2147483647 % width
        cells = np.bincount(idx, minlength=width)
        total += int(cells[idx].min())
    return total


KERNELS = {
    "router": router_kernel,
    "replay": lambda: router_kernel() + text_kernel(),
    "array": array_kernel,
}


def kernel_seconds(kind: str) -> float:
    """Host seconds of one kernel run, with the cyclic collector paused."""
    kernel = KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
