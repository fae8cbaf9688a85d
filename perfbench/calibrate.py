"""Host-speed calibration for the benchmark's timings.

On a shared host the effective speed of a core drifts: on the 2-core
virtual machine the bounds were set on, the same run took 0.36 s in one
minute and 0.50 s in the next, and process CPU time drifted with wall time,
so it is the core that slows, not the scheduling.  To keep timings made
minutes or hours apart comparable, the benchmark times this fixed
pure-Python loop before every run and reports its medians scaled to the
loop's reference duration::

    scaled = median(measured) * REFERENCE_S / median(loop_seconds)

The loop uses nothing from ``repro``, so a change to the program moves the
scaled time in full; only the host's speed cancels out.
"""

from __future__ import annotations

import heapq
import time

#: The loop's typical duration on the reference host when it is quiet, so that
#: scaled times read as seconds on that host.
REFERENCE_S = 0.035


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int, kids: tuple):
        self.key = key
        self.kids = kids


def _build(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node(key, ())
    return _Node(key, (_build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1)))


def _walk(node: _Node, table: dict) -> int:
    total = node.key
    for kid in node.kids:
        total += _walk(kid, table)
    slot = node.key % 1024
    table[slot] = table.get(slot, 0) + 1
    return total


def _loop() -> int:
    """Interpreter work of the kinds the runtime does: allocation and
    recursion, dict updates, heap traffic and integer arithmetic."""
    acc = 0
    table: dict[int, int] = {}
    heap: list = []
    for round_ in range(3):
        acc += _walk(_build(12, round_ + 1), table)
        for i in range(4000):
            heapq.heappush(heap, (i * 7919 % 4001, i))
        while heap:
            acc += heapq.heappop(heap)[1]
    x = 1
    for i in range(150_000):
        x = (x * 31 + i) & 0xFFFF
    return acc + x


def loop_seconds() -> float:
    """Wall time of one calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
