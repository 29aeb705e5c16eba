"""Host-speed probe: times a fixed pure-Python chunk on one CPU.

Usage::

    python perfbench/probe.py CPU

Pinned to ``CPU``, it runs the chunk once every :data:`PERIOD` seconds
until its stdin closes, then prints its samples as JSON
``[[start, cpu_seconds], ...]``: each chunk's start on the system-wide
monotonic clock and the CPU time the chunk took.

A shared host runs each CPU either at full speed or, while a neighbour
keeps the other hardware thread of its core busy, up to ~1.5x slower, in
phases of a fraction of a second to minutes.  The probe runs on the CPU
the program is pinned to, so its chunk times track the speed the program
got; ``run.py`` uses them to scale wall times to a fixed reference speed.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: Seconds between chunks; one chunk takes 0.4-1.6 ms with the host's
#: load, so the probe takes 1-3% of the CPU.
PERIOD = 0.05


#: Larger than the CPU's share of the last-level cache.
MEMORY = bytes(range(256)) * (1 << 17)  # 32 MiB, every page written
MASK = len(MEMORY) - 1


def chunk() -> int:
    """A compute loop, then the same 3,000 scattered reads of
    :data:`MEMORY` as every chunk: the lines the program evicted in the
    meantime come from further out, as its own do."""
    total = 0
    for i in range(3_000):
        total += i * i % 7
    j = 0
    for _ in range(3_000):
        j = (j * 1103515245 + 12345) & MASK
        total += MEMORY[j]
    return total


def main(argv: list[str]) -> int:
    os.sched_setaffinity(0, {int(argv[0])})
    samples = []
    while True:
        # CPU time, not wall time: the program on the same CPU may take
        # its turn in the middle of a chunk.
        start, cpu = time.monotonic(), time.thread_time()
        chunk()
        samples.append([start, time.thread_time() - cpu])
        readable, _, _ = select.select([0], [], [], PERIOD)
        if readable and not os.read(0, 1):
            break
    print(json.dumps(samples, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
