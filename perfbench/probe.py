"""Core-speed probe: times a fixed pure-Python loop, again and again, on the
core the timed children run on.

The loop spends about three quarters of its time in interpreter arithmetic
and a quarter in random reads from a 36 MB list, the two kinds of work the
CLI does; against the CLI's own times on the three workloads, that mix
tracked the host's slowdowns better than either kind alone.

    python probe.py <records>

Each pass appends one record of two native doubles, ``(start, seconds)``
on the ``time.monotonic`` clock, to ``<records>``, then sleeps PERIOD_S,
so the probe takes ~1.5% of the core. The loop's time tracks how fast the core runs at that moment;
run.py scales each child's times by it. The probe exits when its parent
does.
"""

from __future__ import annotations

import os
import random
import struct
import sys
import time

PERIOD_S = 0.02
ARITHMETIC = 3000
TABLE = list(range(1 << 20))
_rng = random.Random(0)
READS = [_rng.randrange(len(TABLE)) for _ in range(160)]


def spin() -> float:
    total = 0.0
    for i in range(ARITHMETIC):
        total += (i * 0.001) % 3.0
    for i in READS:
        total += TABLE[i]
    return total


def main(argv: list[str]) -> int:
    path = argv[0]
    parent = os.getppid()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
    try:
        while os.getppid() == parent:
            start = time.monotonic()
            spin()
            os.write(fd, struct.pack("dd", start, time.monotonic() - start))
            time.sleep(PERIOD_S)
    finally:
        os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
