"""Sample the speed of one CPU while the benchmarked program runs on it.

    python3 -I -S perfbench/hostprobe.py CPU

Pins itself to CPU, then every ``PERIOD_S`` seconds times one fixed chunk of
pure-Python ``Fraction`` arithmetic (no heckehom code) by its own thread CPU
time.  The chunk shares the CPU with the program, so the two run in the same
host state: on a shared host a virtual CPU switches between a fast and a
slow state (about 1.7x apart) every few seconds, and the chunk slows down
with the program.  It stops when its standard input closes or reaches end of
file, and then prints one ``perf_counter_time chunk_cpu_s`` line per sample.
"""

import os
import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.03  # sleep between chunks: about 10 % of the CPU goes to the probe
CHUNK_STEPS = 1000  # about 3 ms of CPU time per chunk


def chunk() -> float:
    start = time.thread_time()
    acc = Fraction(0)
    for i in range(CHUNK_STEPS):
        acc += Fraction(i % 7, 1 + i % 5)
    return time.thread_time() - start


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        cpu_s = chunk()
        samples.append(f"{time.perf_counter()} {cpu_s}")
    sys.stdout.write("".join(line + "\n" for line in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
