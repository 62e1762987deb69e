"""Time a fixed piece of work that does not involve kobdd, on request.

Usage: python3 perfbench/probe.py

For each line read from stdin the script runs the work once and prints
its wall time in seconds; it ends at the end of stdin.  The work parses
a 2 MB JSON document of small float matrices, fills 32 MB of fresh
memory and runs a pure-Python loop: the kinds of work the benchmarked
commands do, so that a slowdown of the host weighs on it as it weighs on
them.  It runs in its own process so that its memory does not count in
the peak RSS of the commands the benchmark starts.
"""

import json
import random
import sys
import time

rng = random.Random(0)
DOC = json.dumps([[[rng.random() for _ in range(8)] for _ in range(8)]
                  for _ in range(1500)])


def work() -> float:
    start = time.perf_counter()
    json.loads(DOC)
    filled = b"x" * 32_000_000
    del filled
    s = 0
    for i in range(100000):
        s += i * i % 7
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(work(), flush=True)
