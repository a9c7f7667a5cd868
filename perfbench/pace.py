"""The machine's current pace, from fixed reference computations.

On a shared virtual machine the same interpreter work runs up to 1.7x
slower in spells that last from a fraction of a second to minutes, and
each virtual CPU has its own spells.  The benchmark keeps itself and its
operations on one CPU and, between operations, times a reference
computation there (samples).  An operation's time divided by the mean of
the samples taken just before and just after it is its time in reference
units, which holds much stiller than seconds while the pace swings; times
in reference units, multiplied by REFERENCE_S, are reported as seconds at
the pace where one sample takes REFERENCE_S.

Contention slows different kinds of work by different amounts, so each
workload uses the reference most like its own operations: of the mixes
tried (big-integer powers with a small-integer loop, binomial loops,
decimal conversion, small-integer loops alone), "powers" tracked the
scans and identity sweeps best and "binomials" the sequence prints.  The
computations are this file's own, so a change to the program cannot move
them.
"""

from __future__ import annotations

import time

# About one sample of either reference on a 2-vCPU Intel Xeon virtual
# machine at 2.0 GHz (CPython 3.11.7), where it ranged from 0.03 to 0.06 s.
# It only fixes the scale: a change to it scales every reported time alike.
REFERENCE_S = 0.050

_BASE = 3 ** 8000  # about 12,700 bits


def _powers() -> int:
    # 7th powers of big integers, then a small-integer dictionary loop.
    acc = 0
    for i in range(20):
        acc ^= pow(_BASE + i, 7) % 1_000_003
    table = {}
    for i in range(40_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 7 // 3
    return acc ^ len(table)


def _binomials() -> int:
    # C(u, 900) by the multiplicative formula: big integers times and over
    # small ones, in an interpreter loop.
    acc = 0
    for u in range(2000, 2080):
        value = 1
        for i in range(900):
            value = value * (u - i) // (i + 1)
        acc ^= value & 0xFFFF
    return acc


REFERENCES = {"powers": _powers, "binomials": _binomials}


def sample(reference: str) -> float:
    """Seconds that one run of the named reference computation takes now."""
    work = REFERENCES[reference]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def samples(reference: str, seconds: float) -> list[float]:
    """Samples taken back to back for about seconds (at least one)."""
    taken = [sample(reference)]
    while sum(taken) < seconds:
        taken.append(sample(reference))
    return taken
