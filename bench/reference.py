"""A fixed reference computation that measures the machine's current speed.

The machines this benchmark runs on are shared, and their speed for pure
Python code drifts by a factor of up to two within minutes.  The harness
times this fixed piece of work next to every command and scales each command
time by REFERENCE_SECONDS / (reference time), which reports it in seconds at
a fixed machine speed and cancels the drift.  The work mixes what paracon
spends its time on: a breadth-first product of two transition tables over
tuples and dicts, as in automaton products, and Fraction row operations, as
in the simplex.

REFERENCE_SECONDS is a fixed scale, close to what reference_seconds()
measures on an idle 2-core x86-64 VM with CPython 3.11, so normalized times
read as seconds on such a machine.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_SECONDS = 0.0035

_LEFT = [tuple((s * 7 + letter) % 50 for letter in range(4)) for s in range(50)]
_RIGHT = [tuple((s * 11 + letter * 3) % 40 for letter in range(4)) for s in range(40)]
_ROW = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(40)]


def _reference_work() -> int:
    index = {(0, 0): 0}
    order = [(0, 0)]
    pos = 0
    while pos < len(order):
        left, right = order[pos]
        for letter in range(4):
            nxt = (_LEFT[left][letter], _RIGHT[right][letter])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
        pos += 1
    row = list(_ROW)
    for pivot in _ROW[:6]:
        if pivot:
            row = [v - pivot * w for v, w in zip(row, _ROW)]
    return len(order) + len(row)


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_work()
    _reference_work()
    return time.perf_counter() - start
