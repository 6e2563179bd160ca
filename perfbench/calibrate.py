"""Reference timings that track how fast the machine runs right now.

The benchmark shares its processor with other tenants, whose load can slow it
to about half speed for seconds or minutes at a time.  A run takes a pace
sample before and after every timed operation and rescales the operation's
time to a machine on which the sample takes its reference value (see
``rescale``).  Neither sample touches homlie, so a change to homlie cannot
move them: rescaled times move with homlie's cost, while raw times (printed
beside them) move with the neighbours' load as well.

Two samples, because the load slows the two kinds of work differently:

* ``loop_sample`` times fixed pure-Python ``Fraction`` Gaussian elimination,
  the kind of work homlie does; it paces operations run in-process;
* ``spawn_sample`` times the start of a bare interpreter; it paces work that
  is mostly process start and imports (CLI commands, set-up).  Rescaling
  those by the loop instead widened their spread.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Typical sample values on the machine the baseline was recorded on
# (2 vCPUs of a 2 GHz x86-64 host, Python 3.11); they only fix the time unit.
LOOP_REFERENCE_S = 0.0025
SPAWN_REFERENCE_S = 0.011

_N = 7


def reference_loop() -> float:
    """Seconds taken by two fixed 7x8 Fraction row reductions."""
    start = time.perf_counter()
    for rep in range(2):
        rows = [[Fraction((i * 7 + j * 3 + rep) % 11 - 5, 1 + (i + j) % 4)
                 for j in range(_N + 1)] for i in range(_N)]
        for c in range(_N):
            p = next((i for i in range(c, _N) if rows[i][c] != 0), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [a * inv for a in rows[c]]
            for i in range(_N):
                if i != c and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - start


def reference_spawn() -> float:
    """Seconds to start and stop an interpreter that runs nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", ""], stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def loop_sample() -> float:
    """The in-process pace: the faster of two reference loops."""
    return min(reference_loop(), reference_loop())


def spawn_sample() -> float:
    """The process-start pace: the faster of two bare interpreter starts."""
    return min(reference_spawn(), reference_spawn())


def rescale(seconds: float, before: float, after: float, reference: float) -> float:
    """A time measured between two pace samples, at the reference pace."""
    return seconds * reference * 2 / (before + after)
