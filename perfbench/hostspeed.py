"""Host-speed probe: a fixed reference kernel timed next to the program.

On a shared host the speed of a core drifts by 20-50% within seconds,
for every kind of work alike, and that drift is larger than the changes
the benchmark is meant to see. So the benchmark runs this kernel before
every invocation and after the last one of a pass (outside the
invocations' times), and scales each invocation's time by
``REFERENCE_S / (mean of the probes just before and just after it)``:
times as they would read on a host where the kernel takes
``REFERENCE_S``. The kernel is written here and uses no framekit code, so
a change to framekit moves the program's times and not the kernel's, and
shows in full.

The kernel mixes the three kinds of work framekit's verbs do: a
pure-Python float loop (pair scans), ``Fraction`` arithmetic (rational
dilations) and small dense numpy linear algebra (norms and intervals).
A probe runs it twice and times the second run, so that what the
previous invocation left in the caches does not set its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# kernel time, in seconds, at the nominal host speed the reported times
# are scaled to (about its median on a 2-vCPU cloud VM, Python 3.11)
REFERENCE_S = 0.0025

_M = np.random.default_rng(0).standard_normal((12, 12))
_A = Fraction(3, 7)
_CAP = 10 ** 40


def _floats() -> float:
    s, seen = 0.0, {}
    for i in range(3000):
        x = i * 0.37
        s += abs(x - s * 0.5) ** 0.5
        seen[i & 63] = s
    return s


def _fractions() -> Fraction:
    s = Fraction(0)
    for i in range(150):
        s = s * _A + Fraction(i, 11)
        s = Fraction(s.numerator % _CAP, s.denominator % _CAP + 1)
    return s


def _dense() -> float:
    total = 0.0
    for _ in range(20):
        total += float(np.linalg.svd(_M, compute_uv=False)[0])
        total += float((_M @ _M).sum())
    return total


def _kernel() -> None:
    _floats()
    _fractions()
    _dense()


def probe() -> float:
    """Wall time of a warm run of the reference kernel. The collector is
    off while it runs, so the program's live heap does not set its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probe_seconds: float) -> float:
    """Factor that takes a time measured where the probe took
    ``probe_seconds`` to the nominal host speed."""
    return REFERENCE_S / probe_seconds
