"""A fixed CPU kernel, independent of the program, timed next to every op.

Shared hosts pass through phases, lasting seconds to minutes, in which
every instruction runs up to 1.6x slower, and a 30 s run can sit wholly
inside one.  The kernel mixes the program's kinds of work (small dense
LU factor/solve, 2-D FFTs, Python dict and string work), so its time
tracks the phase: an op's latency divided by the kernel time taken just
before it (unit ``ref``) compares across runs where raw seconds do not.

The library functions are bound when this module is imported, before any
layer wrapper is installed, so the kernel never records spans.
"""

import time

import numpy as np
from numpy.fft import fftn, ifftn
from scipy.linalg import lu_factor, lu_solve

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((24, 24)) + 24.0 * np.eye(24) for _ in range(32)]
_RHS = _rng.standard_normal(24)
_GRID = _rng.standard_normal((64, 64))


def seconds() -> float:
    """Wall time of one pass of the kernel (about 5 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for a in _MATS:
        acc += lu_solve(lu_factor(a), _RHS)[0]
    for _ in range(12):
        acc += ifftn(fftn(_GRID)).real[0, 0]
    d = {}
    for i in range(4000):
        d[f"n{i}"] = (i * i) % 7
    acc += sum(d.values())
    return time.perf_counter() - t0


seconds()  # the first pass pays lazy set-up
