"""Fixed reference work that measures how fast the host runs right now,
so that op times can be reported at a fixed reference speed.

On a shared host the same op's wall time can swing by 1.8x within minutes
(measured on a 2-vCPU Xeon VM: the n = 64 `cover_certify` op's median over
30 s windows ranged 0.16-0.30 s), and CPU time swings with it.  The ratio
of an op's wall time to the wall time of fixed reference work done just
before it stays within a few per cent over the same windows, provided the
reference does the same kinds of work as the op.  There are two:

* `kernel_seconds`, for ops that compute in this process: pure-Python
  integer and complex arithmetic, a dict dumped to JSON, tiny numpy calls
  and a dense `lstsq` (`kernel`);
* `start_seconds`, for ops that start interpreters: a fresh
  `python -c "import numpy"`.

Neither uses `idealglue`, so a change to the program cannot move them.
`Speed` turns readings into a factor REF / reading, so that a time t
measured next to it is reported as t * factor, "seconds at reference
speed", where REF is the reference's wall time on a quiet host.
"""
from __future__ import annotations

import cmath
import collections
import gc
import json
import random
import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_S = 0.005            # `kernel_seconds` on a quiet host
START_S = 0.15              # `start_seconds` on a quiet host
KERNEL_SAMPLES = 3          # kernel runs per reading (the fastest counts)

_rng = random.Random(20110706)
# 64 tetrahedra, 64 edge cycles of degree 6, (tet, shape slot) pairs
_CYCLES = [[(_rng.randrange(64), _rng.randrange(3)) for _ in range(6)]
           for _ in range(64)]
_Z = [cmath.rect(1.0 + 0.01 * _rng.random(), 1.0 + 0.02 * _rng.random())
      for _ in range(64)]
_gen = np.random.default_rng(20110706)
_A = _gen.standard_normal((64, 64)) + 1j * _gen.standard_normal((64, 64))
_B = _gen.standard_normal(64) + 1j * _gen.standard_normal(64)
_SMALL = _gen.standard_normal(8) + 1j * _gen.standard_normal(8)


def kernel() -> float:
    """One run of the kernel; returns a value so nothing is optimised out."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    for _ in range(2):
        triples = [(w, 1.0 / (1.0 - w), (w - 1.0) / w) for w in _Z]
        for cycle in _CYCLES:
            h = 1.0 + 0.0j
            for tet, slot in cycle:
                h *= triples[tet][slot]
            acc += abs(h) > 1.0
        x, *_ = np.linalg.lstsq(_A, _B, rcond=None)
        acc += float(np.abs(x).sum()) > 0.0
    v = _SMALL
    for _ in range(100):
        v = np.exp(1j * np.angle(v)) * np.abs(v)
    acc += float(np.abs(v).sum()) > 0.0
    record = {f"e{i}": [round(w.real, 12), round(w.imag, 12)]
              for i, w in enumerate(_Z)}
    acc += len(json.dumps(record, indent=2))
    return float(acc)


def kernel_seconds() -> float:
    """Fastest wall time of KERNEL_SAMPLES kernel runs, back to back, with
    the garbage collector off so that a collection the program's garbage
    triggers is not charged to the kernel."""
    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_SAMPLES):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def start_seconds(env: dict, cwd) -> float:
    """Wall time of a fresh interpreter's `import numpy`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=120)
    return time.perf_counter() - start


class Speed:
    """Speed factors from one reference: `factor()` takes a fresh reading r
    and returns the median of ref_s / r over the last `readings` readings.

    Measured on a 2-vCPU VM over 11-16 seeded passes per workload: scaling
    each op by the median of the last 5 kernel readings spread
    `cover_certify` and `cone_explore` less than the latest reading alone,
    while a `cli_roundtrip` op is best scaled by the one interpreter start
    just before it (quartile spread 0.02 against 0.03-0.04 with 3-5)."""

    def __init__(self, ref_s: float, seconds, readings: int):
        self.ref_s = ref_s
        self.seconds = seconds
        self._factors = collections.deque(maxlen=readings)

    def factor(self) -> float:
        self._factors.append(self.ref_s / self.seconds())
        return statistics.median(self._factors)
