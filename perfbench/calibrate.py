"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared host the speed of the same code drifts by up to half over tens
of seconds, and a 35-second run cannot average that out. The kernel runs
between operations and does, in small, the kinds of work the workloads do,
with numpy and plain Python only and nothing from ``dpforecast``:

* group small arrays and take quartiles, fences and means (``iqr_clean``);
* parse comma-separated text into floats (``load_csv``);
* multiply matrices of the inference shape (``forward_batch``);
* update a parameter-sized vector element by element (``adam_step``).

An operation's time over the mean time of the kernel runs just before and
just after it, times ``REF_MS``, is its time at the speed where the kernel
takes ``REF_MS``. A change to the package cannot change the kernel's time.
"""

from __future__ import annotations

import time

import numpy as np

REF_MS = 50.0  # kernel time that defines the reference speed (unit "ref_ms")

_gen = np.random.default_rng(20220501)
_GROUPS = [_gen.uniform(0.0, 1e5, 11) for _ in range(400)]
for _values in _GROUPS[::7]:
    _values[3] = np.nan
_LINES = [",".join(map(str, row)) for row in _gen.integers(0, 10**6, (500, 7)).tolist()]
_A = _gen.standard_normal((336, 185))
_B = _gen.standard_normal((185, 700))
_V = _gen.standard_normal(200_000)


def kernel() -> float:
    """Run the kernel once; returns a checksum so no step can be skipped."""
    index: dict[int, list[int]] = {}
    total = 0.0
    for i, values in enumerate(_GROUPS):
        index.setdefault(i % 97, []).append(i)
        present = values[~np.isnan(values)]
        q1, q3 = np.percentile(present, [25.0, 75.0])
        fence = 1.5 * (q3 - q1)
        total += float(present[(present >= q1 - fence) & (present <= q3 + fence)].mean())
    rows = np.array([[float(x) for x in line.split(",")] for line in _LINES])
    for _ in range(2):
        product = _A @ _B
    w = _V.copy()
    for _ in range(8):
        w *= 0.999
        w += 1e-3 * _V
        np.sqrt(w * w + 1e-8)
    return total + float(rows[0, 0] + product[0, 0] + w[0])


def timed_ms() -> float:
    """Wall milliseconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - t0)
