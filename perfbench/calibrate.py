"""Fixed probe of the host's current speed, run as a child between workload runs.

The benchmark's host is a shared machine whose speed drifts by tens of
percent over minutes, and every workload run and `--help` start drifts with
it.  This program does the same kinds of work as stratdisc, but never
changes: the interpreter start and numpy import, a scalar Python float loop,
numpy arithmetic on cache-sized arrays, and large fresh temporaries whose
pages are faulted in and released.  run.py times it as a subprocess,
interleaved with the workload, and scales the workload's times by the
probe's (see run.py).

Prints one JSON object: the seconds each phase took, measured in-process.
"""

import json
import math
import time

start = time.perf_counter()
import numpy as np  # noqa: E402  (the import is part of what is timed)

phases = {"import_s": time.perf_counter() - start}

start = time.perf_counter()
acc = 0.0
for i in range(1, 450_000):
    x = i * 1e-6
    acc += math.sqrt(x) * x - math.log1p(x)
phases["scalar_s"] = time.perf_counter() - start

start = time.perf_counter()
grid = np.linspace(0.0, 1.0, 40_000)
for k in range(1, 700):
    grid = np.clip(np.minimum(grid, 1.0 - grid / k) * 1.01, 0.0, 1.0)
    acc += float(np.maximum(grid - 0.5, 0.0).sum())
phases["vector_s"] = time.perf_counter() - start

start = time.perf_counter()
rows = np.linspace(0.0, 1.0, 64)
for _ in range(4):
    temp = np.maximum(np.full((1024, 64, 1), 0.5), rows[None, None, :] * rows[None, :, None])
    acc += float((1.0 - temp).prod(axis=0).sum())
    del temp
phases["memory_s"] = time.perf_counter() - start

if not math.isfinite(acc):
    raise SystemExit("calibration produced a non-finite sum")
print(json.dumps(phases))
