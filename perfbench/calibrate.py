"""A fixed reference computation that measures how fast the host runs now.

Usage::

    python3 perfbench/calibrate.py           # one measurement
    python3 perfbench/calibrate.py --serve   # one measurement per stdin line

prints one number per measurement: the median time in seconds of ``ROUNDS`` rounds of a
fixed mix of the kinds of work the program does (csv cells parsed with
``float()``, interpreter loops over small dicts, weighted ``bincount``
histograms, a sort, a small matrix product).  Its inputs are fixed and it
imports nothing from ``hyposcreen``, so its time depends on the host alone.
``run.py`` runs it next to every repetition, on the same vCPU, and divides
the repetition's time by it: on a shared host a vCPU speeds up and slows
down by 15-25% over seconds to minutes, and the program and this loop slow
down together.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROUNDS = 5


def make_inputs():
    rng = np.random.default_rng(20230802)
    text = ",".join(map(repr, rng.random(12000).tolist()))
    rows = [{"a": i, "b": v, "c": -i} for i, v in enumerate(rng.random(20000).tolist())]
    idx = rng.integers(0, 256, 150000)
    w = rng.random(150000)
    X = rng.standard_normal((600, 120))
    return text, rows, idx, w, X


def one_round(text, rows, idx, w, X) -> float:
    cells = [float(c) for c in text.split(",")]
    acc = 0
    for r in rows:
        acc += r["a"] if r["b"] > 0.5 else r["c"]
    for _ in range(6):
        np.bincount(idx, weights=w, minlength=256)
    order = np.argsort(w, kind="stable")
    g = X.T @ X
    return cells[0] + acc + float(order[0]) + float(g[0, 0])


def measure(args) -> float:
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        one_round(*args)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def main() -> None:
    args = make_inputs()
    one_round(*args)  # warm-up
    if "--serve" in sys.argv[1:]:
        for _ in sys.stdin:
            print(repr(measure(args)), flush=True)
    else:
        print(repr(measure(args)))


if __name__ == "__main__":
    main()
