"""Reference figures for the README, next to the benchmark's own.

Run from the root of a checkout (takes about two minutes)::

    python3 perfbench/reference.py

Prints, for the workloads' exact inputs:

* the time of one solve by ``scipy.ndimage.correlate`` (the direct
  comparator) against one ``ConvStencil.run``;
* where ``import repro`` spends its time (``python -X importtime``);
* the tracing overhead: one solve with every pass timed against one
  without;
* the service's capacity at the ``serve-mixed`` mix: the offered rate
  against the rate served and the latency, for a few rates.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import subprocess
import sys
import time

import harness
from workloads import WORKLOADS, _timed_backend_class

CLOCK = time.perf_counter
REPEATS = 40


def alternate(a, b, repeats=REPEATS):
    """Median times of ``a`` and ``b`` in ms, calls interleaved."""
    samples = ([], [])
    a(), b()
    for _ in range(repeats):
        for fn, out in ((a, samples[0]), (b, samples[1])):
            t = CLOCK()
            fn()
            out.append(CLOCK() - t)
    return [statistics.median(s) * 1e3 for s in samples]


def solves(repro) -> None:
    print("solve        ConvStencil ms  scipy ms | untraced ms  traced ms  overhead")
    for name in ("solve-star", "solve-box"):
        w = WORKLOADS[name]
        grid = w.make_inputs(1)["grid"]
        kernel = repro.get_kernel(w.kernel)
        plain = repro.ConvStencil(kernel, fusion=w.fusion)
        timed = _timed_backend_class(repro)(repro.get_backend())
        traced = repro.ConvStencil(kernel, fusion=w.fusion, backend=timed)

        def run_plain():
            plain.run(grid, steps=w.steps, boundary="periodic")

        ours, scipy_ms = alternate(
            run_plain, lambda: harness.correlate_steps(grid, kernel.weights, w.steps)
        )
        untraced, traced_ms = alternate(
            run_plain, lambda: traced.run(grid, steps=w.steps, boundary="periodic")
        )
        print(f"{name:<12} {ours:>14.2f} {scipy_ms:>9.2f} | {untraced:>11.2f} "
              f"{traced_ms:>10.2f} {(traced_ms / untraced - 1) * 100:>+8.1f}%")


def imports() -> None:
    """Cumulative import time of ``repro`` and of the heaviest packages it
    pulls in first (each figure includes what that package imports)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    print(f"import repro {cumulative.get('repro', 0) / 1e6:.2f} s, of which:")
    for name in ("numpy", "scipy.signal", "scipy.stats", "repro.runtime", "repro.serve"):
        if name in cumulative:
            print(f"  {name:<14} {cumulative[name] / 1e6:.2f} s")


def capacity() -> None:
    base = WORKLOADS["serve-mixed"]
    print("arrivals/s  offered req/s  served req/s  p50 ms  p90 ms  queue peak")
    for arrivals in (60.0, 120.0, 180.0, 240.0, 320.0):
        w = dataclasses.replace(base, arrivals_per_s=arrivals)
        state = w.setup(w.make_inputs(1), trace=False)
        try:
            result = w.measure(state, 6.0, trace=False)
        finally:
            w.teardown(state)
        lat = harness.latency_summary(result["latency"])
        served = (result["attempted"] - result["refused"]) / result["end"]
        print(f"{arrivals:>10.0f} {w.requests_per_s:>14.0f} {served:>13.0f} "
              f"{lat['p50']:>7.1f} {lat.get('p90', float('nan')):>7.1f} "
              f"{result['queue_peak']:>11}")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import repro

    solves(repro)
    imports()
    capacity()
    return 0


if __name__ == "__main__":
    sys.exit(main())
