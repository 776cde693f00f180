"""Measurement helpers shared by the benchmark's workloads.

Nothing here imports the program under test: the statistics, the oracle
and the open-loop scheduler must stay correct whatever the program does,
and the self-tests in ``test_harness.py`` exercise them without it.
"""

from __future__ import annotations

import asyncio
import math
import os
import platform
import resource
import sys
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Each of these switches the program onto another code path (a backend,
#: an instrumentation layer, a per-insert prover), so a run under any of
#: them would measure a different program.
FORBIDDEN_ENV = (
    "REPRO_BACKEND",
    "REPRO_OBS",
    "REPRO_TELEMETRY",
    "REPRO_FLIGHT",
    "REPRO_STATICCHECK",
)

#: A percentile is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100
P99_MIN_SAMPLES = 1000

#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0 ** -53


def forbidden_env(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Names of the set environment variables that change the program."""
    environ = os.environ if environ is None else environ
    return [name for name in FORBIDDEN_ENV if environ.get(name, "") != ""]


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median, and each tail percentile the sample supports, in ms.

    ``p90`` needs :data:`P90_MIN_SAMPLES` samples and ``p99``
    :data:`P99_MIN_SAMPLES`, so that ten samples lie beyond each; below
    that the key is absent rather than a tail estimated from a handful.
    """
    ms = [s * 1e3 for s in seconds]
    out = {"p50": percentile(ms, 50)}
    if len(ms) >= P90_MIN_SAMPLES:
        out["p90"] = percentile(ms, 90)
    if len(ms) >= P99_MIN_SAMPLES:
        out["p99"] = percentile(ms, 99)
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- oracle -----------------------------------------------------------------


def correlate_steps(x: np.ndarray, weights: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` applications of the stencil under periodic boundaries,
    by ``scipy.ndimage.correlate`` (``mode="wrap"``)."""
    from scipy import ndimage

    y = np.asarray(x, dtype=np.float64)
    for _ in range(steps):
        y = ndimage.correlate(y, weights, mode="wrap")
    return y


def tolerance(weights: np.ndarray, steps: int, depth: int, max_abs: float) -> float:
    """Largest pointwise gap between two correct evaluations of ``steps``
    periodic stencil steps, from the weights alone.

    One pass of depth ``depth`` sums at most ``n = (depth*(edge-1)+1)**ndim``
    products, so reassociating it moves a value by at most ``n*u`` times
    the weighted magnitude; with ``L = sum(|w|)`` the magnitude after ``t``
    steps is at most ``L**t * max_abs``.  Both the program and the oracle
    round, hence the factor 2; the further factor 4 is headroom for the
    fused kernel's composed weights, which are themselves rounded.
    """
    w = np.asarray(weights, dtype=np.float64)
    edge = w.shape[0]
    n = (depth * (edge - 1) + 1) ** w.ndim
    growth = float(np.abs(w).sum()) ** steps
    return 8.0 * steps * n * UNIT_ROUNDOFF * growth * max_abs


def check_output(
    out: np.ndarray,
    ref: np.ndarray,
    x: np.ndarray,
    weights: np.ndarray,
    steps: int,
    depth: int = 1,
) -> Optional[str]:
    """``None`` if ``out`` is a correct result of ``steps`` periodic steps
    from ``x``, else the reason it is not.

    Two checks: every point within :func:`tolerance` of the oracle ``ref``,
    and the method's invariant that a periodic stencil scales the grid's
    sum by ``sum(w)`` per step (it conserves the sum when the weights sum
    to 1, as every kernel the benchmark uses does).
    """
    out = np.asarray(out)
    if out.shape != ref.shape:
        return f"shape {out.shape} != {ref.shape}"
    if not np.all(np.isfinite(out)):
        return "non-finite values"
    max_abs = float(np.abs(x).max()) if x.size else 0.0
    tol = tolerance(weights, steps, depth, max_abs)
    gap = float(np.abs(out - ref).max()) if out.size else 0.0
    if gap > tol:
        return f"max |out - oracle| = {gap:.3e} > {tol:.3e}"
    n = out.size
    scale = float(np.asarray(weights, dtype=np.float64).sum()) ** steps
    expect = scale * float(x.sum())
    sum_tol = n * tol + 2.0 * n * UNIT_ROUNDOFF * math.log2(max(n, 2)) * max_abs * (
        float(np.abs(weights).sum()) ** steps
    )
    drift = abs(float(out.sum()) - expect)
    if drift > sum_tol:
        return f"sum drifted by {drift:.3e} > {sum_tol:.3e}"
    return None


# -- open loop --------------------------------------------------------------


class OpenLoop:
    """Issues work at scheduled due times, whatever the program is doing.

    ``clock`` and ``sleep`` are injectable so the accounting can be checked
    under a scripted clock.  Times are seconds relative to :meth:`start`.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sleep: Callable[[float], "asyncio.Future"] = asyncio.sleep,
    ) -> None:
        self.clock = clock
        self.sleep = sleep
        self.t0 = 0.0
        self.lateness: List[float] = []

    def start(self) -> None:
        self.t0 = self.clock()

    def now(self) -> float:
        return self.clock() - self.t0

    async def wait_until(self, due: float) -> None:
        """Sleep until ``due``, then record how late the wake-up was."""
        delay = due - self.now()
        if delay > 0.0:
            await self.sleep(delay)
        self.lateness.append(max(0.0, self.now() - due))

    def latency_since(self, due: float) -> float:
        """Time from when an operation was due to now."""
        return self.now() - due


def arrival_times(rng: np.random.Generator, n: int, span: float) -> np.ndarray:
    """``n`` Poisson arrival times conditioned to fall within ``[0, span)``.

    Conditioning on the count makes every run offer the same work, so the
    offered rate is ``n / span`` exactly; the gaps stay exponential.
    """
    gaps = rng.exponential(1.0, size=n + 1)
    return np.cumsum(gaps)[:n] / gaps.sum() * span


# -- fingerprint ------------------------------------------------------------


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, if an OpenBLAS is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_times() -> Optional[List[int]]:
    """The machine's CPU time counters (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(
    before: Optional[List[int]], after: Optional[List[int]]
) -> Optional[float]:
    """Share of the machine's CPU time between two :func:`cpu_times`
    readings that the hypervisor gave to other guests.  The served
    latencies rise with it, since each request waits for several wake-ups."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def fingerprint(backend: str, extra: Dict[str, object]) -> Dict[str, object]:
    """What the figures depend on besides the program's code."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "backend": backend,
        "platform": sys.platform,
        **extra,
    }
