"""The workloads: two closed-loop solves, an open-loop and a closed-loop service.

Every workload goes through the same steps.  ``run.py`` drives the first
five in each of a run's worker processes:

``make_inputs(seed)``
    the seeded inputs (numpy only, before the program is imported);
``setup(inputs, trace)``
    ``import repro``, construction, cold plans and the first untimed
    operation, each bracketed by the clock;
``measure(state, seconds, trace)``
    the timed phase;
``check(state, result, trace)``
    the oracle checks, after the timed phase;
``sample(result, trace)``
    what the worker hands back: its raw timings and counters, as JSON.

The run then pools its workers' samples with ``end_to_end(samples)`` or
``per_layer(samples)``.

The program is reached only through ``repro.__all__``.  A layer is timed
from outside, around the calls into its public functions: the traced run
hands the engine a :class:`Backend` wrapper that times every pass.
"""

from __future__ import annotations

import asyncio
import importlib
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from harness import (
    OpenLoop,
    arrival_times,
    check_output,
    correlate_steps,
    latency_summary,
    percentile,
)

CLOCK = time.perf_counter

#: Mismatching outputs kept for the oracle; past this many an output that
#: differs from its first copy cannot be verified and counts as failed.
STASH_LIMIT = 16

#: Warm ``plan_for`` calls timed by the traced run.
PLAN_LOOKUPS = 500

#: A seed as ``numpy.random.default_rng`` takes it: an int, or a sequence
#: of ints such as ``[run seed, worker]``.
Seed = Union[int, Sequence[int]]


def _timed_backend_class(repro):
    """A :class:`repro.Backend` that times every pass of the one it wraps.

    Lanes of the service call it from their own threads, so the totals
    are kept under a lock.
    """

    class TimedBackend(repro.Backend):
        def __init__(self, inner) -> None:
            self.inner = inner
            self.name = inner.name
            self.lock = threading.Lock()
            self.reset()

        def reset(self) -> None:
            with self.lock:
                self.calls = 0
                self.seconds = 0.0

        def _add(self, dt: float) -> None:
            with self.lock:
                self.calls += 1
                self.seconds += dt

        def apply_pass(self, pp, padded):
            t = CLOCK()
            out = self.inner.apply_pass(pp, padded)
            self._add(CLOCK() - t)
            return out

        def apply_pass_batch(self, pp, padded):
            t = CLOCK()
            out = self.inner.apply_pass_batch(pp, padded)
            self._add(CLOCK() - t)
            return out

    return TimedBackend


@dataclass
class Setup:
    """What ``setup`` built, and how long each part took (seconds)."""

    repro: Any
    inputs: Dict[str, Any]
    times: Dict[str, float]
    engine: Any = None
    timed: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _minor_faults() -> int:
    """Page faults this process has taken that needed no disk read: each
    is a first touch of memory fresh from the kernel."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _import_repro() -> Tuple[Any, float]:
    t = CLOCK()
    repro = importlib.import_module("repro")
    return repro, CLOCK() - t


def _time_lookups(repro, keys: List[tuple]) -> float:
    """Median time of one warm ``plan_for`` call over ``keys``, in µs."""
    samples = []
    for i in range(PLAN_LOOKUPS):
        args = keys[i % len(keys)]
        t = CLOCK()
        repro.plan_for(*args)
        samples.append(CLOCK() - t)
    return statistics.median(samples) * 1e6


def _end_to_end(stencils_per_s: float, seconds: List[float]) -> Dict[str, float]:
    """Throughput, and the latency percentiles of the pooled samples."""
    lat = latency_summary(seconds)
    metrics = {"gstencil_per_s": stencils_per_s / 1e9, "latency_p50_ms": lat["p50"]}
    if "p90" in lat:
        metrics["latency_p90_ms"] = lat["p90"]
    return metrics


# -- closed-loop solves ------------------------------------------------------


@dataclass(frozen=True)
class Solve:
    """One caller running ``ConvStencil.run`` back to back on one grid."""

    name: str
    kernel: str
    shape: Tuple[int, ...]
    steps: int
    fusion: Any

    @property
    def work(self) -> float:
        """Stencil point updates per operation."""
        return float(np.prod(self.shape)) * self.steps

    def describe(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "shape": list(self.shape),
            "steps": self.steps,
            "fusion": self.fusion,
            "boundary": "periodic",
            "loop": "closed, one caller",
        }

    def make_inputs(self, seed: Seed) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        return {"grid": rng.random(self.shape)}

    def setup(self, inputs: Dict[str, Any], trace: bool) -> Setup:
        repro, import_s = _import_repro()
        t = CLOCK()
        kernel = repro.get_kernel(self.kernel)
        backend = None
        timed = None
        if trace:
            timed = _timed_backend_class(repro)(repro.get_backend())
            backend = timed
        engine = repro.ConvStencil(kernel, fusion=self.fusion, backend=backend)
        boundary = repro.BoundaryCondition("periodic")
        construct_s = CLOCK() - t
        t = CLOCK()
        repro.plan_for(kernel, self.shape, boundary, engine.plan)
        plan_s = CLOCK() - t
        t = CLOCK()
        first = engine.run(inputs["grid"], steps=self.steps, boundary="periodic")
        first_op_s = CLOCK() - t
        times = {
            "import_s": import_s,
            "construct_s": construct_s,
            "plan_build_s": plan_s,
            "first_op_s": first_op_s,
            "setup_s": import_s + construct_s + plan_s + first_op_s,
        }
        return Setup(
            repro, inputs, times, engine=engine, timed=timed,
            extra={"first": first, "boundary": boundary},
        )

    def teardown(self, state: Setup) -> None:
        pass

    def measure(self, state: Setup, seconds: float, trace: bool) -> Dict[str, Any]:
        grid = state.inputs["grid"]
        engine = state.engine
        first = state.extra["first"]
        if state.timed is not None:
            state.timed.reset()
        times: List[float] = []
        stash: List[np.ndarray] = []
        unverified = 0
        faults = _minor_faults()
        deadline = CLOCK() + seconds
        while CLOCK() < deadline:
            t = CLOCK()
            out = engine.run(grid, steps=self.steps, boundary="periodic")
            times.append(CLOCK() - t)
            if not np.array_equal(out, first):
                if len(stash) < STASH_LIMIT:
                    stash.append(out)
                else:
                    unverified += 1
            del out
        result = {
            "times": times,
            "stash": stash,
            "unverified": unverified,
            "faults": _minor_faults() - faults,
        }
        if trace:
            result["passes"] = state.timed.calls
            result["pass_s"] = state.timed.seconds
            result["lookup_us"] = _time_lookups(
                state.repro,
                [(engine.kernel, self.shape, state.extra["boundary"], engine.plan)],
            )
        return result

    def check(self, state: Setup, result: Dict[str, Any], trace: bool) -> Tuple[int, int]:
        """``(wrong, refused)``: operations whose output is wrong (traced:
        or not bit-identical to an untraced run), and refused ones."""
        repro = state.repro
        grid = state.inputs["grid"]
        weights = repro.get_kernel(self.kernel).weights
        ref = correlate_steps(grid, weights, self.steps)
        depth = state.engine.fusion_depth
        first = state.extra["first"]
        ops = len(result["times"])
        if check_output(first, ref, grid, weights, self.steps, depth) is not None:
            return ops, 0
        wrong = result["unverified"]
        if trace:
            plain = repro.ConvStencil(repro.get_kernel(self.kernel), fusion=self.fusion)
            untraced = plain.run(grid, steps=self.steps, boundary="periodic")
            if not np.array_equal(first, untraced):
                return ops, 0
            return wrong + len(result["stash"]), 0
        for out in result["stash"]:
            if check_output(out, ref, grid, weights, self.steps, depth) is not None:
                wrong += 1
        return wrong, 0

    def sample(self, result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
        """Operation times; traced, the layer totals too."""
        sample = {"times": result["times"]}
        if trace:
            for key in ("passes", "pass_s", "lookup_us", "faults"):
                sample[key] = result[key]
        return sample

    def end_to_end(self, samples: List[Dict[str, Any]]) -> Dict[str, float]:
        """Throughput and latency over every operation of every worker."""
        times = [t for sample in samples for t in sample["times"]]
        return _end_to_end(self.work * len(times) / sum(times), times)

    def per_layer(self, samples: List[Dict[str, Any]]) -> Dict[str, float]:
        ops = sum(len(sample["times"]) for sample in samples)
        op_ms = sum(sum(sample["times"]) for sample in samples) * 1e3 / ops
        pass_ms = sum(sample["pass_s"] for sample in samples) * 1e3 / ops
        return {
            "runtime.plan_lookup_us": statistics.median(
                sample["lookup_us"] for sample in samples
            ),
            "runtime.host_ms_per_op": op_ms - pass_ms,
            "runtime.passes_per_op": sum(s["passes"] for s in samples) / ops,
            "core.pass_ms_per_op": pass_ms,
            "core.pass_share": pass_ms / op_ms,
            "process.minor_faults_per_op": sum(s["faults"] for s in samples) / ops,
            "serve.batch_size_mean": 0.0,
            "serve.service_ms_p50": 0.0,
            "serve.pass_ms_per_batch": 0.0,
            "serve.queue_peak": 0.0,
            "serve.affinity_hit_ratio": 0.0,
            "serve.latency_p99_ms": 0.0,
            "loadgen.lateness_ms_p90": 0.0,
        }

    def attempted(self, result: Dict[str, Any]) -> int:
        return len(result["times"])


# -- open-loop service --------------------------------------------------------


@dataclass(frozen=True)
class Serve:
    """Seeded Poisson arrivals into one :class:`repro.StencilService`.

    One *round* is a fixed multiset of requests: every (kernel, shape,
    steps) combination once as a singleton, plus ``trains_per_round``
    trains of ``train`` same-key requests.  A run offers whole rounds; the
    seed shuffles their order, tenants, grids and arrival gaps, so every
    run offers the same work at the same rate.
    """

    name: str
    kernels: Tuple[str, ...]
    shapes: Tuple[Tuple[int, int], ...]
    steps: Tuple[int, ...]
    tenants: int
    train: int
    trains_per_round: int
    arrivals_per_s: float
    pool: int

    @property
    def combos(self) -> List[Tuple[str, Tuple[int, int], int]]:
        return [(k, s, n) for k in self.kernels for s in self.shapes for n in self.steps]

    @property
    def arrivals_per_round(self) -> int:
        return len(self.combos) + self.trains_per_round

    @property
    def requests_per_round(self) -> int:
        return len(self.combos) + self.trains_per_round * self.train

    @property
    def requests_per_s(self) -> float:
        return self.arrivals_per_s * self.requests_per_round / self.arrivals_per_round

    def lanes(self) -> int:
        """Lanes left once the event loop's thread has a core."""
        return max(1, (os.cpu_count() or 1) - 1)

    def describe(self) -> Dict[str, Any]:
        return {
            "kernels": list(self.kernels),
            "shapes": [list(s) for s in self.shapes],
            "steps": list(self.steps),
            "tenants": self.tenants,
            "train": self.train,
            "train_share": self.trains_per_round / self.arrivals_per_round,
            "arrivals_per_s": self.arrivals_per_s,
            "offered_requests_per_s": self.requests_per_s,
            "lanes": self.lanes(),
            "boundary": "periodic",
            "loop": "open, Poisson arrivals",
        }

    def rounds(self, seconds: float) -> int:
        return max(1, round(self.arrivals_per_s * seconds / self.arrivals_per_round))

    def make_inputs(self, seed: Seed) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        pools = {s: [rng.random(s) for _ in range(self.pool)] for s in self.shapes}
        return {"pools": pools, "rng": rng}

    def schedule(self, inputs: Dict[str, Any], seconds: float):
        """``(due, [(tenant, combo index, grid index), ...])`` per arrival."""
        rng = inputs["rng"]
        combos = self.combos
        arrivals = []
        for r in range(self.rounds(seconds)):
            batch = [[c] for c in range(len(combos))]
            first = r * self.trains_per_round
            batch += [
                [(first + i) % len(combos)] * self.train
                for i in range(self.trains_per_round)
            ]
            for i in rng.permutation(len(batch)):
                members = batch[i]
                tenant = f"t{int(rng.integers(self.tenants))}"
                grids = rng.choice(self.pool, size=len(members), replace=False)
                arrivals.append(
                    [(tenant, c, int(g)) for c, g in zip(members, grids)]
                )
        due = arrival_times(rng, len(arrivals), seconds)
        return list(zip(due.tolist(), arrivals))

    def setup(self, inputs: Dict[str, Any], trace: bool) -> Setup:
        repro, import_s = _import_repro()
        loop = asyncio.new_event_loop()
        t = CLOCK()
        kernels = {name: repro.get_kernel(name) for name in self.kernels}
        engines = {name: repro.ConvStencil(k) for name, k in kernels.items()}
        timed = None
        if trace:
            timed = _timed_backend_class(repro)(repro.get_backend())
        service = repro.StencilService(
            repro.ServeConfig(lanes=self.lanes(), backend=timed)
        )
        boundary = repro.BoundaryCondition("periodic")
        construct_s = CLOCK() - t
        keys = [
            (kernels[k], s, boundary, engines[k].plan)
            for k in self.kernels
            for s in self.shapes
        ]
        t = CLOCK()
        for key in keys:
            repro.plan_for(*key)
        plan_s = CLOCK() - t
        k0, s0, n0 = self.combos[0]
        request = repro.Request(
            "t0", kernel=kernels[k0], data=inputs["pools"][s0][0],
            steps=n0, boundary="periodic",
        )
        t = CLOCK()
        response = loop.run_until_complete(service.submit(request))
        first_op_s = CLOCK() - t
        if not response.ok:
            raise RuntimeError(f"first request refused: {response.reason}")
        times = {
            "import_s": import_s,
            "construct_s": construct_s,
            "plan_build_s": plan_s,
            "first_op_s": first_op_s,
            "setup_s": import_s + construct_s + plan_s + first_op_s,
        }
        return Setup(
            repro, inputs, times, engine=service, timed=timed,
            extra={"loop": loop, "kernels": kernels, "engines": engines, "keys": keys},
        )

    def teardown(self, state: Setup) -> None:
        loop = state.extra["loop"]
        loop.run_until_complete(state.engine.stop())
        loop.close()

    def measure(self, state: Setup, seconds: float, trace: bool) -> Dict[str, Any]:
        loop = state.extra["loop"]
        firsts = loop.run_until_complete(self._references(state))
        if state.timed is not None:
            state.timed.reset()
        before = state.engine.stats()
        faults = _minor_faults()
        result = loop.run_until_complete(self._timed(state, seconds, firsts))
        result["faults"] = _minor_faults() - faults
        after = state.engine.stats()
        result["batches"] = after["batches"] - before["batches"]
        result["batched"] = after["batched_requests"] - before["batched_requests"]
        result["hits"] = after["affinity_hits"] - before["affinity_hits"]
        result["misses"] = after["affinity_misses"] - before["affinity_misses"]
        result["queue_peak"] = after["queue_peak"]
        if trace:
            result["passes"] = state.timed.calls
            result["pass_s"] = state.timed.seconds
            result["lookup_us"] = _time_lookups(state.repro, state.extra["keys"])
        return result

    async def _timed(
        self, state: Setup, seconds: float, firsts: Dict[Tuple[int, int], np.ndarray]
    ) -> Dict[str, Any]:
        """The timed phase: the seeded schedule, offered open loop."""
        schedule = self.schedule(state.inputs, seconds)

        async def arrivals(gen: OpenLoop, tasks: List[asyncio.Future]):
            for due, members in schedule:
                await gen.wait_until(due)
                yield due, members

        return await self._drive(state, firsts, arrivals)

    async def _references(self, state: Setup) -> Dict[Tuple[int, int], np.ndarray]:
        """The service's answer for every (combination, grid) pair, before
        the timed phase.

        The timed phase compares each response with its reference and drops
        it.  Keeping the first response of each pair as it arrived pinned
        the top of the heap part-way through the run, which cut the
        service's page faults and its p90 latency from then on, at a moment
        that differed from run to run.  The grids of a combination go in a
        train at a time, so the queue holds no more than a train of the
        timed phase would.
        """
        repro = state.repro
        service = state.engine
        kernels = state.extra["kernels"]
        pools = state.inputs["pools"]
        firsts: Dict[Tuple[int, int], np.ndarray] = {}
        for combo, (kernel, shape, steps) in enumerate(self.combos):
            for lo in range(0, self.pool, self.train):
                grids = range(lo, min(lo + self.train, self.pool))
                responses = await asyncio.gather(*(
                    service.submit(repro.Request(
                        "t0", kernel=kernels[kernel], data=pools[shape][g],
                        steps=steps, boundary="periodic",
                    ))
                    for g in grids
                ))
                for g, response in zip(grids, responses):
                    if not response.ok:
                        raise RuntimeError(
                            f"reference request refused: {response.reason}"
                        )
                    firsts[(combo, g)] = response.data
        return firsts

    async def _drive(
        self, state: Setup, firsts: Dict[Tuple[int, int], np.ndarray], arrivals
    ) -> Dict[str, Any]:
        """Submit what ``arrivals(gen, tasks)`` yields, ``(due, [(tenant,
        combination, grid), ...])`` at a time, and time each request from
        its due time to its response.  ``tasks`` holds the requests
        submitted so far, for a closed loop to wait on."""
        repro = state.repro
        service = state.engine
        kernels = state.extra["kernels"]
        pools = state.inputs["pools"]
        combos = self.combos
        gen = OpenLoop(CLOCK)
        due_at: List[float] = []
        latency: List[float] = []
        service_s: List[float] = []
        same: Dict[Tuple[int, int], int] = {key: 0 for key in firsts}
        stash: List[Tuple[Tuple[int, int], np.ndarray]] = []
        state_counts = {"refused": 0, "unverified": 0, "work": 0.0, "end": 0.0}

        async def one(tenant: str, combo: int, grid: int, due: float) -> None:
            kernel, shape, steps = combos[combo]
            response = await service.submit(
                repro.Request(
                    tenant, kernel=kernels[kernel], data=pools[shape][grid],
                    steps=steps, boundary="periodic",
                )
            )
            due_at.append(due)
            latency.append(gen.latency_since(due))
            state_counts["end"] = gen.now()
            if not response.ok:
                state_counts["refused"] += 1
                return
            service_s.append(response.latency_s)
            state_counts["work"] += float(np.prod(shape)) * steps
            key = (combo, grid)
            if np.array_equal(firsts[key], response.data):
                same[key] += 1
            else:
                if len(stash) < STASH_LIMIT:
                    stash.append((key, response.data))
                else:
                    state_counts["unverified"] += 1

        tasks: List[asyncio.Future] = []
        gen.start()
        async for due, members in arrivals(gen, tasks):
            for tenant, combo, grid in members:
                tasks.append(asyncio.ensure_future(one(tenant, combo, grid, due)))
        await asyncio.gather(*tasks)
        return {
            "due": due_at,
            "latency": latency,
            "service": service_s,
            "lateness": gen.lateness,
            "firsts": firsts,
            "stash": stash,
            "same": same,
            "attempted": len(tasks),
            **state_counts,
        }

    def _correct(self, state: Setup, key: Tuple[int, int], out, trace: bool) -> bool:
        """Whether ``out`` answers the (combination, grid) pair ``key``:
        it passes the oracle and, traced, equals an untraced run."""
        kernel, shape, steps = self.combos[key[0]]
        x = state.inputs["pools"][shape][key[1]]
        weights = state.repro.get_kernel(kernel).weights
        ref = correlate_steps(x, weights, steps)
        if check_output(out, ref, x, weights, steps) is not None:
            return False
        if not trace:
            return True
        plain = state.extra["engines"][kernel]
        return np.array_equal(out, plain.run(x, steps=steps, boundary="periodic"))

    def check(self, state: Setup, result: Dict[str, Any], trace: bool) -> Tuple[int, int]:
        """``(wrong, refused)``, as for :meth:`Solve.check`."""
        wrong = result["unverified"]
        for key, out in result["firsts"].items():
            if not self._correct(state, key, out, trace):
                wrong += result["same"][key]
        for key, out in result["stash"]:
            # Traced, an output that differs from its reference is not
            # bit-identical to the untraced run, whatever the oracle says.
            if trace or not self._correct(state, key, out, trace):
                wrong += 1
        return wrong, result["refused"]

    def sample(self, result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
        """Latencies and the work served; traced, the layer figures too."""
        sample = {
            "due": result["due"],
            "latency": result["latency"],
            "work": result["work"],
            "end": result["end"],
        }
        if trace:
            for key in (
                "service", "lateness", "passes", "pass_s", "lookup_us", "faults",
                "batches", "batched", "hits", "misses", "queue_peak",
            ):
                sample[key] = result[key]
        return sample

    def end_to_end(self, samples: List[Dict[str, Any]]) -> Dict[str, float]:
        """Throughput over the workers' timed phases, from the start of each
        to its last response (for an open loop the offered load sets it
        unless the service falls behind), and latency over every request."""
        work = sum(sample["work"] for sample in samples)
        span = sum(sample["end"] for sample in samples)
        latency = [t for sample in samples for t in sample["latency"]]
        return _end_to_end(work / span, latency)

    def per_layer(self, samples: List[Dict[str, Any]]) -> Dict[str, float]:
        def total(key: str) -> float:
            return sum(sample[key] for sample in samples)

        def pooled(key: str) -> List[float]:
            return [v for sample in samples for v in sample[key]]

        service_ms = [s * 1e3 for s in pooled("service")]
        served = len(service_ms)
        pass_ms = total("pass_s") * 1e3
        op_ms = sum(service_ms) / served
        hits, misses = total("hits"), total("misses")
        metrics = {
            "runtime.plan_lookup_us": statistics.median(
                sample["lookup_us"] for sample in samples
            ),
            "runtime.host_ms_per_op": op_ms - pass_ms / served,
            "runtime.passes_per_op": total("passes") / served,
            "core.pass_ms_per_op": pass_ms / served,
            "core.pass_share": pass_ms / served / op_ms,
            "process.minor_faults_per_op": total("faults") / served,
            "serve.batch_size_mean": total("batched") / total("batches"),
            "serve.service_ms_p50": percentile(service_ms, 50),
            "serve.pass_ms_per_batch": pass_ms / total("batches"),
            "serve.queue_peak": float(max(s["queue_peak"] for s in samples)),
            "serve.affinity_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "loadgen.lateness_ms_p90": (
                percentile(pooled("lateness"), 90) * 1e3 if pooled("lateness") else 0.0
            ),
        }
        tail = latency_summary(pooled("latency"))
        if "p99" in tail:
            metrics["serve.latency_p99_ms"] = tail["p99"]
        return metrics

    def attempted(self, result: Dict[str, Any]) -> int:
        return result["attempted"]


@dataclass(frozen=True)
class Ensemble(Serve):
    """One caller submitting ensembles to one :class:`repro.StencilService`
    back to back: a train of ``train`` same-key requests at once, the next
    when every response of the last is in.

    The seed orders the (kernel, shape, steps) combinations, shuffled anew
    each time all have gone, and picks each train's tenant and the order
    of its grids.  ``trains_per_round`` and ``arrivals_per_s`` are unused.
    """

    def describe(self) -> Dict[str, Any]:
        return {
            "kernels": list(self.kernels),
            "shapes": [list(s) for s in self.shapes],
            "steps": list(self.steps),
            "tenants": self.tenants,
            "train": self.train,
            "lanes": self.lanes(),
            "boundary": "periodic",
            "loop": "closed, one caller, a train at a time",
        }

    async def _timed(
        self, state: Setup, seconds: float, firsts: Dict[Tuple[int, int], np.ndarray]
    ) -> Dict[str, Any]:
        rng = state.inputs["rng"]
        order: List[int] = []

        async def arrivals(gen: OpenLoop, tasks: List[asyncio.Future]):
            while True:
                await asyncio.gather(*tasks[-self.train:])
                if gen.now() >= seconds:
                    return
                if not order:
                    order.extend(rng.permutation(len(self.combos)).tolist())
                combo = order.pop()
                tenant = f"t{int(rng.integers(self.tenants))}"
                grids = rng.permutation(self.pool)[: self.train]
                yield gen.now(), [(tenant, combo, int(g)) for g in grids]

        return await self._drive(state, firsts, arrivals)


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        Solve(
            name="solve-star",
            kernel="heat-3d",
            shape=(48, 48, 48),
            steps=4,
            fusion=1,
        ),
        Solve(
            name="solve-box",
            kernel="box-2d9p",
            shape=(512, 512),
            steps=6,
            fusion="auto",
        ),
        Serve(
            name="serve-mixed",
            kernels=("heat-2d", "box-2d9p", "star-2d13p"),
            shapes=((32, 32), (64, 64)),
            steps=(1, 2, 3, 4),
            tenants=4,
            train=8,
            trains_per_round=8,
            arrivals_per_s=60.0,
            pool=16,
        ),
        Ensemble(
            name="serve-ensemble",
            kernels=("heat-2d", "box-2d9p", "star-2d13p"),
            shapes=((128, 128),),
            steps=(1, 2, 3, 4),
            tenants=4,
            train=8,
            trains_per_round=0,
            arrivals_per_s=0.0,
            pool=8,
        ),
    )
}
