"""Self-tests of the benchmark harness (no program needed).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import types
from collections import Counter

import numpy as np
import pytest

import harness
from workloads import WORKLOADS


def test_percentiles_need_ten_samples_beyond_them():
    assert "p90" not in harness.latency_summary([0.001] * 99)
    summary = harness.latency_summary([i / 1000.0 for i in range(100)])
    assert summary["p90"] == pytest.approx(np.percentile(np.arange(100.0), 90))
    assert summary["p50"] == pytest.approx(49.5)
    assert "p99" not in summary
    assert "p99" in harness.latency_summary([0.001] * 1000)


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=257))
    for q in (0, 10, 50, 90, 99, 100):
        assert harness.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_a_run_pools_its_workers_samples():
    solve = WORKLOADS["solve-star"]
    # Two workers: a slow layout and a fast one, 60 operations each.
    samples = [{"times": [0.040] * 60}, {"times": [0.030] * 60}]
    metrics = solve.end_to_end(samples)
    assert metrics["latency_p50_ms"] == pytest.approx(35.0)
    assert metrics["latency_p90_ms"] == pytest.approx(40.0)
    ops_s = sum(sum(s["times"]) for s in samples)
    assert metrics["gstencil_per_s"] == pytest.approx(solve.work * 120 / ops_s / 1e9)
    # Fewer than 100 operations in all: no p90.
    assert "latency_p90_ms" not in solve.end_to_end([{"times": [0.04] * 99}])

    serve = WORKLOADS["serve-ensemble"]
    samples = [
        {"latency": [0.010] * 50, "work": 4096.0, "end": 2.0},
        {"latency": [0.020] * 50, "work": 2048.0, "end": 1.0},
    ]
    metrics = serve.end_to_end(samples)
    assert metrics["gstencil_per_s"] == pytest.approx(6144.0 / 3.0 / 1e9)
    assert metrics["latency_p50_ms"] == pytest.approx(15.0)
    assert metrics["latency_p90_ms"] == pytest.approx(20.0)


class ScriptedClock:
    """A clock that moves only when the test or a sleep moves it."""

    def __init__(self, oversleep: float = 0.0) -> None:
        self.t = 100.0
        self.oversleep = oversleep

    def __call__(self) -> float:
        return self.t

    async def sleep(self, delay: float) -> None:
        self.t += delay + self.oversleep


def test_open_loop_times_from_due_and_counts_lateness():
    clock = ScriptedClock(oversleep=0.001)
    gen = harness.OpenLoop(clock, clock.sleep)
    latencies = []

    async def drive() -> None:
        gen.start()
        await gen.wait_until(0.010)          # on time, but the sleep overshoots
        clock.t += 0.030                     # the program stalls the generator
        latencies.append(gen.latency_since(0.010))
        await gen.wait_until(0.020)          # already late: no sleep at all
        latencies.append(gen.latency_since(0.020))

    asyncio.run(drive())
    assert gen.lateness == pytest.approx([0.001, 0.021])
    # The second operation is charged the stall it waited behind.
    assert latencies == pytest.approx([0.031, 0.021])


def test_arrival_times_are_seeded_and_span_the_run():
    a = harness.arrival_times(np.random.default_rng(5), 200, 12.0)
    b = harness.arrival_times(np.random.default_rng(5), 200, 12.0)
    assert np.array_equal(a, b)
    assert len(a) == 200 and np.all(np.diff(a) > 0)
    assert 0.0 < a[0] and a[-1] < 12.0


def _shifted_sum(x: np.ndarray, weights: np.ndarray, steps: int) -> np.ndarray:
    """A periodic stencil summed in another order than the oracle's."""
    r = weights.shape[0] // 2
    for _ in range(steps):
        acc = np.zeros_like(x)
        for idx in reversed(list(np.ndindex(weights.shape))):
            if weights[idx]:
                shift = tuple(r - i for i in idx)
                acc += weights[idx] * np.roll(x, shift, axis=tuple(range(x.ndim)))
        x = acc
    return x


@pytest.mark.parametrize("shape,edge", [((40, 40), 3), ((12, 12, 12), 3), ((30, 30), 7)])
def test_oracle_accepts_reassociation_and_rejects_one_perturbed_element(shape, edge):
    rng = np.random.default_rng(11)
    x = rng.random(shape)
    weights = rng.random((edge,) * len(shape))
    weights /= weights.sum()
    steps = 4
    ref = harness.correlate_steps(x, weights, steps)
    other = _shifted_sum(x, weights, steps)
    assert not np.array_equal(other, ref)
    assert harness.check_output(other, ref, x, weights, steps) is None
    bad = other.copy()
    bad[(3,) * len(shape)] += 1e-9
    assert "oracle" in harness.check_output(bad, ref, x, weights, steps)


def test_conservation_catches_what_the_oracle_would_miss():
    """Zero padding loses mass at the edges; if the oracle made the same
    mistake the pointwise comparison would pass, the sum would not."""
    from scipy import ndimage

    x = np.random.default_rng(2).random((64, 64))
    weights = np.full((3, 3), 1.0 / 9.0)
    wrong = x
    for _ in range(2):
        wrong = ndimage.correlate(wrong, weights, mode="constant")
    reason = harness.check_output(wrong, wrong, x, weights, 2)
    assert reason is not None and "sum" in reason


def test_forbidden_environment_is_named():
    assert harness.forbidden_env({"REPRO_OBS": "1", "HOME": "/"}) == ["REPRO_OBS"]
    assert harness.forbidden_env({"REPRO_BACKEND": ""}) == []


def _fake_solve_state(solve, first):
    weights = np.full((3, 3), 1.0 / 9.0)
    kernel = types.SimpleNamespace(weights=weights)
    repro = types.SimpleNamespace(get_kernel=lambda name: kernel)
    grid = np.random.default_rng(4).random(solve.shape)
    ref = harness.correlate_steps(grid, weights, solve.steps)
    state = types.SimpleNamespace(
        repro=repro,
        inputs={"grid": grid},
        engine=types.SimpleNamespace(fusion_depth=1),
        extra={"first": ref if first is None else first(ref)},
    )
    return state, ref


def test_solve_check_reports_a_perturbed_output_as_failed():
    import dataclasses

    solve = dataclasses.replace(WORKLOADS["solve-box"], shape=(32, 32), steps=2)

    def perturb(a):
        b = a.copy()
        b[5, 7] += 1e-8
        return b

    state, ref = _fake_solve_state(solve, None)
    result = {"times": [0.1] * 4, "stash": [perturb(ref)], "unverified": 0}
    assert solve.check(state, result, trace=False) == (1, 0)

    state, _ = _fake_solve_state(solve, perturb)
    result = {"times": [0.1] * 4, "stash": [], "unverified": 0}
    assert solve.check(state, result, trace=False) == (4, 0)


def test_serve_check_counts_every_response_of_a_wrong_answer():
    serve = WORKLOADS["serve-mixed"]
    weights = np.full((3, 3), 1.0 / 9.0)
    kernel = types.SimpleNamespace(weights=weights)
    x = np.random.default_rng(6).random((32, 32))
    state = types.SimpleNamespace(
        repro=types.SimpleNamespace(get_kernel=lambda name: kernel),
        inputs={"pools": {(32, 32): [x], (64, 64): []}},
    )
    combo = next(i for i, (_, s, _) in enumerate(serve.combos) if s == (32, 32))
    steps = serve.combos[combo][2]
    good = harness.correlate_steps(x, weights, steps)
    bad = good.copy()
    bad[0, 0] += 1e-8
    result = {
        "firsts": {(combo, 0): good},
        "same": {(combo, 0): 3},
        "stash": [((combo, 0), bad)],
        "unverified": 0,
        "refused": 2,
    }
    assert serve.check(state, result, trace=False) == (1, 2)
    result["firsts"] = {(combo, 0): bad}
    assert serve.check(state, result, trace=False) == (4, 2)


def test_serve_runs_offer_whole_rounds_whatever_the_seed():
    serve = WORKLOADS["serve-mixed"]
    seen = []
    for seed in (1, 2):
        schedule = serve.schedule(serve.make_inputs(seed), 12.0)
        members = [m for _, arrival in schedule for m in arrival]
        seen.append(Counter(combo for _, combo, _ in members))
        assert len(members) == serve.rounds(12.0) * serve.requests_per_round
        trains = sum(len(arrival) == serve.train for _, arrival in schedule)
        assert trains / len(schedule) == pytest.approx(0.25)
    assert seen[0] == seen[1]
