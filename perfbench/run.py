"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload solve-star --seed 1 --seconds 12 --trace 0

A run starts :data:`WORKERS` fresh worker processes, one after another.
Each imports the program, sets up, measures for its share of
``--seconds`` and checks its outputs; the run pools what they measured.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every backend pass timed and prints the per-layer metrics.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the environment fingerprint.  Exit code 2 means nothing was measured: a
variable that changes the program is set, or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import harness
from workloads import WORKLOADS

#: Worker processes per run.  The speed of a process depends on where its
#: memory lands: on a 2-core VM, fresh processes running the same solve
#: back to back differed by up to a third in median operation time, while
#: each held its own speed within a few percent.  A run that pools several
#: processes averages that out; one long process would draw one layout.
WORKERS = 8

#: A worker that takes this much longer than its share of ``--seconds`` is
#: broken, not slow.
WORKER_SLACK_S = 60

#: Metric names and units, from the benchmark's definition.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--worker", type=int, default=None,
        help="run as worker N of a run: measure for --seconds, print raw samples",
    )
    return parser.parse_args(argv)


def locate_program() -> str:
    """``src`` of the checkout in the working directory, made importable.

    Refuses a ``repro`` that would come from anywhere else, so the run
    measures the checkout's code and nothing installed.
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no program at {src}/repro; run from a checkout root")
    sys.path.insert(0, src)
    return src


def worker(args: argparse.Namespace, src: str) -> int:
    """Set up, measure, check; print this process's raw samples as JSON."""
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    inputs = workload.make_inputs([args.seed, args.worker])
    state = workload.setup(inputs, trace)
    if not os.path.abspath(state.repro.__file__).startswith(src + os.sep):
        print(f"error: imported {state.repro.__file__}, not {src}", file=sys.stderr)
        return 2
    result = workload.measure(state, args.seconds, trace)
    rss = harness.peak_rss_mb()
    workload.teardown(state)
    wrong, refused = workload.check(state, result, trace)
    print(json.dumps({
        "setup": state.times,
        "peak_rss_mb": rss,
        "attempted": workload.attempted(result),
        "wrong": wrong,
        "refused": refused,
        "sample": workload.sample(result, trace),
        "fingerprint": harness.fingerprint(state.repro.get_backend().name, {}),
    }))
    return 0


def run_worker(args: argparse.Namespace, index: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--worker", str(index)],
        capture_output=True, text=True, timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {index} exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    bad = harness.forbidden_env()
    if bad:
        print(
            f"error: {', '.join(bad)} set; each changes the program being "
            "measured, so nothing was run",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = locate_program()
    if args.worker is not None:
        return worker(args, src)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    cpu = harness.cpu_times()
    workers = [run_worker(args, i, args.seconds / WORKERS) for i in range(WORKERS)]
    steal = harness.steal_share(cpu, harness.cpu_times())

    def med(key: str) -> float:
        return statistics.median(w["setup"][key] for w in workers)

    samples = [w["sample"] for w in workers]
    if trace:
        values = {
            "setup.import_s": med("import_s"),
            "setup.plan_build_ms": med("plan_build_s") * 1e3,
            "setup.first_op_ms": med("first_op_s") * 1e3,
            **workload.per_layer(samples),
        }
    else:
        values = {
            "setup_s": med("setup_s"),
            **workload.end_to_end(samples),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    undefined = set(values) - set(units)
    if undefined:
        print(f"error: metrics {sorted(undefined)} are not defined", file=sys.stderr)
        return 2
    wrong = sum(w["wrong"] for w in workers)
    print("fingerprint: " + json.dumps({
        **workers[0]["fingerprint"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(),
        "workers": WORKERS,
        "steal_share": steal,
    }, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": wrong + sum(w["refused"] for w in workers),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
