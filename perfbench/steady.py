"""Steadiness check: repeat the workloads and compare the sets of runs.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2

Each set runs every workload ``--runs`` times, each time with a fresh seed,
interleaving the workloads so a change in machine load hits all of them.
For every end-to-end metric it prints each set's median and quartiles, the
spread (interquartile distance over the median) and, from the second set
on, the drift of the median against the first set in the direction that
counts as worse.  Both are compared with the metric's bound in
``BENCHMARK.json``: a spread above its bound or a drift above it means the
bounds do not hold on this machine.

``setup_s`` is the one exception: its spread is printed but not held to
its bound.  Set-up is a single phase of about two seconds, sampled once
per worker process, so unlike a timed phase of tens of seconds it cannot
average out the host's swings.  Its bound guards the median instead: work
moved into set-up shifts the median, and the drift check catches that.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


#: Gated metrics whose spread is reported but not held to the bound.
SPREAD_EXEMPT = ("setup_s",)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["steal_share"] = json.loads(lines[-2].partition(": ")[2]).get("steal_share")
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    seed = args.first_seed
    sets: List[Dict[str, List[dict]]] = []
    for _ in range(args.sets):
        results: Dict[str, List[dict]] = {n: [] for n in names}
        for _ in range(args.runs):
            for name in names:
                results[name].append(run_once(spec, name, seed))
            seed += 1
        sets.append(results)

    print(f"{'workload':<12} {'metric':<26} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'drift':>7} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            bound = metric["bound"]
            first = None
            for i, results in enumerate(sets):
                values = [r["metrics"][key]["value"] for r in results[name]
                          if key in r["metrics"]]
                if len(values) < 2:
                    continue
                s = spread(values)
                drift = ""
                if first is None:
                    first = s["median"]
                else:
                    sign = 1 if metric["better"] == "lower" else -1
                    d = sign * (s["median"] - first) / first
                    drift = f"{d:+.3f}"
                    if d > bound:
                        ok = False
                if key not in SPREAD_EXEMPT and s["spread"] > bound:
                    ok = False
                print(f"{name:<12} {key:<26} {i:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                      f"{s['q3']:>12.6g} {s['spread']:>7.3f} {drift:>7} {bound:>6}")
        for i, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results[name])
            failed = sum(r["failed"] for r in results[name])
            correct = all(r["correct"] for r in results[name])
            steal = [r["steal_share"] for r in results[name] if r["steal_share"] is not None]
            steal_text = f" steal={statistics.median(steal):.3f}" if steal else ""
            print(f"{name:<12} {'failed/attempted':<26} {i:>3} {failed}/{attempted}"
                  f" correct={correct}{steal_text}")
            ok = ok and correct
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
