"""Steadiness check: run each workload N times and report the spread.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workload typing --first-seed 11

Each run is a separate ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...), one after another. For every
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread — the interquartile
distance as a share of the median — and the metric's bound from
``BENCHMARK.json``. A spread under a third of the bound is ``steady``,
one under the bound ``within``, anything else ``UNSTEADY`` (``setup_s``
is reported but, like its bound, judged on medians only). It also prints
each workload's failed share, which must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    began = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - began
    return result


def summarize(workload: str, results: list, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    walls = [r["wall_s"] for r in results]
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"failed share {'identical' if len(shares) == 1 else 'VARIES'}"
          f" ({', '.join(f'{s:.4f}' for s in shares)}), wall per run "
          f"{min(walls):.0f}-{max(walls):.0f} s")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        if name == "setup_s":
            verdict = "(median only)"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict = "UNSTEADY"
        print(f"  {name:24s} {mid:12.4g} {q1:12.4g} {q3:12.4g} "
              f"{100 * spread:6.1f}% {100 * bound:5.0f}% {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default: every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, seconds, trace=0)
            print(f"{workload} seed {seed} ({result['wall_s']:.0f} s): "
                  + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
            results.append(result)
        summarize(workload, results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
