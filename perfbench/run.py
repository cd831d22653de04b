"""The served-stack benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload typing --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``typing``, ``ingest``, ``restart``. Each
runs ``repro.server.SiteDaemon``\\ s on loopback inside this one process
and one asyncio event loop, checks the program's outputs against
computations made apart from Treedoc, and prints as its last stdout
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``. The traced
run also writes a span file and a per-layer table under
``perfbench/.out/`` and reports its tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = ("typing", "ingest", "restart")


class Context:
    """What a workload receives, and where it leaves its results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tracer, meter) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.meter = meter
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.timed_s = 0.0
        self.checkpoint_bytes = 0
        self._timed_from = None
        self._checkpoint_bytes_from = None
        self.finished = False

    def begin_timed(self) -> None:
        """A timed phase starts (``typing`` has one per session);
        tracing records from here until :meth:`pause` or
        :meth:`finish`."""
        self._timed_from = time.monotonic()
        self._checkpoint_bytes_from = self.meter.checkpoint_bytes
        if self.tracer is not None:
            self.tracer.active = True

    def end_timed(self) -> None:
        self.timed_s += time.monotonic() - self._timed_from

    def pause(self) -> None:
        """Stop recording until the next :meth:`begin_timed`: the
        set-up between two sessions is not traced."""
        if self.tracer is not None:
            self.tracer.active = False
        self.checkpoint_bytes += (self.meter.checkpoint_bytes
                                  - self._checkpoint_bytes_from)
        self._checkpoint_bytes_from = None

    def finish(self, failures, metrics, layers, edits, counters, stores,
               final) -> None:
        """Record the run's results: its failure accounting, end-to-end
        metrics, workload-computed per-layer values, edit count, the
        :func:`harness.counters` of every daemon incarnation since
        set-up, every store object of those incarnations, and the final
        daemons the per-layer end-of-run values are read from."""
        if self._checkpoint_bytes_from is not None:
            self.pause()
        self.failures = failures
        self.metrics = metrics
        self.layers = layers
        self.edits = edits
        self.counters = counters
        self.stores = stores
        self.final = final
        self.finished = True


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _emit(metrics: dict, names_units, correct: bool, attempted: int,
          failed: int) -> None:
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names_units},
    }))


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program source at {source / 'repro'}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import repro  # the program under test, from this checkout's source

    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    import harness
    import load_ingest
    import load_restart
    import load_typing

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ctx = Context(args.workload, args.seed, args.seconds, tracer,
                  harness.Meter())
    module = {"typing": load_typing, "ingest": load_ingest,
              "restart": load_restart}[args.workload]
    OUT.mkdir(exist_ok=True)
    wall_from = time.monotonic()
    try:
        asyncio.run(module.run(ctx))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    wall_s = time.monotonic() - wall_from
    failures = ctx.failures
    for message in failures.check_errors[:10]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    stem = OUT / f"{args.workload}-seed{args.seed}"

    if not args.trace:
        metrics = dict(ctx.metrics)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        with open(f"{stem}-untraced.json", "w") as handle:
            json.dump({"metrics": metrics, "timed_s": ctx.timed_s,
                       "wall_s": wall_s}, handle)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    else:
        import tracing

        metrics = tracing.layer_metrics(tracer, ctx)
        tracer.write_spans(Path(f"{stem}-spans.txt"))
        table = tracing.layer_table(tracer, ctx.timed_s)
        cost = tracer.span_cost_ns()
        overhead = [
            f"tracing overhead: {len(tracer.spans)} spans x {cost:.0f} ns "
            f"= {100.0 * len(tracer.spans) * cost / 1e9 / ctx.timed_s:.1f}% "
            f"of the {ctx.timed_s:.1f} s timed phase (estimate)"
        ]
        untraced = Path(f"{stem}-untraced.json")
        if untraced.exists():
            base = json.loads(untraced.read_text())
            for name, value in sorted(ctx.metrics.items()):
                before = base["metrics"].get(name)
                if before:
                    overhead.append(
                        f"  {name}: untraced {before:.4g}, traced "
                        f"{value:.4g} ({100.0 * (value / before - 1):+.1f}%)")
        else:
            overhead.append("  (no untraced run of this workload and seed "
                            "to compare against)")
        text = table + "\n" + "\n".join(overhead) + "\n"
        Path(f"{stem}-layers.txt").write_text(text)
        print(text, file=sys.stderr)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    _emit(metrics, names, failures.correct, failures.attempted,
          failures.failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
