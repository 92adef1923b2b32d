"""Benchmark of kldescent, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs the package from ``src/`` of the checkout this file sits in.  One
workload runs whole rounds of its operations, one more only while it would
still end within ``--seconds`` (at least one; by default ``run_seconds`` of
``BENCHMARK.json``, which is per workload), and prints its metrics; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, taken with no wrapper in place; with ``--trace 1``
they are the per-layer ones, from spans around the package's public
functions (see ``tracing.py``).
``--workload all`` runs every workload, each in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("lasso-large", "catalog-sweep")
SPEC = ROOT / "BENCHMARK.json"
SETUP_MIN_SAMPLES = 3
# Untraced, each round is followed by more set-ups until its set-up time
# reaches this, so that the samples of a set-up of milliseconds spread over
# the whole run instead of one burst that catches a single phase of the host.
SETUP_SECONDS_PER_ROUND = 0.05

END_TO_END = {"setup_s": "s", "solve_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    if not (SRC / "kldescent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kldescent package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kldescent

    if Path(kldescent.__file__).resolve().parent != SRC / "kldescent":
        sys.exit(f"perfbench: imported kldescent from {kldescent.__file__}, not {SRC}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    _import_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    tally = workloads.Tally(workload.known_faults)
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    tracer = tracing.Tracer() if traced else None
    solve, cli, verbs = [], [], []
    # set-ups are summed, not kept, so that their number does not show in
    # peak_rss_mb
    setup_total, setups = 0.0, 0
    try:
        start = last = perf_counter()
        # another round only when one more, as long as the last, still ends in time
        while not solve or 2 * perf_counter() - last - start <= seconds:
            last = perf_counter()
            workloads.clear(workdir)
            timer = workloads.RoundTimer(workdir, tracer)
            if tracer is None:
                spent = workload.round(timer, tally, first=not solve)
            else:
                tracer.round = len(solve)
                with tracing.installed(tracer):
                    spent = workload.round(timer, tally, first=not solve)
                tracer.round = None
            solve.append(timer.solve_s)
            cli.append(timer.cli_s)
            verbs.append(timer.verb_s)
            setup_total, setups = setup_total + spent, setups + 1
            while not traced and spent < SETUP_SECONDS_PER_ROUND:
                dt = workload.setup(workloads.RoundTimer(workdir))
                spent += dt
                setup_total, setups = setup_total + dt, setups + 1
        while not traced and setups < SETUP_MIN_SAMPLES:
            setup_total += workload.setup(workloads.RoundTimer(workdir))
            setups += 1
    finally:
        workloads.clear(workdir)
        workdir.rmdir()

    end_to_end = {
        # the mean, not the median: on a host that alternates between two
        # speeds the median of short set-ups jumps between the two
        # (README.md, "Steadiness")
        "setup_s": setup_total / setups,
        "solve_s": statistics.median(solve),
        "cli_s": statistics.median(cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name}: {len(solve)} rounds, {setups} set-ups, sweep pool width "
          f"{os.environ.get('KLDESCENT_THREADS') or os.cpu_count()}, "
          f"{'traced' if traced else 'untraced'}")
    for verb in ("run", "verify", "sweep"):
        vals = [v[verb] for v in verbs]
        if any(vals):
            print(f"  {verb}_s = {statistics.median(vals):.6g} s  (median of the rounds)")
    for metric, value in end_to_end.items():
        print(f"  {metric} = {value:.6g} {END_TO_END[metric]}")
    if traced:
        spans = OUT / f"spans-{name}-seed{seed}.json"
        tracer.dump(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in tracing.layer_metrics(tracer, len(solve)).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    for err in tally.errors[:20]:
        print(f"perfbench: {name}: {err}", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own process, so that peak memory is per workload."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 3) or not lines:
            sys.exit(f"perfbench: {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of one workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed, "
              f"correct: {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
