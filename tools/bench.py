"""Benchmark pairs of two checkouts: writes a ``BENCH_<n>.json`` record.

    python tools/bench.py PARENT CHANGE --out BENCH_<n>.json \\
        --runs lasso-large:0:10 catalog-sweep:0:5 [--note TEXT]...

``PARENT`` and ``CHANGE`` are two checkouts of the repository.  Each
``--runs`` entry ``WORKLOAD:SEED:PAIRS`` runs that many pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --trace 0``, one process
per run in the run's own checkout, for the run length perfbench sets itself;
even pairs run the parent first, odd pairs the change.  Then each workload named runs once traced (``--trace 1``) at
seed 0 on each side, for the per-layer metrics.

The record has the keys of ``BENCH_14.json``: ``machine``, ``commits``,
``method``, ``end_to_end`` (per workload and seed: each side's rounds,
operations and metrics with median, quartiles and runs, and the change's
wins, median ratio and the parent's quartile spread for each metric),
``per_layer_traced_seed0`` and ``notes`` (one summary line per workload and
seed, then each ``--note``).  Which way a metric is better, and the run
length the record names, are read from the parent's ``BENCHMARK.json``.  Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy

# (checkout, workload, seed, traced) -> (the last line's JSON object, rounds)
Runner = Callable[[Path, str, int, bool], tuple[dict, int]]
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --trace 0|1"


def perfbench(checkout: Path, workload: str, seed: int, traced: bool) -> tuple[dict, int]:
    """Run ``perfbench/run.py`` of ``checkout`` once; its result and rounds."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced))]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        sys.exit(f"bench: {workload} in {checkout} exited {proc.returncode}")
    rounds = re.search(rf"^{re.escape(workload)}: (\d+) rounds", proc.stdout, re.M)
    return json.loads(lines[-1]), int(rounds.group(1)) if rounds else 0


def spread(runs: list) -> dict:
    q1, median, q3 = numpy.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": list(runs)}


def pairs(runner: Runner, checkouts: dict, workload: str, seed: int, start: int, count: int,
          better: dict) -> dict:
    """Pairs ``start`` to ``start + count - 1`` of untraced runs, and their
    comparison; ``better`` maps each metric to whether lower is better."""
    results = {side: [] for side in SIDES}
    first = {}
    for pair in range(start, start + count):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first[str(pair)] = order[0]
        for side in order:
            results[side].append(runner(checkouts[side], workload, seed, False))
    block = {"pairs": count, "first_in_pair": first}
    for side in SIDES:
        done = [result for result, _ in results[side]]
        block[side] = {"rounds": [rounds for _, rounds in results[side]],
                       "correct": [result["correct"] for result in done],
                       "attempted": [result["attempted"] for result in done],
                       "failed": [result["failed"] for result in done],
                       **{metric: spread([result["metrics"][metric]["value"] for result in done])
                          for metric in better}}
    parent, change = block["parent"], block["change"]
    block["change_wins"] = {
        metric: sum((c < p) if lower else (c > p)
                    for p, c in zip(parent[metric]["runs"], change[metric]["runs"]))
        for metric, lower in better.items()}
    block["median_ratio"] = {metric: change[metric]["median"] / parent[metric]["median"]
                             for metric in better}
    block["parent_iqr"] = {metric: parent[metric]["q3"] - parent[metric]["q1"]
                           for metric in better}
    return block


def summary(key: str, block: dict, metric: str) -> str:
    parent, change = block["parent"][metric], block["change"][metric]
    gap = abs(parent["median"] - change["median"])
    return (f"{key}: {metric} median {parent['median']:.4g} -> {change['median']:.4g} "
            f"(ratio {block['median_ratio'][metric]:.3f}), change better in "
            f"{block['change_wins'][metric]}/{block['pairs']} pairs, gap {gap:.3g} against "
            f"parent IQR {block['parent_iqr'][metric]:.3g}; failed operations "
            f"{sum(block['parent']['failed'])} and {sum(block['change']['failed'])}, "
            f"all correct: {all(block['parent']['correct'] + block['change']['correct'])}")


def machine(note: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "note": note}


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(runner: Runner, checkouts: dict, runs: list, *, commits: dict,
           machine_note: str = "", notes: tuple = ()) -> dict:
    """The BENCH record of ``runs``, a list of ``(workload, seed, pairs)``."""
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    end_to_end, lines, done = {}, [], {}
    for workload, seed, count in runs:
        start = done.get((workload, seed), 0)
        key = f"{workload}/seed{seed}/pairs{start}-{start + count - 1}"
        block = pairs(runner, checkouts, workload, seed, start, count, better)
        end_to_end[key] = block
        lines += [summary(key, block, metric) for metric in better]
        done[(workload, seed)] = start + count
    layers = {}
    for workload in dict.fromkeys(workload for workload, _, _ in runs):
        traced = {side: runner(checkouts[side], workload, 0, True) for side in SIDES}
        layers[workload] = {
            **{side: {k: v["value"] for k, v in traced[side][0]["metrics"].items()}
               for side in SIDES},
            "rounds": {side: f"{traced[side][1]} rounds" for side in SIDES}}
    return {
        "machine": machine(machine_note),
        "commits": commits,
        "method": {"command": COMMAND, "run_seconds": spec["run_seconds"],
                   "pairing": "parent and change each run from their own checkout, one "
                              "process per run; pairs alternate which side runs first "
                              "(even pair: parent first)",
                   "quartiles": "numpy.percentile, linear interpolation",
                   "per_layer": "one traced run per side at seed 0, after the pairs"},
        "end_to_end": end_to_end,
        "per_layer_traced_seed0": layers,
        "notes": lines + list(notes),
    }


def _run_spec(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, count = text.split(":")
        seed, count = int(seed), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None
    if seed < 0 or count < 1:
        raise argparse.ArgumentTypeError(f"need SEED >= 0 and PAIRS >= 1, got {text!r}")
    return workload, seed, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    parser.add_argument("--runs", type=_run_spec, nargs="+", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--change-commit", default=None)
    parser.add_argument("--machine-note", default="", help="what else to know of the host")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {"parent": args.parent_commit or commit(checkouts["parent"]),
               "change": args.change_commit or commit(checkouts["change"])}

    def runner(checkout, workload, seed, traced):
        result, rounds = perfbench(checkout, workload, seed, traced)
        side = "parent" if checkout == checkouts["parent"] else "change"
        print(f"bench: {side} {workload} seed {seed} {'traced' if traced else 'untraced'}: "
              f"{rounds} rounds, correct {result['correct']}", flush=True)
        return result, rounds

    bench = record(runner, checkouts, args.runs, commits=commits,
                   machine_note=args.machine_note, notes=tuple(args.note))
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print("\n".join(bench["notes"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
