"""End-to-end search benchmark: seeded searches through ``make_problem`` + ``run_algorithm``.

Usage, from the repository root::

    python3 perfbench/run.py --workload nsga2-paper64 --seed 1 --seconds 25 --trace 0

One run measures for ``--seconds`` seconds.  It runs searches one at a time
(closed loop, one client), each in a fresh single-threaded child process, on
sub-seeds derived from ``--seed``, and reports medians over them.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it pairs
every search with a traced repeat and prints the per-layer metrics instead.
Every search is checked by the correctness oracle in ``search_child.py``; an
untraced run also repeats its first sub-seed and requires the same front
fingerprint.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-search
records go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layer_trace import LAYERS, layer_totals  # noqa: E402

REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench"
BENCHMARK = REPO / "BENCHMARK.json"
WORKLOADS = HERE / "workloads.json"

#: A run, every child included, ends within this many seconds of its start.
RUN_LIMIT_S = 170.0

#: Thread-pool sizes pinned to one in every child, so a search is single-threaded.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th search of a run seeded with ``seed``."""
    return seed * 100 + index


def child_env() -> dict[str, str]:
    """Environment of a search child: the checkout's ``src`` and one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def run_child(spec: dict[str, Any], seed: int, deadline: float, trace_out: "Path | None" = None) -> dict[str, Any]:
    """Run one search in a fresh process; a crash or timeout becomes a failed record."""
    command = [sys.executable, str(HERE / "search_child.py"), "--spec", json.dumps(spec), "--seed", str(seed)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "wall_s": time.monotonic() - spawned, "failures": ["search timed out"]}
    wall = time.monotonic() - spawned
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "wall_s": wall, "failures": [f"search exited {done.returncode}: {tail[0]}"]}
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["wall_s"] = wall
    record["setup_s"] = record.pop("ready_monotonic") - spawned
    return record


def count_failed(records: list[dict[str, Any]]) -> int:
    """Searches that crashed or failed a check of the correctness oracle."""
    return sum(1 for record in records if record["failures"])


def _repeat_check(first: dict[str, Any], repeat: dict[str, Any]) -> None:
    """Mark ``repeat`` failed when a repeat of one seed gave another front."""
    if not first["failures"] and not repeat["failures"] and first["fingerprint"] != repeat["fingerprint"]:
        repeat["failures"].append(f"front fingerprint of seed {repeat['seed']} did not repeat")


def _median(records: list[dict[str, Any]], key: str) -> float:
    return statistics.median(record[key] for record in records)


def end_to_end_metrics(records: list[dict[str, Any]]) -> dict[str, float]:
    """Medians over the searches of one untraced run, and its overall throughput.

    ``phv_root`` is a function of the sub-seed alone, so the closing repeat,
    which only re-measures time and memory, is left out of its median.
    """
    metrics = {key: _median(records, key) for key in ("search_s", "setup_s", "peak_rss_mb")}
    metrics["evals_per_s"] = sum(r["evaluations"] for r in records) / sum(r["search_s"] for r in records)
    distinct = [record for record in records if not record.get("repeat")] or records
    metrics["phv_root"] = _median(distinct, "phv_root")
    return metrics


def layer_metrics(pairs: list[tuple[dict[str, Any], dict[str, Any]]]) -> dict[str, float]:
    """Per-search means of every layer metric over the traced searches of one run."""
    sums: dict[str, float] = {}
    for traced, untraced in pairs:
        dump = json.loads(Path(traced["trace_file"]).read_text())
        values: dict[str, float] = {}
        for layer, total in layer_totals(dump["spans"]).items():
            values[f"{layer}.calls"] = total["calls"]
            values[f"{layer}.s"] = total["s"]
        counters = dump["counters"]
        routing = counters["routing"]
        for name in ("hits", "misses", "incremental_repairs", "hit_rate"):
            values[f"noc.routing.{name}"] = routing[name]
        unique, hits = counters["unique_evaluations"], counters["evaluation_cache_hits"]
        values["objectives.unique_evaluations"] = unique
        values["objectives.cache_hit_rate"] = hits / (unique + hits) if unique + hits else 0.0
        values["trace.calls"] = len(dump["spans"])
        values["trace.s"] = traced["search_s"]
        values["trace.overhead_s"] = traced["search_s"] - untraced["search_s"]
        for name, value in values.items():
            sums[name] = sums.get(name, 0.0) + value
    return {name: total / len(pairs) for name, total in sums.items()}


def run_workload(spec: dict[str, Any], seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one benchmark run and return its result object (metrics as plain numbers)."""
    started = time.monotonic()
    deadline = started + seconds
    hard_deadline = started + RUN_LIMIT_S
    records: list[dict[str, Any]] = []
    pairs: list[tuple[dict[str, Any], dict[str, Any]]] = []
    index = 0
    while True:
        seed_i = sub_seed(seed, index)
        if trace:
            trace_out = OUT / "traces" / f"{spec['name']}-seed{seed_i}.json"
            # Alternate which side of the pair runs first, so drift in the
            # machine's speed does not bias the overhead estimate.
            if index % 2:
                untraced = run_child(spec, seed_i, hard_deadline)
                traced = run_child(spec, seed_i, hard_deadline, trace_out)
            else:
                traced = run_child(spec, seed_i, hard_deadline, trace_out)
                untraced = run_child(spec, seed_i, hard_deadline)
            _repeat_check(untraced, traced)
            records += [traced, untraced]
            if not traced["failures"] and not untraced["failures"]:
                traced["trace_file"] = str(trace_out)
                pairs.append((traced, untraced))
        else:
            records.append(run_child(spec, seed_i, hard_deadline))
        index += 1
        # Room for two more searches: another pair, or one search plus the closing repeat.
        if time.monotonic() + 2 * _median(records, "wall_s") > deadline:
            break
    if not trace:
        repeat = run_child(spec, sub_seed(seed, 0), hard_deadline)
        repeat["repeat"] = True
        _repeat_check(records[0], repeat)
        records.append(repeat)

    OUT.mkdir(parents=True, exist_ok=True)
    summary = OUT / f"{spec['name']}-seed{seed}-trace{int(trace)}.json"
    summary.write_text(json.dumps(records, indent=1))
    for record in records:
        missed = "" if record.get("reached_target", True) else " (missed the PHV target)"
        print(f"seed {record['seed']}: {record.get('search_s', 'n/a')} s{missed} {record['failures']}", file=sys.stderr)

    passed = [record for record in records if not record["failures"]]
    if trace:
        metrics = layer_metrics(pairs) if pairs else {}
    else:
        metrics = end_to_end_metrics(passed) if passed else {}
    failed = count_failed(records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end search benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    workloads = json.loads(WORKLOADS.read_text())
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2
    spec = dict(workloads[args.workload], name=args.workload)

    result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in result["metrics"]]
    if missing:
        print(f"error: no passing search produced {missing}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    result["metrics"] = {metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]} for metric in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
