"""Run every workload over several seeds and print every metric.

    python3 bench/report.py [--seeds 10] [--write FILE]

For each workload this runs ``run.py`` untraced once per seed (1..N) and
traced once (seed 1).  It prints, per end-to-end metric, the median over
seeds and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json; then the workload's own figures (failure ratio, tail
percentile, per-subcommand cold times) and the per-layer metrics of the
traced run.  A metric whose spread is above its bound is marked
UNRESOLVED: a comparison against it cannot pass or fail.  ``--write``
stores all of it as JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr.decode()}")
    line = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"result-{workload}-trace{trace}.json").read_text())
    return {"line": line, "workload_metrics": detail["workload_metrics"]}


def unit_of(name: str) -> str:
    """Units of the workload's own figures, which run.py prints without."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_percentile", "%"), ("_samples", "count"), ("calls", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def machine() -> dict:
    """Where the figures were taken, and of which commit of the program."""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "cpus": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy")},
        "platform": platform.platform(),
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", type=Path, help="store the figures as JSON here")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"end_to_end": {}, "workload_metrics": {}, "attempted": [], "failed": []}
        print(f"\n== {workload}: {len(runs)} untraced runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["line"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["line"]["metrics"][name]["unit"]
            med, q1, q3, sp = spread(values)
            resolved = sp <= bound
            if not resolved:
                flag = "  <-- UNRESOLVED: spread above the bound"
            elif name != "setup_s" and sp > bound / 3:
                flag = "  <-- above a third of the bound"
            else:
                flag = ""
            print(f"  {name:<28} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {bound:>6}{flag}")
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": sp, "resolved": resolved, "values": values}
        for key in runs[0]["workload_metrics"]:
            values = [r["workload_metrics"][key] for r in runs]
            entry["workload_metrics"][key] = statistics.median(values)
            print(f"  {key:<28} {unit_of(key):<6} {statistics.median(values):>12.6g}"
                  f"   (min {min(values):.6g}, max {max(values):.6g})")
        entry["attempted"] = [r["line"]["attempted"] for r in runs]
        entry["failed"] = [r["line"]["failed"] for r in runs]
        entry["correct"] = all(r["line"]["correct"] for r in runs)
        print(f"  attempted {entry['attempted']}\n  failed    {entry['failed']}"
              f"\n  correct   {entry['correct']}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["line"]["metrics"].items()}
        entry["traced_correct"] = traced["line"]["correct"]
        print(f"  traced run, seed {seeds[0]}, correct {entry['traced_correct']}:")
        for key, value in entry["per_layer"].items():
            unit = traced["line"]["metrics"][key]["unit"]
            print(f"    {key:<42} {value:.6g} {unit}")
        out["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
