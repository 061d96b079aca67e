"""Runs the benchmark on every workload and prints each metric.

From the root of a checkout::

    python3 perfbench/report.py               # seed 1, untraced and traced
    python3 perfbench/report.py --baseline    # rewrites perfbench/baseline.json

Each (workload, seed, trace) triple runs in its own process through
``perfbench/run.py``, with ``run_seconds`` from ``BENCHMARK.json``.  For
every workload the report lists each metric with its unit, the median over
the seeds, the median sample count of one run, the number of runs and the
quartile spread as a share of the median; ``fail_ratio`` is failed ops over
attempted ops across all runs.

``--baseline`` runs two sets of untraced runs on ``BASELINE_SEEDS``, one
after the other, and one set of traced runs on ``BASELINE_TRACED_SEEDS``,
and writes them to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
BASELINE_SEEDS = list(range(1, 11))
BASELINE_TRACED_SEEDS = [1, 2, 3]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def samples(lines):
    """Metric name -> sample count, from the run's ``name value unit n=k`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            out[parts[0]] = int(parts[3][2:])
    return out


def summarize(runs):
    """Median, quartile spread / median, runs and median samples per metric."""
    out = {}
    for name, first in runs[0][1]["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in runs]
        med = statistics.median(values)
        spread = None
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
        out[name] = {"median": med, "unit": first["unit"], "spread": spread, "runs": len(values),
                     "samples": statistics.median(samples(lines).get(name, 0) for lines, _ in runs),
                     "values": values}
    return out


def run_set(workload, seeds, trace, seconds):
    """Runs one workload on every seed and prints the summary."""
    runs = [run_once(workload, seed, seconds, trace) for seed in seeds]
    attempted = sum(result["attempted"] for _, result in runs)
    failed = sum(result["failed"] for _, result in runs)
    metrics = summarize(runs)
    kind = "per_layer" if trace else "end_to_end"
    print(f"{workload} {kind}: {len(runs)} runs, {attempted} ops, fail_ratio {failed / attempted:.4f}")
    for name, m in metrics.items():
        spread = "" if m["spread"] is None else f" spread={m['spread']:.3f}"
        print(f"  {name:40s} {m['median']:14.6g} {m['unit']:6s} samples={m['samples']:g} "
              f"runs={m['runs']}{spread}")
    sys.stdout.flush()
    return {"seeds": seeds, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_baseline(workloads, seconds):
    out = {
        "about": (f"Two sets of untraced runs on seeds {BASELINE_SEEDS[0]}-{BASELINE_SEEDS[-1]}, one "
                  f"after the other, and traced runs on seeds {BASELINE_TRACED_SEEDS}, from "
                  "'perfbench/report.py --baseline'. 'spread' is the quartile distance over the "
                  "median of a set; 'samples' is the sample count of one run."),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        sets = [run_set(workload, BASELINE_SEEDS, 0, seconds) for _ in range(2)]
        traced = run_set(workload, BASELINE_TRACED_SEEDS, 1, seconds)
        out["workloads"][workload] = {
            "fail_ratio": sum(s["failed"] for s in sets + [traced])
                          / sum(s["attempted"] for s in sets + [traced]),
            "end_to_end": [s["metrics"] for s in sets],
            "per_layer": {name: {"median": m["median"], "unit": m["unit"]}
                          for name, m in traced["metrics"].items()},
        }
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline", action="store_true", help=f"rewrite {BASELINE.name}")
    args = p.parse_args(argv)

    if args.baseline:
        record_baseline(workloads, bench["run_seconds"])
        return 0
    for workload in workloads:
        for trace in (0, 1):
            run_set(workload, [1], trace, bench["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
