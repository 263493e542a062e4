"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a source checkout:

    python3 perfbench/steadiness.py [--seeds 1-10] [--seconds S] [--workload W ...]
                                    [--traced-seed N] [--out FILE]

Each run is ``perfbench/run.py --trace 0``, one after another.  For every
workload and end-to-end metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--traced-seed`` each workload also gets one traced run after its untraced
ones, and its per-layer metrics are kept.  With ``--out`` the summary is
also written as JSON (the form of BASELINE.json).  The run length defaults
to ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run; its result line, plus the run's wall time as ``wall_s``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarize(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": round(statistics.median(values), 6),
                         "q1": round(q1, 6), "q3": round(q3, 6),
                         "spread": round((q3 - q1) / q2, 4), "bound": bound}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    sys.path.insert(0, str(HERE))
    from run import _git_rev, _source_digest

    report = {"commit": _git_rev(), "source_sha256": _source_digest(),
              "cpu_count": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": seconds, "trace": 0, "seeds": seeds,
              "statistic": "median and quartiles (statistics.quantiles, n=4) of the "
                           "per-run values; spread = (q3 - q1) / median",
              "workloads": {}}
    if args.traced_seed is not None:
        report["per_layer_note"] = (f"per-layer values come from one traced {seconds} s run "
                                    f"(--trace 1, seed {args.traced_seed}) of each workload, "
                                    "made after its untraced runs")
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed} ({result['wall_s']:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = summarize(results, bounds)
        report["workloads"][workload] = {
            "runs": len(results),
            "run_wall_s_max": round(max(r["wall_s"] for r in results), 1),
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, trace=1)
            report["workloads"][workload][f"per_layer_traced_seed{args.traced_seed}"] = {
                name: round(m["value"], 6) for name, m in traced["metrics"].items()}
        for name, m in summary.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else (
                "  above a third of the bound" if m["spread"] <= m["bound"] else "  OVER BOUND")
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {m['spread']:.3f} (bound {m['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
