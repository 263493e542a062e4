"""Upload -> visible -> report benchmark for eduwarehouse.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ingest_to_visible --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` (it is not installed).  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to ``.perfbench_work/spans/``.  The
lines before it give the run manifest, the failure accounting, and for a
traced run the self time per layer and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# name -> unit; every workload reports all of them (see README.md)
END_TO_END = {
    "setup_s": "s",
    "visible_s_mean": "s",
    "upload_ms_p50": "ms",
    "report_ms_p50": "ms",
    "report_ms_p90": "ms",
    "report_rps": "1/s",
    "stored_bytes_per_input_byte": "B/B",
}

FLUSH_POLICY = ("commit is a hard link plus unlink of the staged file with no fsync, "
                "the same on both sides of a comparison; reads are served from the OS "
                "page cache, so latencies are this host's, not a storage device's")


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eduwarehouse").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "eduwarehouse" / "__init__.py").is_file():
        print(f"perfbench: no eduwarehouse package under {SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from layers import LAYER_METRICS, per_layer
    from tracing import Tracer
    from workloads import WORKLOADS, Harness

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    rundir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    h = Harness(rundir, args.seed, args.seconds, tracer)
    try:
        metrics = WORKLOADS[args.workload](h)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": _git_rev(), "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "setup_repeats": len(h.setup_times),
        "setup_s_each": [round(t, 4) for t in h.setup_times],
        "flush_policy": FLUSH_POLICY,
        "data_cache": "none in the program; every report re-reads the cube file",
        **h.notes,
    }
    print("manifest: " + json.dumps(manifest))
    print(f"operations: attempted={h.attempted} failed={h.failed}")
    for failure in h.failures:
        print(f"  failed: {failure}")
    for mismatch in h.mismatches:
        print(f"  output mismatch: {mismatch}")

    e2e = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in e2e.items():
        print(f"end-to-end {name} = {m['value']:.6g} {m['unit']}")

    untraced_log = WORK / "untraced" / f"{args.workload}.jsonl"
    if args.trace:
        values, self_ms = per_layer(tracer.spans, h.window, h.auth_samples, h.lag_samples,
                                    h.cube_info)
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print("self time per layer in the measured window (ms): " +
              ", ".join(f"{k}={v:.1f}" for k, v in self_ms.items()))
        print("per-layer metric | value | unit | should move | on")
        for name, unit, moves, on in LAYER_METRICS:
            print(f"  {name} | {values[name]:.6g} | {unit} | {moves} | {on}")
        _print_overhead(untraced_log, args.seconds, metrics)
        out = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in LAYER_METRICS}
    else:
        untraced_log.parent.mkdir(parents=True, exist_ok=True)
        with open(untraced_log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                 "metrics": metrics}) + "\n")
        out = e2e

    correct = not h.mismatches
    print(json.dumps({"correct": correct, "attempted": h.attempted,
                      "failed": h.failed, "metrics": out}))
    return 0 if correct else 1


def _print_overhead(untraced_log: Path, seconds: float, traced: dict) -> None:
    """Traced minus untraced, against the untraced runs of the same length
    logged in this checkout."""
    runs = []
    if untraced_log.is_file():
        for line in untraced_log.read_text(encoding="utf-8").splitlines():
            logged = json.loads(line)
            if logged.get("seconds") == seconds:
                runs.append(logged["metrics"])
    if not runs:
        print("tracing overhead: no untraced run of this workload and length "
              "logged in this checkout")
        return
    print(f"tracing overhead (traced minus median of {len(runs)} untraced runs):")
    for name, unit in END_TO_END.items():
        values = [r[name] for r in runs if name in r]
        if not values:
            print(f"  {name}: not in the logged runs")
            continue
        base = statistics.median(values)
        diff = traced[name] - base
        share = f" ({100 * diff / base:+.1f}%)" if base else ""
        print(f"  {name}: {traced[name]:.6g} - {base:.6g} = {diff:+.6g} {unit}{share}")


if __name__ == "__main__":
    sys.exit(main())
