"""Run every workload in fresh processes and print each metric by name.

Usage, from the root of a checkout:

    python3 benchmarks/report.py                      # seed 1, all workloads
    python3 benchmarks/report.py --seeds 1 2 3 4 5    # spread over seeds
    python3 benchmarks/report.py --trace              # also the traced run

For each workload it prints ``wall_s``, ``query_p50_ms``, ``query_p95_ms``,
``setup_s``, ``peak_rss_mb`` and ``error_rate`` with their units: the median
over the seeds, and with several seeds the spread (distance between the
first and third quartile as a share of the median) next to the metric's
bound from ``BENCHMARK.json``.  With ``--trace`` it also runs each seed
traced, prints the per-layer metrics, ranks the layers by self time, and
prints the measured trace overhead (traced minus untraced ``wall_s``, both
in measured seconds).
Runs go one after another, each in its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIME_LAYERS = ("groups", "chars", "center", "cohom", "zmodlin",
                    "autoeq", "fpn", "cli")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit code {proc.returncode}")
    for line in proc.stderr.splitlines():
        if line.startswith("FAILED"):
            sys.stderr.write(f"{workload} seed {seed}: {line}\n")
    info, result = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    result["measured"] = json.loads(info).get("measured", {})
    return result


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="*", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        print(f"== {workload}  seeds {args.seeds}")
        print(f"  {'metric':<28} {'median':>12} {'unit':<6} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<28} {statistics.median(vals):12.5g} {unit:<6} "
                  f"{spread(vals):8.3f} {bound:6.2f}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {'error_rate':<28} {failed / attempted:12.5g} ratio  "
              f"({failed} of {attempted} failed)")
        if not args.trace:
            continue
        traced = [run_once(workload, s, args.seconds, 1) for s in args.seeds]
        for name in traced[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in traced]
            unit = traced[0]["metrics"][name]["unit"]
            print(f"  {name:<28} {statistics.median(vals):12.5g} {unit}")
        ranked = sorted(SELF_TIME_LAYERS, key=lambda layer: -statistics.median(
            r["metrics"][f"{layer}.self_s"]["value"] for r in traced))
        print(f"  layers by self time: {', '.join(ranked)}")
        measured = statistics.median(
            t["metrics"]["trace.wall_s"]["value"] - u["measured"]["wall_s"]
            for t, u in zip(traced, runs))
        print(f"  {'trace overhead (measured)':<28} {measured:12.5g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
