"""Benchmark launcher: one workload, one seed, one fresh process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload center --seed 1 --seconds 5 --trace 0

The run pins BLAS/OpenMP threads to 1, imports ``brpic`` from ``src/`` of
the checkout, times its set-up several times (``setup_s`` is the median
import into a fresh interpreter plus the median workload set-up), runs the
fixed job list once, then runs passes of the seeded query stream for
``--seconds`` seconds, checks every answer, and prints one JSON object as
the last line of standard output.  End-to-end times are reference seconds
(see ``speed.py``); the measured seconds are printed beside them.  With ``--trace 0`` it
reports the end-to-end metrics of an untraced run; with ``--trace 1`` it
wraps every layer's entry points and reports the per-layer metrics instead.
A human-readable table goes to standard error.  ``--record`` stores the job
digests of this run as the expected ones.

"""

import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# the benchmark's own modules, found next to this script
from layertrace import Tracer, calibrate, cyclo_probe, per_layer_metrics  # noqa: E402
from speed import Speed, fresh_import  # noqa: E402
from workloads import PROBE_GROUPS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

# set-up is timed as the median import into a fresh interpreter plus the
# median of the workload's own set-up repetitions
IMPORT_REPEATS = 3


def import_brpic():
    """Import brpic from this checkout's src/ and nowhere else."""
    if not (SRC / "brpic" / "__init__.py").is_file():
        raise SystemExit(f"error: no brpic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import brpic
    import brpic.cli  # noqa: F401  (not imported by the package itself)
    if Path(brpic.__file__).resolve().parent != SRC / "brpic":
        raise SystemExit(f"error: brpic imported from {brpic.__file__}")
    return brpic


def environment() -> dict:
    import numpy
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "brpic").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in PINNED},
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest_text(content) -> str:
    return hashlib.sha256(
        json.dumps(content, sort_keys=True).encode()).hexdigest()


class _Failed:
    """Marks a query that raised; never equal to an answer."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return f"<raised: {self.text.strip().splitlines()[-1]}>"


def run(workload, B, seed: int, seconds: float, tracer):
    """Set up, measure and check one workload; returns a result dict."""
    speed = Speed()
    speed.start()
    try:
        res = measure(workload, B, seed, seconds, tracer, speed)
    finally:
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
    return check(workload, B, seed, tracer, res)


def timed(speed, fn):
    """Run fn; returns (result, (measured s, reference s))."""
    mark = speed.mark()
    out = fn()
    dt = speed.seconds(mark)
    return out, (dt, dt * speed.factor(mark))


def measure(workload, B, seed, seconds, tracer, speed) -> dict:
    """Set-up repetitions, the job list, then query passes for ``seconds``.
    Times are (measured, reference) pairs."""
    imports = [fresh_import(SRC) for _ in range(IMPORT_REPEATS)]
    prepares = []
    for _ in range(workload.prepare_repeats):
        state, times = timed(speed, lambda: workload.prepare(B))
        prepares.append(times)

    res = {"failures": [], "out": {}, "jobs": {}, "latencies": [],
           "passes": 0, "queries": 0, "verified": 0, "accepted": 0,
           "stdout_bytes": 0}
    out = res["out"]
    if tracer is not None:
        tracer.install()
    for job in workload.jobs(B, state, out):
        def attempt(job=job):
            try:
                out[job.id] = job.run()
            except Exception:
                res["failures"].append(
                    f"job {job.id}: {traceback.format_exc(limit=3)}")
        res["jobs"][job.id] = timed(speed, attempt)[1]

    while True:
        rng = random.Random(f"{workload.name}:{seed}:{res['passes']}")
        queries = workload.queries(B, state, out, rng)
        values, lat = [], []
        pass_mark = speed.mark()
        for q in queries:
            mark = speed.mark()
            try:
                values.append(q.run())
            except Exception:
                values.append(_Failed(traceback.format_exc(limit=3)))
            lat.append(speed.seconds(mark))
        pass_s = speed.seconds(pass_mark)
        f = speed.factor(pass_mark)
        res["latencies"] += [(x, x * f) for x in lat]
        if res["passes"] == 0:
            res["wall"] = tuple(
                sum(t[i] for t in res["jobs"].values()) + pass_s * (1, f)[i]
                for i in (0, 1))
            queries_start = pass_mark[0]
            # the trace covers the same work as wall_s: jobs and one pass
            if tracer is not None:
                res["wrapper_calls"] = tracer.wrapper_calls()
                tracer.uninstall()
        check_pass(workload, queries, values, res)
        if not queries or time.perf_counter() - queries_start >= seconds:
            break
    res["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    res["setup"] = tuple(statistics.median(t[i] for t in imports)
                         + statistics.median(t[i] for t in prepares)
                         for i in (0, 1))
    return res


def check_pass(workload, queries, values, res) -> None:
    """Check one pass of queries as it ends; keep only the tallies."""
    if workload.check_pass is not None:
        oks = workload.check_pass(values)
    else:
        oks = [not isinstance(v, _Failed) and q.check(v)
               for q, v in zip(queries, values)]
    for q, v, ok in zip(queries, values, oks):
        if isinstance(v, bool):
            res["verified"] += 1
            res["accepted"] += v
        if (res["passes"] == 0 and isinstance(v, tuple) and v
                and isinstance(v[-1], str)):
            res["stdout_bytes"] += len(v[-1])
        if not ok:
            res["failures"].append(f"query on {q.group}: got {v!r}")
    res["passes"] += 1
    res["queries"] += len(queries)


def check(workload, B, seed, tracer, res) -> dict:
    """Digest checks and metrics, after timing, with no trace."""
    failures, out = res["failures"], res["out"]
    expected = load_expected().get(workload.name, {})
    digests = {}
    for job_id, result in out.items():
        digests[job_id] = digest_text(workload.digest(B, job_id, result))
        if expected.get(job_id) != digests[job_id]:
            failures.append(f"job {job_id}: digest {digests[job_id][:16]} "
                            f"!= expected {str(expected.get(job_id))[:16]}")

    def latency(i, q):
        values = [t[i] for t in res["latencies"]]
        return (statistics.median(values) if q == 50
                else percentile(values, q)) * 1e3

    result = {
        "attempted": len(res["jobs"]) + res["queries"],
        "failures": failures,
        "digests": digests,
        "job_times": {j: t[0] for j, t in res["jobs"].items()},
        "passes": res["passes"],
        "queries": res["queries"],
        "measured": {
            "wall_s": res["wall"][0],
            "query_p50_ms": latency(0, 50),
            "query_p95_ms": latency(0, 95),
            "setup_s": res["setup"][0],
        },
        "metrics": {
            "wall_s": (res["wall"][1], "s"),
            "query_p50_ms": (latency(1, 50), "ms"),
            "query_p95_ms": (latency(1, 95), "ms"),
            "setup_s": (res["setup"][1], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        },
    }
    if tracer is not None:
        mds = [out.get(f"modular_data:{name}")
               or B.modular_data(B.named_group(name)) for name in PROBE_GROUPS]
        probe = cyclo_probe(mds, seed)
        span_cost, count_cost = calibrate()
        spans, counts = res["wrapper_calls"]
        stdout_bytes = res["stdout_bytes"] + sum(
            len(v[1]) for job_id, v in out.items() if job_id.startswith("cli:"))
        verified = res["verified"]
        result["metrics"] = per_layer_metrics(
            tracer, res["accepted"] / verified if verified else 0.0,
            stdout_bytes, spans * span_cost + counts * count_cost, probe)
        result["metrics"]["trace.wall_s"] = (res["wall"][0], "s")
    return result


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's job digests as expected")
    args = parser.parse_args(argv)

    B = import_brpic()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    res = run(workload, B, args.seed, args.seconds,
              Tracer() if args.trace else None)

    if args.record:
        data = load_expected()
        data[workload.name] = dict(sorted(res["digests"].items()))
        EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        res["failures"] = [f for f in res["failures"] if "digest" not in f]

    failed = len(res["failures"])
    error_rate = failed / res["attempted"]
    err = sys.stderr
    for line in res["failures"]:
        print(f"FAILED {line}", file=err)
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} queries={res['queries']}", file=err)
    for job_id, dt in res["job_times"].items():
        print(f"  job {job_id:<32} {dt:9.3f} s", file=err)
    for name, (value, unit) in res["metrics"].items():
        measured = res["measured"].get(name)
        extra = "" if measured is None or args.trace else \
            f"   (measured {measured:.6g} {unit})"
        print(f"  {name:<32} {value:14.6g} {unit}{extra}", file=err)
    print(f"  {'error_rate':<32} {error_rate:14.6g} ratio", file=err)
    print(json.dumps({"environment": environment(),
                      "workload": workload.name, "seed": args.seed,
                      "trace": args.trace, "error_rate": error_rate,
                      "measured": res["measured"],
                      "job_measured_s": res["job_times"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
