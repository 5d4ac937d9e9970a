"""Benchmark of the ghfp library: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The library is driven in-process from one thread, in a closed loop with one
client: a job starts when the previous one has been checked.  The loop runs
whole rounds of jobs (see workloads.py) until --seconds have passed and at
least MIN_JOBS jobs ran.  After every job a fixed reference computation
that does not touch ghfp is timed, and the end-to-end timings are scaled by
the host's speed on it (see job_metrics).  With --trace 0 the last line
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries
the per-layer metrics, from a run that traces every other round so that the
untraced rounds give the tracing overhead.  --smoke runs every workload on
tiny inputs and checks the metric names and that a wrong expected value is
caught.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

# At least four runs of each of the 25 kinds of a round, so that the three
# kinds beyond p90 stand for at least twelve jobs.
MIN_JOBS = 100
# Time of reference() on the machine the bounds were set on (2-vCPU
# shared host, Python 3.11, numpy 2.4); timings are scaled to it.
REFERENCE_S = 0.004
HARD_STOP_S = 140.0  # leaves room for set-up inside the 180 s limit
SETUP_REPEATS = 5

# Spans recorded around calls into each module; see README.md for the
# end-to-end metric and workload each one should move.
LAYER_SPANS = [
    "fields.Field",
    "groups.construct",
    "planar.planar_coboundary",
    "ghmatrix.construct",
    "cocycles.tensor",
    "codes.GHCode",
    "codes.rank",
    "codes.kernel",
    "codes.p_kernel",
    "codes.min_distance",
    "fileio.write",
    "fileio.read_coc",
    "fileio.read_ghm",
    "cocycles.is_orthogonal",
    "ghmatrix.is_gh",
    "extension.transversal_rds_check",
    "propelinear.PropelinearCode",
    "propelinear.verify_full_propelinear",
    "propelinear.group_invariants",
    "extension.cocycle_from_code",
    "extension.fh_intersection_profile",
    "extension.coset_zero_sets",
    "monomial.automorphisms_from_star",
]
ROOT_SPANS = ["setup", "job"]
COMPUTED_COUNTS = [
    "codes.rank.rows",
    "cocycles.identity.triples",
    "ghmatrix.is_gh.row_pairs",
    "extension.fh_intersection_profile.codewords",
    "monomial.automorphisms_from_star.pairs",
]


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def setup(name, tr, workdir, tiny, sabotage):
    """Build the workload's inputs, then warm up on one tiny round of every
    workload, which also touches every layer once so that no span is empty."""
    import numpy as np
    from workloads import WORKLOADS

    wl = tr.call("setup", WORKLOADS[name], tr, workdir, tiny=tiny,
                 sabotage=sabotage)
    for other, cls in WORKLOADS.items():
        warm = cls(tr, workdir, tiny=True)
        for job in warm.round(np.random.default_rng(0), 0):
            tr.job = f"warmup.{other}.{job.id}"
            error = warm.check(job, tr.call("job", warm.run, job, tr))
            if error:
                raise RuntimeError(f"warm-up {other} {job.label}: {error}")
    tr.job = "setup"
    return wl


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path, import_s: float, tiny: bool = False,
                 sabotage: bool = False, min_jobs: int = MIN_JOBS,
                 trace_path=None) -> dict:
    import numpy as np

    from tracing import Tracer

    tr = Tracer()
    setup_times = []
    setup_refs = [timed(reference)]
    for rep in range(SETUP_REPEATS):
        tr.enabled = traced and rep == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        wl = setup(name, tr, workdir, tiny, sabotage)
        setup_times.append(time.perf_counter() - t0)
        setup_refs.append(timed(reference))

    # (job kind, or None when the job failed; seconds of the job; seconds
    # of reference() right after it), in run order
    samples = []
    attempted = failed = 0
    # per round: (traced, verified jobs, seconds)
    rounds = []
    start = time.perf_counter()
    r = 0
    while True:
        traced_round = traced and r % 2 == 1
        tr.enabled = traced_round
        round_t0 = time.perf_counter()
        verified = 0
        for job in wl.round(np.random.default_rng([seed, r]), r):
            attempted += 1
            tr.job = job.id
            t0 = time.perf_counter()
            try:
                out = tr.call("job", wl.run, job, tr)
                dt = time.perf_counter() - t0
                error = wl.check(job, out)
            except Exception:  # a job that raises is a failed job
                dt = time.perf_counter() - t0
                error = traceback.format_exc(limit=3)
            samples.append((None if error else job.kind, dt,
                            timed(reference)))
            if error:
                failed += 1
                print(f"FAILED job {job.id} {job.label}: {error}",
                      file=sys.stderr)
                continue
            verified += 1
        rounds.append((traced_round, verified,
                       time.perf_counter() - round_t0))
        r += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and attempted >= min_jobs) \
                or elapsed >= HARD_STOP_S:
            break
    tr.enabled = False

    if traced:
        metrics = layer_metrics(tr, rounds, samples)
        if trace_path is not None:
            tr.write(trace_path, {"workload": name, "seed": seed,
                                  "environment": environment()})
    else:
        print(f"host reference {reference_median(samples) * 1e3:.3f} ms "
              f"({REFERENCE_S * 1e3:g} nominal); imports "
              f"{import_s:.3f} s; set-ups "
              + " ".join(f"{t:.3f}" for t in setup_times) + " s",
              file=sys.stderr)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = job_metrics(samples)
        # set-up scaled to a host of reference speed, like the job times
        metrics["setup_s"] = ((import_s + min(setup_times)) * REFERENCE_S
                              / lower_quartile(setup_refs), "s")
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def percentile(values, p: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference():
    """Fixed work that calls nothing in ghfp, in the two styles the library's
    hot paths are written in: a Python loop over ints and a dict, and small
    numpy array operations.  It takes about 4 ms."""
    import numpy as np

    d = {}
    for i in range(10000):
        d[i & 1023] = d.get((i * 7) & 1023, 0) + i * i % 7
    a = np.arange(4096, dtype=np.int64)
    for _ in range(100):
        a = (a * 5 + 3) % 4099
    return d, a


def reference_median(samples: list) -> float:
    return statistics.median(ref for _, _, ref in samples)


def lower_quartile(values) -> float:
    return sorted(values)[len(values) // 4]


def job_metrics(samples: list) -> dict:
    """jobs_per_s, job_p50_ms and job_p90_ms on a host of reference speed.

    Other tenants of the host slow its CPU by up to 2x, in bursts shorter
    than a job and in phases longer than a run, and they slow the jobs more
    than the short reference() calls.  Each kind runs once per round on
    fresh seeded inputs; its fastest run is its time on a quiet host, and
    the lower quartile of the run's reference() times is the host's quiet
    speed.  Each kind's time is their ratio times REFERENCE_S.  jobs_per_s
    is the number of kinds over the sum of these times, the rate of a round;
    the percentiles are over the kinds.
    """
    scale = REFERENCE_S / lower_quartile([ref for _, _, ref in samples])
    fastest = {}
    for kind, dt, _ in samples:
        if kind is not None:
            fastest[kind] = min(dt, fastest.get(kind, dt))
    # no verified job at all: the run is reported incorrect, timings NaN
    typical = [dt * scale for dt in fastest.values()] or [float("nan")]
    return {
        "jobs_per_s": (len(typical) / sum(typical), "jobs/s"),
        "job_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "job_p90_ms": (percentile(typical, 0.9) * 1e3, "ms"),
    }


def rate(rounds, traced: bool) -> float:
    """Verified jobs per second of wall time over the (un)traced rounds."""
    jobs = sum(n for t, n, _ in rounds if t == traced)
    seconds = sum(s for t, _, s in rounds if t == traced)
    return jobs / seconds if seconds else 0.0


def layer_metrics(tr, rounds, samples) -> dict:
    summary = tr.summary()
    out = {}
    for name in ROOT_SPANS + LAYER_SPANS:
        row = summary.get(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.busy_ms"] = (row["busy_ms"], "ms")
        if name in ROOT_SPANS:
            out[f"{name}.self_ms"] = (row["self_ms"], "ms")
    for name in COMPUTED_COUNTS:
        out[name] = (tr.counts.get(name, 0), "count")
    untraced, traced = rate(rounds, False), rate(rounds, True)
    out["trace.untraced_jobs_per_s"] = (untraced, "jobs/s")
    out["trace.traced_jobs_per_s"] = (traced, "jobs/s")
    out["trace.overhead_jobs_per_s"] = (untraced - traced, "jobs/s")
    out["host.reference_ms"] = (reference_median(samples) * 1e3, "ms")
    return out


def print_summary(name: str, result: dict) -> None:
    env = environment()
    print(f"workload {name}: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']}")
    attempted, failed = result["attempted"], result["failed"]
    for key, m in result["metrics"].items():
        note = ""
        if key == "job_p90_ms":
            note = f"  ({attempted - failed} verified jobs)"
        print(f"  {key:<50} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<50} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} jobs)")


def smoke(workdir: Path, import_s: float) -> int:
    """Tiny run of every workload: metric names match BENCHMARK.json and a
    wrong expected value is reported as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in workloads:
        for traced in (False, True):
            res = run_workload(name, 1, 0.0, traced, workdir, import_s,
                               tiny=True, min_jobs=1)
            got = list(res["metrics"])
            if got != names[traced]:
                problems.append(f"{name} trace={int(traced)}: metrics {got}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={int(traced)}: {res['failed']} "
                                f"failed jobs on correct expectations")
        res = run_workload(name, 1, 0.0, False, workdir, import_s,
                           tiny=True, sabotage=True, min_jobs=1)
        if res["failed"] == 0 or res["correct"]:
            problems.append(f"{name}: a wrong expected value went unnoticed")
        print(f"smoke {name}: {res['failed']} of {res['attempted']} jobs "
              f"failed under a wrong expected value", file=sys.stderr)
    for p in problems:
        print(f"SMOKE FAILURE {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["fingerprint", "ingest", "structure"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    if not (ROOT / "src" / "ghfp" / "__init__.py").is_file():
        print(f"ghfp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one thread: nothing in the library should fan out to a BLAS pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import workloads  # noqa: F401  (imports ghfp)

    import_s = time.perf_counter() - PROCESS_T0
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR, prefix="jobs-") as tmp:
        if args.smoke:
            return smoke(Path(tmp), import_s)
        trace_path = None
        if args.trace:
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), Path(tmp), import_s,
                              trace_path=trace_path)
    print_summary(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
