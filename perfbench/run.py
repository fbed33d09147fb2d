"""Benchmark of wtsemigroup: one seeded workload, one client, closed loop.

    python3 perfbench/run.py --workload model-roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The workload's batches of jobs (jobs.py) run in turn, round after round,
each job only after the previous one has finished, until --seconds have
passed and at least MIN_JOBS jobs have run; a run stops between batches.
Every job's result is checked.

--trace 0 prints the end-to-end metrics, with job times scaled to a
reference machine speed that calibrate() measures before each job (see
CAL_REF_S).
--trace 1 prints the per-layer metrics of one traced round (tracing.py),
whose counts repeat exactly for a seed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn and prints a table.
"""

import os

# one client, one thread: keep BLAS and OpenMP pools from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "wtsemigroup" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source under {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import jobs  # noqa: E402
import tracing  # noqa: E402

MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
TIME_CAP_S = 140.0  # start no batch that would end past this
SETUP_SAMPLES = 5  # fresh processes timed for setup_s
SPAN_DIR = BENCH_DIR / "out"

# Median time of calibrate() on the machine where the benchmark was defined
# (2 shared vCPUs at 2.0 GHz). There the speed of one and the same job
# drifted by up to 20% within seconds and between runs, from other load on
# the host, and calibrate() follows that drift. Each job's time is divided by
# its local slowness, the median calibrate() time of the CAL_WINDOW jobs on
# either side over CAL_REF_S, so that the drift does not read as a change of
# the program. calibrate() touches no package code.
CAL_REF_S = 9.0e-3
CAL_WINDOW = 5
_CAL_SMALL = np.linspace(0.0, 1.0, 2048)
_CAL_SORT = np.random.default_rng(0).random(8192)

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float  # the job call alone; its check is not timed
    failure: Optional[str]  # None when the job passed its check
    wrong: bool  # returned a result that failed its check
    exit_mismatch: bool  # a cli.main job raised or returned another exit code


def calibrate() -> float:
    """Seconds taken by fixed work shaped like the package's: a pure-Python
    series loop, numpy calls on one-element and 2048-element arrays between
    Python arithmetic, and the sort, unique and searchsorted of step-function
    algebra."""
    t0 = time.perf_counter()
    acc = 0.0
    q = complex(0.6, 0.3)
    for i in range(5000):
        acc += abs(complex(1.0 / (1.0 + i)) * q ** (i % 40))
    for i in range(100):
        acc += float(np.sqrt((_CAL_SMALL + i) / (_CAL_SMALL + 1.0))[i]) * 0.5 + i
    for i in range(250):
        a = np.asarray([i * 0.5])
        if np.any(a < 0):
            break
        acc += float(np.sqrt(a / (a + 1.0))[0])
    for i in range(3):
        np.searchsorted(np.unique(np.concatenate([_CAL_SORT, _CAL_SORT + 0.5 * i])), _CAL_SORT)
    return time.perf_counter() - t0


def local_slowness(calibration: list[float]) -> np.ndarray:
    """Per sample: median calibration time within CAL_WINDOW samples, over CAL_REF_S."""
    cal = np.asarray(calibration)
    return np.array(
        [np.median(cal[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1]) for i in range(cal.size)]
    ) / CAL_REF_S


def run_job(job: jobs.Job, tracer: Optional[tracing.Tracer] = None) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a job that raises has failed; count it and go on
        seconds = time.perf_counter() - t0
        reason = f"raised {type(exc).__name__}: {exc}"
        return Outcome(job.label, seconds, reason, False, job.expect_exit is not None)
    seconds = time.perf_counter() - t0
    if job.expect_exit is not None:
        code, result = result
        if code != job.expect_exit:
            return Outcome(job.label, seconds, f"exit code {code}, expected {job.expect_exit}", True, True)
    was_active = tracer is not None and tracer.active
    if was_active:
        tracer.active = False  # the check's own library calls are not the job's work
    try:
        reason = job.check(result)
    except Exception as exc:  # a malformed result fails its check
        reason = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if was_active:
            tracer.active = True
    return Outcome(job.label, seconds, reason, reason is not None, False)


def run_batches(
    work: jobs.Workload, seconds: float, calibration: list[float], time_cap: float = TIME_CAP_S
) -> list[Outcome]:
    """Whole batches, cycling through the round, until `seconds` have passed
    and MIN_JOBS have run. An untimed calibration sample precedes each job."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for batch in itertools.cycle(work.batches):
        batch_start = time.perf_counter()
        for job in batch:
            calibration.append(calibrate())
            outcomes.append(run_job(job))
        now = time.perf_counter()
        if now - start >= seconds and len(outcomes) >= MIN_JOBS:
            break
        if now - start + (now - batch_start) > time_cap:
            break
    return outcomes


def setup(workload: str, seed: int) -> jobs.Workload:
    """Symbol parsing, input generation and one warm-up job."""
    work = jobs.WORKLOADS[workload](seed)
    run_job(work.warmup)
    return work


def time_setups(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of fresh processes that import, set up and stop before the first timed job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def jobs_per_s(outcomes: list[Outcome]) -> float:
    return len(outcomes) / sum(o.seconds for o in outcomes)


def end_to_end(outcomes: list[Outcome], calibration: list[float], setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics; job times are scaled by their local slowness.

    setup_s is not: it is mostly process start and imports, which the
    calibration samples taken between set-up processes did not follow.
    """
    raw_ms = np.array([o.seconds * 1e3 for o in outcomes])
    latencies_ms = list(raw_ms / local_slowness(calibration))
    print(f"unscaled: jobs_per_s {len(raw_ms) / raw_ms.sum() * 1e3:.6g}  job_p50_ms {np.median(raw_ms):.6g}  "
          f"slowness {np.median(calibration) / CAL_REF_S:.4f}")
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(latencies_ms) / sum(latencies_ms) * 1e3,
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "ok_ratio": sum(o.failure is None for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_round(job_list: list[jobs.Job], tracer: tracing.Tracer) -> tuple[list[Outcome], dict[str, float]]:
    """One untraced round for the baseline rate, then the same round traced."""
    baseline = [run_job(job) for job in job_list]
    tracer.install()
    tracer.active = True
    try:
        traced = [run_job(job, tracer) for job in job_list]
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["cli.exit_mismatch"] = sum(o.exit_mismatch for o in traced)
    metrics["trace.jobs_per_s_untraced"] = jobs_per_s(baseline)
    metrics["trace.jobs_per_s_traced"] = jobs_per_s(traced)
    metrics["trace.slowdown"] = metrics["trace.jobs_per_s_untraced"] / metrics["trace.jobs_per_s_traced"]
    return traced, metrics


def report(outcomes: list[Outcome], metrics: dict[str, float], units: dict[str, str]) -> dict:
    failures = Counter((o.label, o.failure) for o in outcomes if o.failure is not None)
    for (label, reason), count in sorted(failures.items()):
        print(f"FAILED x{count}  {label}: {reason}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6g} {units[name]}")
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one table; nonzero if any is incorrect."""
    status = 0
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:<30} {metric['value']:>16.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*jobs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.trace:
        work = setup(args.workload, args.seed)
        tracer = tracing.Tracer()
        outcomes, metrics = traced_round(work.jobs, tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{args.workload}.npz")
        result = report(outcomes, metrics, tracing.LAYER_METRICS)
    else:
        setup_times = time_setups(args.workload, args.seed)
        work = setup(args.workload, args.seed)
        calibration: list[float] = []
        outcomes = run_batches(work, args.seconds, calibration)
        metrics = end_to_end(outcomes, calibration, setup_times)
        result = report(outcomes, metrics, END_TO_END_UNITS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
