"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest perfbench

They check that two traced runs of one seed give identical counts, that
another seed changes the job list but not the set of metric names, and that
every metric name and unit stays in the alphabet BENCHMARK.json allows.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (first: it puts the package source on sys.path)
import jobs  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# one cheap job of each kind, together reaching every layer of the workload
CHEAP_KINDS = {
    "model-roundtrip": ("roundtrip-16", "reproducing-0.5"),
    "spectral-kernel": ("kernel-0.3", "spectral"),
    "cli-session": ("cli-classify-16", "cli-kernel", "cli-verify", "cli-malformed"),
}


def cheap_jobs(workload: str, seed: int) -> list[jobs.Job]:
    work = jobs.WORKLOADS[workload](seed)
    return [next(job for job in work.jobs if job.kind == kind) for kind in CHEAP_KINDS[workload]]


def counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items() if tracing.LAYER_METRICS[name] == "count"}


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    eval_phi = jobs.operators.eval_phi
    first = run.traced_round(cheap_jobs(workload, 7), tracing.Tracer())[1]
    second = run.traced_round(cheap_jobs(workload, 7), tracing.Tracer())[1]
    assert counts(first) == counts(second)
    assert first["symbols.phi_calls"] > 0
    assert jobs.operators.eval_phi is eval_phi  # uninstall restored the library


def test_seed_changes_jobs_but_not_metric_names():
    for build in jobs.WORKLOADS.values():
        one, two = build(1), build(2)
        assert [job.label for job in one.jobs] != [job.label for job in two.jobs]
        assert sorted(job.kind for job in one.jobs) == sorted(job.kind for job in two.jobs)
    names = []
    for seed in (1, 2):
        job_list = cheap_jobs("cli-session", seed)
        cal = [run.calibrate() for _ in job_list]
        end_to_end = run.end_to_end([run.run_job(job) for job in job_list], cal, [0.5])
        per_layer = run.traced_round(job_list, tracing.Tracer())[1]
        names.append((set(end_to_end), set(per_layer)))
    assert names[0] == names[1]
    assert names[0][0] == {m["name"] for m in SPEC["end_to_end"]}
    assert names[0][1] == {m["name"] for m in SPEC["per_layer"]}


def test_metric_names_and_units_are_allowed():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    for name, unit in {**run.END_TO_END_UNITS, **tracing.LAYER_METRICS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"]) and workload["name"] in jobs.WORKLOADS


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
