"""Self-test of the benchmark at tiny sizes: python3 -m pytest perfbench

Shows that every workload passes its correctness gate on the current code,
that the gate fails on a corrupted stored digest and on a wrong
perturbation count, that traced counts repeat exactly, and that the
command refuses to run without the program.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def result(*args):
    proc, lines = bench(*args)
    assert proc.returncode == 0, proc.stderr
    header = json.loads(lines[0])["run_header"]
    assert header["seed"] == 1 and header["int_max_str_digits"] == 4300
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_and_prints_every_metric(workload):
    plain = result("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "tiny")
    assert (plain["correct"], plain["failed"]) == (True, 0)
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = result("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1", "--size", "tiny")
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_traced_counts_repeat_exactly():
    def counts():
        metrics = result("--workload", "falsify", "--seed", "1", "--seconds", "0", "--trace", "1",
                         "--size", "tiny")["metrics"]
        return {name: m["value"] for name, m in metrics.items() if not name.endswith((".s", "_ratio", "jobs1"))}

    first = counts()
    assert first["identities.mismatches"] > 0 and first["conjectures.checkpoint.save.bytes"] > 0
    assert counts() == first


@pytest.fixture
def runner(tmp_path):
    with open(run.EXPECTED, encoding="utf-8") as fh:
        digests = json.load(fh)["tiny"]
    return run.Runner(str(tmp_path), digests, time.monotonic() + 120)


def test_gate_passes_unchanged_plans(runner):
    for workload in workloads.WORKLOADS:
        assert runner.run_pass(workloads.make_plan(workload, 1, "tiny"), 0) is not None
    assert runner.failed == 0


def test_gate_fails_on_a_corrupted_digest(runner):
    plan = workloads.make_plan("sweep", 1, "tiny")
    op = plan.ops(runner.workdir)[0]
    runner.digests = dict(runner.digests, **{op.key: "0" * 64})
    assert runner.run_pass(plan, 0) is None
    assert runner.failed == 1


def test_gate_fails_on_a_wrong_mismatch_count(runner):
    plan = workloads.make_plan("falsify", 1, "tiny")
    plan.expected["mismatches"]["thm-harmonic"].pop()
    assert runner.run_pass(plan, 0) is None
    assert runner.failed == 1


def test_gate_fails_on_a_wrong_counterexample_count(runner):
    plan = workloads.make_plan("falsify", 1, "tiny")
    plan.expected["counterexamples"].append((21, 1))
    assert runner.run_pass(plan, 0) is None
    assert runner.failed == 1


def test_pace_samples_bracket_every_operation(runner):
    plan = workloads.make_plan("seq", 1, "tiny")
    runner.pacing = plan.reference
    records = runner.run_pass(plan, 0)
    runner.close_pace()
    # one gap before each operation and one after the last, each shared
    assert all(len(record["pace"]) >= 2 for record in records)
    assert sum(len(record["pace"]) for record in records) >= 2 * len(records)


def test_sweep_outputs_concatenate_to_verify_all(runner):
    plan = workloads.make_plan("sweep", 1, "tiny")
    proc = subprocess.run(
        [sys.executable, "-m", "catalan_triangles", "verify", "all", "--max", "8", "--no-timing", "--jobs", "1"],
        env=runner.env, capture_output=True, check=True,
    )
    outputs = []
    for op in plan.ops(runner.workdir):
        assert runner.run(op) is not None
        with open(os.path.join(runner.workdir, "stdout"), "rb") as fh:
            outputs.append(fh.read())
    assert b"".join(outputs) == proc.stdout


def test_seed_changes_the_generated_inputs():
    one, two = (workloads.make_plan("falsify", seed, "tiny").expected for seed in (1, 2))
    assert one["counterexamples"] != two["counterexamples"]
    assert workloads.leg_sizes(random.Random(1), 7140, 6) != workloads.leg_sizes(random.Random(2), 7140, 6)
    for seed in range(20):
        sizes = workloads.leg_sizes(random.Random(seed), 19, 4)
        assert sum(sizes) == 19 and min(sizes) >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any('"correct"' in line for line in lines)
