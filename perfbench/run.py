#!/usr/bin/env python3
"""Benchmark of catalan-triangles, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Workloads (see workloads.py and README.md): sweep, scan, seq, falsify.
Every operation runs in a fresh interpreter at --jobs 1, because the
package keeps process-wide caches that a CLI user starts without.

--trace 0 repeats passes of the workload for --seconds (at least one) and
prints the end-to-end metrics of BENCHMARK.json, with every time scaled
to a fixed reference pace (pace.py) because a shared machine's pace swings.  --trace 1 runs one plain
pass, one pass under the per-layer tracer (tracer.py) and the --jobs 2
diagnostics, and prints the per-layer metrics.  Every output is checked;
the last line of stdout is the JSON result, and any failed operation makes
the exit code 1.  --size tiny runs every workload in seconds (self-test).
--record-digests rewrites expected.json from the code in src/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import pace
from workloads import SIZES, WORKLOADS, Op, diagnostics, make_plan, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1  # seed 2 is kept apart for confirming later claims (README.md)
PROBES = 3  # import-only processes before each pass, extra set-up samples
PACE_DUTY = 0.1  # reference time between two operations, as a share of the longer one
DEADLINE_S = 165.0

_NON_DIGITS = bytes(sorted(set(range(256)) - set(b"0123456789")))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("CATALAN_TRIANGLES_JOBS", None)
    return env


class Runner:
    """Runs operations in fresh interpreters and counts those that fail."""

    def __init__(self, workdir: str, digests: dict, deadline: float):
        self.workdir = workdir
        self.digests = digests
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.pacing: str | None = None  # the pace.py reference that brackets each operation
        self._last_wall: dict[str, float] = {}
        self._previous: dict | None = None  # the record still waiting for its closing samples

    def run(self, op, trace: int = 0, args: list[str] | None = None) -> dict | None:
        """One operation; its timings and layers, or None if it failed."""
        self.attempted += 1
        opening = self._pace_gap(self._last_wall.get(op.label, 0.0)) if self.pacing else []
        error, record = self._run(op, trace, args or op.args)
        if error is not None:
            self.failed += 1
            print("FAILED %s: %s" % (op.label, error), file=sys.stderr)
            return None
        self._last_wall[op.label] = record["wall"]
        if self.pacing:
            record["pace"] = opening
            self._previous = record
        return record

    def _pace_gap(self, upcoming: float) -> list[float]:
        """Reference samples between the previous operation and the next.

        The gap lasts PACE_DUTY times the longer of the two (the next one's
        wall time from its last pass, if any) and counts for both.
        """
        previous, self._previous = self._previous, None
        samples = pace.samples(self.pacing, PACE_DUTY * max(upcoming, previous["wall"] if previous else 0.0))
        if previous is not None:
            previous["pace"] += samples
        return samples

    def close_pace(self) -> None:
        """The closing samples of the last operation run."""
        if self._previous is not None:
            self._pace_gap(0.0)

    def _run(self, op, trace, args):
        result_path = os.path.join(self.workdir, "result.json")
        output_path = os.path.join(self.workdir, "stdout")
        if os.path.exists(result_path):
            os.remove(result_path)
        command = [sys.executable, os.path.join(HERE, "child.py"), result_path, str(trace)] + args
        with open(output_path, "wb") as stdout:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    command, stdout=stdout, stderr=subprocess.PIPE, env=self.env, cwd=self.workdir,
                    timeout=max(1.0, self.deadline - spawned),
                )
            except subprocess.TimeoutExpired:
                return "timed out", None
        with open(output_path, "rb") as fh:
            output = fh.read()
        if proc.returncode != 0:
            return "exit code %d: %s" % (proc.returncode, proc.stderr.decode(errors="replace")[-500:]), None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        try:
            error = op.verify(output, self.digests)
        except (ValueError, KeyError, TypeError) as exc:  # unparsable or misshapen output
            error = "output check raised %r" % exc
        if error is not None:
            return error, None
        return None, {
            "setup": result["imported"] - spawned,
            "wall": result["end"] - result["start"],
            "rss_mb": result["maxrss_kb"] / 1024.0,
            "cells": op.cells,
            "bytes": len(output),
            "digits": len(output.translate(None, _NON_DIGITS)),
            "cli": op.args[0] == "cli",
            "layers": result["layers"],
        }

    def run_pass(self, plan, index: int, trace: int = 0) -> list[dict] | None:
        """Every op of one pass in a fresh directory; None if any failed."""
        pass_dir = os.path.join(self.workdir, "pass-%d" % index)
        os.makedirs(pass_dir)
        try:
            records = [self.run(op, trace) for op in plan.ops(pass_dir)]
        finally:
            shutil.rmtree(pass_dir)
        return None if None in records else records


PROBE = Op("set-up probe", ["probe"], 0)


def measure(runner: Runner, plan, seconds: float) -> dict:
    """End-to-end metrics over as many passes as fit in seconds (at least one).

    The pace of a shared machine swings and differs between its CPUs, so
    the benchmark and its operations run on one CPU, and every time is taken
    in reference units (pace.py): divided by the mean of the reference
    samples timed on that CPU just before and just after the operation.
    The workload time is the sum over its operations of each one's median
    over the passes.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_fastest_cpu(allowed, plan.reference)})  # inherited by every operation
    runner.pacing = plan.reference
    try:
        return _measure(runner, plan, seconds)
    finally:
        runner.pacing = None
        os.sched_setaffinity(0, allowed)


def _fastest_cpu(allowed: set[int], reference: str) -> int:
    """The allowed CPU on which the reference runs fastest now, so not one
    that another busy process shares."""
    pace_on = {}
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        pace_on[cpu] = statistics.median(pace.samples(reference, 0.2))
    return min(pace_on, key=pace_on.get)


def _measure(runner: Runner, plan, seconds: float) -> dict:
    setups = []  # set-up times in reference units
    passes = []
    started = time.monotonic()
    longest = 0.0
    # Another pass only if one of average length still ends within seconds.
    while not passes or (
        time.monotonic() + (time.monotonic() - started) / len(passes) < started + seconds
        and time.monotonic() + longest < runner.deadline
    ):
        begun = time.monotonic()
        probes = [record for record in (runner.run(PROBE) for _ in range(PROBES)) if record]
        records = runner.run_pass(plan, len(passes))
        runner.close_pace()
        longest = max(longest, time.monotonic() - begun)
        if records is None:
            break
        for record in probes + records:
            record["pace"] = statistics.fmean(record["pace"])
            setups.append(record["setup"] / record["pace"])
        passes.append(records)
    if not passes:
        return {}
    units = sum(statistics.median(r["wall"] / r["pace"] for r in op) for op in zip(*passes))
    wall = units * pace.REFERENCE_S
    raw_wall = sum(statistics.median(r["wall"] for r in op) for op in zip(*passes))
    print("passes: %d, set-up samples: %d" % (len(passes), len(setups)))
    for index, records in enumerate(passes):
        print("  pass %d: %.4f s, %.2f reference units"
              % (index + 1, sum(r["wall"] for r in records), sum(r["wall"] / r["pace"] for r in records)))
    print("workload: %.2f reference units (%.4f s at the reference pace), %.4f s unscaled" % (units, wall, raw_wall))
    first = passes[0]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups) * pace.REFERENCE_S,
        "cells_per_s": sum(r["cells"] for r in first) / wall,
        "digits_per_s": sum(r["digits"] for r in first) / wall,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in rs) for rs in passes),
        "ok_ops_frac": 1.0 - runner.failed / runner.attempted,
    }


def _sum_layers(records: list[dict]) -> dict:
    total = {"calls": {}, "seconds": {}, "identity_seconds": {}, "counts": {}, "max_bits": {}, "missing": set()}
    for record in records:
        layers = record["layers"]
        for part in ("calls", "seconds", "identity_seconds", "counts"):
            for name, value in layers[part].items():
                total[part][name] = total[part].get(name, 0) + value
        for name, value in layers["max_bits"].items():
            total["max_bits"][name] = max(total["max_bits"].get(name, 0), value)
        total["missing"].update(layers["missing"])
    return total


def layer_metrics(records: list[dict], plain_wall: float, jobs_ratios: dict, names: list[str]) -> tuple[dict, list]:
    """The per-layer metrics named in names, from the traced pass's records."""
    t = _sum_layers(records)
    calls, seconds, counts = t["calls"], t["seconds"], t["counts"]
    metrics = {}
    for layer in ("exact.binomial", "exact.exact_div", "exact.harmonic", "triangles.entry", "triangles.catalan",
                  "conjectures.claim"):
        metrics[layer + ".calls"] = calls.get(layer, 0)
    for layer in ("exact.binomial", "exact.exact_div", "exact.harmonic", "triangles.entry", "triangles.catalan",
                  "triangles.seq_ab", "triangles.generate", "identities.verify", "identities.lhs", "identities.rhs",
                  "conjectures.scan", "conjectures.claim", "conjectures.checkpoint.save",
                  "conjectures.checkpoint.load", "conjectures.reverify", "cli.format"):
        metrics[layer + ".s"] = seconds.get(layer, 0.0)
    metrics["identities.compare.s"] = (
        metrics["identities.verify.s"] - metrics["identities.lhs.s"] - metrics["identities.rhs.s"]
    )
    cells = counts.get("identities.cells", 0) + counts.get("conjectures.cells", 0)
    metrics["triangles.entry.calls_per_cell"] = calls.get("triangles.entry", 0) / cells if cells else 0.0
    for name in ("identities.cells", "identities.mismatches", "conjectures.cells", "conjectures.counterexamples",
                 "conjectures.checkpoint.save.bytes"):
        metrics[name] = counts.get(name, 0)
    metrics["identities.max_operand_bits"] = t["max_bits"].get("identities", 0)
    metrics["conjectures.max_operand_bits"] = t["max_bits"].get("conjectures", 0)
    for name in names:  # identities.<id>.s
        if name not in metrics and name.startswith("identities.") and name.endswith(".s"):
            metrics[name] = t["identity_seconds"].get(name[len("identities."):-len(".s")], 0.0)
    metrics["cli.output.bytes"] = sum(r["bytes"] for r in records if r["cli"])
    metrics["trace.overhead_ratio"] = sum(r["wall"] for r in records) / plain_wall
    for layer, ratio in jobs_ratios.items():
        metrics[layer + ".jobs2_over_jobs1"] = ratio
    return metrics, sorted(t["missing"])


def trace(runner: Runner, plan, names: list[str]) -> tuple[dict, list[str]]:
    """One plain pass, one traced pass, then the --jobs 2 diagnostics."""
    plain = runner.run_pass(plan, 0)
    traced = runner.run_pass(plan, 1, trace=1)
    ratios = {}
    for layer, args in diagnostics(plan.size):
        op = Op("%s --jobs 2 diagnostic" % layer, args, 0, key="diagnostic " + " ".join(args[1:]))
        one, two = (runner.run(op, args=args + ["--jobs", jobs]) for jobs in ("1", "2"))
        if one and two:
            ratios[layer] = two["wall"] / one["wall"]
            print("  %s: %.4f s at --jobs 1, %.4f s at --jobs 2" % (op.label, one["wall"], two["wall"]))
    if plain is None or traced is None or len(ratios) < 2:
        return {}, []
    plain_wall = sum(r["wall"] for r in plain)
    print("plain pass %.4f s, traced pass %.4f s" % (plain_wall, sum(r["wall"] for r in traced)))
    return layer_metrics(traced, plain_wall, ratios, names)


def record_digests(runner: Runner) -> dict:
    """Digests of every seed-independent output, for expected.json."""
    output_path = os.path.join(runner.workdir, "stdout")
    digests = {}
    for size in SIZES:
        found = digests[size] = {}
        for workload in ("sweep", "scan", "seq"):
            pass_dir = os.path.join(runner.workdir, "record")
            os.makedirs(pass_dir)
            for op in make_plan(workload, DEFAULT_SEED, size).ops(pass_dir):
                runner.run(Op(op.label, op.args, op.cells, check=op.check))
                if op.key is not None:
                    with open(output_path, "rb") as fh:
                        found[op.key] = sha256(fh.read())
            shutil.rmtree(pass_dir)
        for _, args in diagnostics(size):
            runner.run(Op("diagnostic", args, 0), args=args + ["--jobs", "1"])
            with open(output_path, "rb") as fh:
                found["diagnostic " + " ".join(args[1:])] = sha256(fh.read())
    return digests


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    parts = []
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "catalan_triangles"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    parts.append(name.encode() + b"\0" + fh.read())
    return sha256(b"\0".join(parts))


def run_header(args) -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "gil": "enabled" if gil else "disabled",
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    # A terminated run still stops its child (subprocess.run kills it) and cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "catalan_triangles")):
        print("error: no package at %s; run from the root of a catalan-triangles checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    started = time.monotonic()
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        if args.record_digests:
            runner = Runner(workdir, {}, started + 10 * DEADLINE_S)
            digests = record_digests(runner)
            with open(EXPECTED, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print("wrote %s (%d failed operations)" % (EXPECTED, runner.failed))
            return 1 if runner.failed else 0

        with open(EXPECTED, encoding="utf-8") as fh:
            digests = json.load(fh)[args.size]
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        print(json.dumps({"run_header": run_header(args)}, sort_keys=True))
        runner = Runner(workdir, digests, started + DEADLINE_S)
        plan = make_plan(args.workload, args.seed, args.size)
        if args.trace:
            values, missing = trace(runner, plan, [m["name"] for m in declared["per_layer"]])
            if missing:
                print("names the tracer could not rebind: %s" % ", ".join(missing))
            wanted = declared["per_layer"]
        else:
            values = measure(runner, plan, args.seconds)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    ok = runner.failed == 0 and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(json.dumps({"correct": ok, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
