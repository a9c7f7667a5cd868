"""The four workloads: which operations each runs and how each is checked.

Every operation runs in a fresh interpreter (child.py).  Outputs whose
bytes do not depend on the seed are compared with digests stored in
expected.json from the seed commit.  Outputs that do depend on it (scan
legs, falsify) are compared with what this module derives from the
inputs it generated, never with another run of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

WORKLOADS = ("sweep", "scan", "seq", "falsify")

SCAN_P = 7
SCAN_LEGS = 4
FALSIFY_LEGS = 6
PERTURBED_SHARE = 0.5

# "full" is what the benchmark measures; "tiny" runs every workload in a
# few seconds for the self-test.  The largest seq term (catalan(1500)) has
# about 900 digits, under CPython's default 4300-digit int-to-str limit.
SIZES = {
    "full": {
        "verify": [],
        "scans": [("c-powers", "m", (2, 200)), ("b-cubes", "n", (1, 300)), ("a-cubes", "n", (1, 300))],
        "seqs": [
            ["c-row:2000", "0", "2001"],
            ["c-row:2500", "1000", "3"],
            ["b-row:1500", "1", "1500"],
            ["a-row:1200", "1", "1201", "--format", "json"],
            ["catalan", "0", "1500", "--format", "oeis-bfile"],
            ["gen-catalan:5", "1", "800", "--format", "csv"],
            ["a", "0", "300", "--format", "plain-table"],
            ["b", "1", "300"],
        ],
        "falsify_cap": 30,
        "falsify_m": (2, 120),
        "diag_verify": ["--max", "30"],
        "diag_scan_m": (2, 120),
    },
    "tiny": {
        "verify": ["--max", "8"],
        "scans": [("c-powers", "m", (2, 20)), ("b-cubes", "n", (1, 20)), ("a-cubes", "n", (1, 20))],
        "seqs": [
            ["c-row:60", "0", "61"],
            ["c-row:80", "30", "3"],
            ["b-row:50", "1", "50"],
            ["a-row:40", "1", "41", "--format", "json"],
            ["catalan", "0", "50", "--format", "oeis-bfile"],
            ["gen-catalan:5", "1", "20", "--format", "csv"],
            ["a", "0", "15", "--format", "plain-table"],
            ["b", "1", "15"],
        ],
        "falsify_cap": 8,
        "falsify_m": (2, 20),
        "diag_verify": ["--max", "8"],
        "diag_scan_m": (2, 20),
    },
}

_SCAN_VARIANTS = {"c-powers": "c", "b-cubes": "b", "a-cubes": "a"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One operation: child.py arguments, the cells it covers, its checks.

    key names the stored digest its output must match (None when the
    output depends on the seed); check returns an error message or None.
    """

    label: str
    args: list[str]
    cells: int
    key: str | None = None
    check: Callable[[bytes], str | None] | None = None

    def verify(self, output: bytes, digests: dict) -> str | None:
        if self.key is not None:
            if self.key not in digests:
                return "no stored digest for %r" % self.key
            if sha256(output) != digests[self.key]:
                return "output digest differs from the seed commit's"
        return self.check(output) if self.check is not None else None


def admissible_cells(ident, cap: int) -> list[tuple[int, ...]]:
    """The cells a sweep capped at cap visits, from the descriptor's domain."""
    names = ident.parameter_names()
    spans = [range(param.minimum, cap + 1) for param in ident.parameters]
    return [
        cell
        for cell in product(*spans)
        if ident.constraint is None or ident.constraint(**dict(zip(names, cell)))
    ]


def divisibility_cells(variant: str, bounds: tuple[int, int]) -> list[tuple[int, ...]]:
    """The scan domain in frontier order: (m, n) with 1 <= n < m, or (n,)."""
    lo, hi = bounds
    if variant == "c":
        return [(m, n) for m in range(max(lo, 2), hi + 1) for n in range(1, m)]
    return [(n,) for n in range(max(lo, 1), hi + 1)]


def leg_sizes(rng: random.Random, total: int, legs: int) -> list[int]:
    """legs positive sizes summing to total, each near total/legs.

    The cuts move by at most a quarter of a leg, so the seed changes where
    checkpoints fall but hardly how much work they cost.
    """
    jitter = total // (4 * legs)
    cuts = [0]
    for i in range(1, legs):
        cut = round(i * total / legs) + rng.randint(-jitter, jitter)
        cuts.append(min(max(cut, cuts[-1] + 1), total - (legs - i)))
    cuts.append(total)
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _cli(*argv: str) -> list[str]:
    return ["cli", *argv]


def _field_errors(doc: dict, expected: dict) -> str | None:
    wrong = sorted(name for name, value in expected.items() if doc.get(name) != value)
    return "fields %s differ from %s" % (wrong, {name: expected[name] for name in wrong}) if wrong else None


@dataclass
class Plan:
    """A workload at one seed and size; ops(workdir) builds one pass."""

    seed: int
    size: str
    ops: Callable[[str], list[Op]]
    reference: str = "powers"  # the pace.py computation its times are scaled by
    expected: dict = field(default_factory=dict)


def diagnostics(size: str) -> list[tuple[str, list[str]]]:
    """Runs repeated at --jobs 1 and 2 for the jobs2_over_jobs1 ratios."""
    sizes = SIZES[size]
    lo, hi = sizes["diag_scan_m"]
    return [
        ("identities", _cli("verify", "all", *sizes["diag_verify"], "--no-timing")),
        ("conjectures", _cli("scan", "c-powers", "--p", str(SCAN_P), "--m", "%d..%d" % (lo, hi), "--no-timing")),
    ]


def _sweep(plan: Plan, registry) -> None:
    # One `verify <id>` process per identity rather than one `verify all`:
    # the benchmark scales each operation's time by the machine's pace
    # measured around it, which tracks an operation of a few seconds but
    # not one of ten.
    sizes = SIZES[plan.size]
    cap = int(sizes["verify"][1]) if sizes["verify"] else None
    ops = []
    for ident in registry:
        argv = ["verify", ident.id, *sizes["verify"], "--no-timing"]
        cells = len(admissible_cells(ident, cap or ident.default_cap))
        ops.append(Op("verify " + ident.id, _cli(*argv, "--jobs", "1"), cells, key=" ".join(argv)))
    plan.ops = lambda workdir: ops


def _scan_text(variant: str, done: int, frontier) -> bytes:
    """The CLI's plain --no-timing report of a clean scan after done cells."""
    text = "divisibility-%s p=%d: %d cells processed, 0 counterexamples\n" % (variant, SCAN_P, done)
    if frontier is not None:
        text += "  incomplete, next cell: %s\n" % (list(frontier),)
    return text.encode()


def _scan(plan: Plan) -> None:
    rng = random.Random("%d:scan" % plan.seed)
    scans = []
    for name, flag, bounds in SIZES[plan.size]["scans"]:
        variant = _SCAN_VARIANTS[name]
        cells = divisibility_cells(variant, bounds)
        scans.append((name, variant, flag, bounds, cells, leg_sizes(rng, len(cells), SCAN_LEGS)))

    def ops(workdir: str) -> list[Op]:
        result = []
        for name, variant, flag, bounds, cells, legs in scans:
            checkpoint = os.path.join(workdir, name + ".json")
            domain = ["scan", name, "--p", str(SCAN_P), "--" + flag, "%d..%d" % bounds]
            done = 0
            for index, size in enumerate(legs):
                done += size
                final = index == len(legs) - 1
                expected = _scan_text(variant, done, None if final else cells[done])
                argv = domain + ["--checkpoint", checkpoint, "--limit", str(size), "--no-timing"]
                result.append(
                    Op(
                        "%s leg %d" % (name, index + 1),
                        _cli(*argv, "--jobs", "1"),
                        size,
                        key=" ".join(domain) + " (final leg)" if final else None,
                        check=lambda output, expected=expected: None if output == expected else (
                            "report %r, expected %r" % (output[:200], expected)),
                    )
                )
        return result

    plan.ops = ops


def _seq(plan: Plan) -> None:
    ops = [Op("seq " + " ".join(argv), _cli("seq", *argv), int(argv[2]), key="seq " + " ".join(argv))
           for argv in SIZES[plan.size]["seqs"]]
    plan.ops = lambda workdir: ops
    plan.reference = "binomials"


def _falsify(plan: Plan, registry) -> None:
    sizes = SIZES[plan.size]
    rng = random.Random("%d:falsify" % plan.seed)
    cap = sizes["falsify_cap"]
    sweeps = []
    for ident in registry:
        cells = admissible_cells(ident, cap)
        chosen = sorted(rng.sample(cells, max(1, round(len(cells) * PERTURBED_SHARE))))
        sweeps.append((ident.id, len(cells), chosen))
    scan_cells = divisibility_cells("c", sizes["falsify_m"])
    scan_chosen = sorted(rng.sample(scan_cells, round(len(scan_cells) * PERTURBED_SHARE)))
    legs = leg_sizes(rng, len(scan_cells), FALSIFY_LEGS)
    # What the benchmark's own perturbation implies: every shifted cell is a
    # mismatch, and a shifted dividend stays divisible only by a divisor of 1.
    plan.expected = {
        "mismatches": {identity: list(chosen) for identity, _, chosen in sweeps},
        "counterexamples": [cell for cell in scan_chosen if math.comb(cell[0] - 1, cell[1]) != 1],
    }
    total_cells = sum(count for _, count, _ in sweeps) + len(scan_cells)

    def check(output: bytes) -> str | None:
        doc = json.loads(output)
        reports = doc["reports"]
        if [report["identity"] for report in reports] != [identity for identity, _, _ in sweeps]:
            return "falsify: reports are not the perturbed identities in order"
        for report, (identity, count, _) in zip(reports, sweeps):
            expected = plan.expected["mismatches"][identity]
            found = [tuple(m["assignment"].values()) for m in report["mismatches"]]
            if report["cells"] != count:
                return "%s: %d cells checked, expected %d" % (identity, report["cells"], count)
            if found != expected:
                return "%s: %d mismatches, expected %d" % (identity, len(found), len(expected))
            if any(Fraction(m["rhs"]) - Fraction(m["lhs"]) != 1 for m in report["mismatches"]):
                return "%s: a mismatch is not the +1 shift" % identity
            if report["status"] != ("FAIL" if expected else "PASS"):
                return "%s: status %s" % (identity, report["status"])
        state = doc["state"]
        records = state["counterexamples"]
        found = [(record["assignment"]["m"], record["assignment"]["n"]) for record in records]
        if found != plan.expected["counterexamples"]:
            return "scan: %d counterexamples, expected %d" % (len(found), len(plan.expected["counterexamples"]))
        for (m, n), record in zip(found, records):
            divisor = math.comb(m - 1, n)
            if (record["divisor"], record["remainder"]) != (str(divisor), "1") or (int(record["dividend"]) - 1) % divisor:
                return "scan: counterexample at m=%d n=%d is not the +1 shift" % (m, n)
        problem = _field_errors(state, {"conjecture": "divisibility-c", "p": SCAN_P, "frontier": None,
                                        "processed": len(scan_cells), "skipped_zero_divisor": 0})
        if problem:
            return "scan: " + problem
        return None if doc["reverified"] is True else "scan: reverify rejected the recorded counterexamples"

    def ops(workdir: str) -> list[Op]:
        job_path = os.path.join(workdir, "falsify-input.json")
        job = {
            "cap": cap,
            "identities": [[identity, chosen] for identity, _, chosen in sweeps],
            "scan": {
                "variant": "c",
                "p": SCAN_P,
                "m": list(sizes["falsify_m"]),
                "cells": scan_chosen,
                "legs": legs,
                "checkpoint": os.path.join(workdir, "falsify-checkpoint.json"),
            },
        }

        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        return [Op("falsify", ["falsify", job_path], total_cells, check=check)]

    plan.ops = ops


def make_plan(workload: str, seed: int, size: str) -> Plan:
    """The seeded plan; reads the identity registry for domains only."""
    from catalan_triangles.identities import list_identities

    plan = Plan(seed, size, ops=lambda workdir: [])
    if workload == "sweep":
        _sweep(plan, list_identities())
    elif workload == "scan":
        _scan(plan)
    elif workload == "seq":
        _seq(plan)
    elif workload == "falsify":
        _falsify(plan, list_identities())
    else:
        raise ValueError("unknown workload %r" % workload)
    return plan
