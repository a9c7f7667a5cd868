"""CLI behavior end to end: exact output bytes, exit-code discipline,
format stability, and checkpointed scans."""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from conftest import with_line
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, conjectures, exact, identities, triangles
from catalan_triangles.conjectures import load_checkpoint, scan_divisibility
from catalan_triangles.exact import _int
from catalan_triangles.identities import IdentityDescriptor, Parameter


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "catalan_triangles", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_value_c():
    result = run_cli("value", "c", "6", "2")
    assert result.returncode == 0
    assert result.stdout == "5\n"


def test_value_b_and_a():
    assert run_cli("value", "b", "6", "3").stdout == "110\n"
    assert run_cli("value", "a", "6", "3").stdout == "275\n"


def test_value_harmonic_prints_fraction():
    result = run_cli("value", "harmonic", "4")
    assert result.stdout == "25/12\n"


def test_value_domain_error_exits_2():
    result = run_cli("value", "a", "0", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error" in result.stderr


def test_value_wrong_arity_exits_2():
    result = run_cli("value", "c", "6")
    assert result.returncode == 2


def test_value_unknown_name_exits_2():
    assert run_cli("value", "zeta", "3").returncode == 2


def test_verify_single_identity_passes():
    result = run_cli("verify", "thm-b-cube", "--n", "1..40")
    assert result.returncode == 0
    assert "thm-b-cube: PASS (40 cells" in result.stdout


def test_verify_unknown_id_lists_valid_ids():
    result = run_cli("verify", "thm-everything")
    assert result.returncode == 2
    assert "prop-recurrence" in result.stderr


def test_verify_empty_admissible_domain_exits_2():
    result = run_cli("verify", "thm-linear-sum", "--m", "1..1")
    assert result.returncode == 2


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_cap_below_every_minimum_exits_2(cap):
    # --max 0 is a cap like any other, not "no cap": m = 2..0 is empty
    result = run_cli("verify", "thm-linear-sum", "--max", cap)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no admissible cells" in result.stderr


def test_verify_all_json_caps_applied():
    result = run_cli("verify", "all", "--max", "10", "--format", "json", "--no-timing")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert len(reports) == len(identities.list_identities())
    assert all(report["status"] == "PASS" for report in reports)
    assert all("elapsed_ms" not in report for report in reports)
    by_id = {report["identity"]: report for report in reports}
    assert by_id["thm-b-cube"]["domain"] == {"n": [1, 10]}


def test_verify_single_json_is_one_object():
    result = run_cli("verify", "eq-dixon", "--n", "1..15", "--format", "json", "--no-timing")
    report = json.loads(result.stdout)
    assert report["identity"] == "eq-dixon"
    assert report["cells"] == 15
    assert report["status"] == "PASS"


def test_verify_output_is_deterministic_across_jobs():
    outputs = [
        run_cli(
            "verify", "thm-square-sum", "--m", "1..25", "--n", "1..25",
            "--format", "json", "--no-timing", "--jobs", jobs,
        ).stdout
        for jobs in ("1", "8")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["cells"] == 625


def test_verify_exit_1_on_mismatch():
    # inject a deliberately false identity in-process so the finding path
    # (exit code 1, mismatch listing) can be exercised
    identities.register(
        IdentityDescriptor(
            id="test-false-claim",
            statement="n == n + 1",
            parameters=(Parameter("n", 1),),
            lhs=lambda n: n,
            rhs=lambda n: n + 1,
        )
    )
    try:
        code = cli.main(["verify", "test-false-claim", "--n", "1..4", "--no-timing"])
        assert code == 1
    finally:
        del identities._REGISTRY["test-false-claim"]


def test_verify_mismatch_listing(capsys):
    identities.register(
        IdentityDescriptor(
            id="test-off-by-two",
            statement="n == n + 2",
            parameters=(Parameter("n", 1),),
            lhs=lambda n: n,
            rhs=lambda n: n + 2,
        )
    )
    try:
        code = cli.main(["verify", "test-off-by-two", "--n", "3..3", "--no-timing"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "mismatch at n=3: lhs=3 rhs=5" in out
    finally:
        del identities._REGISTRY["test-off-by-two"]


def test_verify_allow_outside_domain_runs_extra_cells():
    constrained = run_cli("verify", "thm-alt-sum", "--m", "2..10", "--n", "1..10",
                          "--format", "json", "--no-timing")
    explored = run_cli("verify", "thm-alt-sum", "--m", "2..10", "--n", "1..10",
                       "--format", "json", "--no-timing", "--allow-outside-domain")
    assert explored.returncode == 0
    assert json.loads(constrained.stdout)["cells"] < json.loads(explored.stdout)["cells"] == 90


def test_scan_even_exponent_exits_2():
    result = run_cli("scan", "b-cubes", "--p", "4", "--n", "1..10")
    assert result.returncode == 2
    assert "odd" in result.stderr


def test_scan_b_cubes_clean():
    result = run_cli("scan", "b-cubes", "--p", "5", "--n", "1..20")
    assert result.returncode == 0
    assert "0 counterexamples" in result.stdout


def test_scan_c_powers_clean():
    result = run_cli("scan", "c-powers", "--p", "5", "--m", "2..20")
    assert result.returncode == 0
    assert "0 counterexamples" in result.stdout


def test_scan_mixed_clean():
    result = run_cli("scan", "mixed", "--n", "1..8", "--m", "1..8")
    assert result.returncode == 0
    assert "0 counterexamples" in result.stdout


def test_scan_mixed_rejects_exponent():
    assert run_cli("scan", "mixed", "--p", "3", "--n", "1..4", "--m", "1..4").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cor-alt-B", "--m", "2..3"],
        ["verify", "thm-linear-sum", "--k", "1..3"],
        ["scan", "b-cubes", "--p", "3", "--n", "1..5", "--m", "2..9"],
        ["scan", "a-cubes", "--p", "3", "--n", "1..5", "--m", "2..9"],
    ],
    ids=" ".join,
)
def test_a_range_flag_the_request_cannot_use_exits_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error" in result.stderr


def test_verify_all_applies_each_range_flag_only_where_it_fits():
    result = run_cli("verify", "all", "--m", "2..3", "--max", "4", "--format", "json", "--no-timing")
    assert result.returncode == 0
    by_id = {report["identity"]: report for report in json.loads(result.stdout)}
    assert by_id["thm-linear-sum"]["domain"]["m"] == [2, 3]
    assert by_id["cor-alt-B"]["domain"] == {"n": [1, 4]}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm-linear-sum", "--m", "5", "--max", "8"],
        ["verify", "all", "--n", "3", "--max", "5"],
        ["scan", "b-cubes", "--p", "3", "--n", "5"],
        ["scan", "c-powers", "--p", "3", "--m", "5", "--n", "2"],
        ["scan", "mixed", "--n", "4", "--m", "6"],
    ],
    ids=" ".join,
)
def test_a_bare_integer_range_is_that_integer_to_itself(argv, capsys):
    # README: --n 5 means 5..5
    spans = [a + ".." + a if flag in ("--m", "--n") else a for flag, a in zip([None] + argv, argv)]
    outcomes = []
    for request in (argv, spans):
        code = cli.main(request + ["--format", "json", "--no-timing"])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0
    bare = {flag[2:]: int(a) for flag, a in zip(argv, argv[1:]) if flag in ("--m", "--n")}
    document = json.loads(outcomes[0][1])
    domains = [report["domain"] for report in (document if isinstance(document, list) else [document])]
    assert all(domain[name] == [v, v] for domain in domains for name, v in bare.items() if name in domain)
    assert all(any(name in domain for domain in domains) for name in bare)


def test_scan_missing_range_exits_2():
    assert run_cli("scan", "b-cubes", "--p", "3").returncode == 2


def test_scan_json_deterministic_across_jobs():
    outputs = [
        run_cli(
            "scan", "b-cubes", "--p", "3", "--n", "1..25",
            "--format", "json", "--no-timing", "--jobs", jobs,
        ).stdout
        for jobs in ("1", "8")
    ]
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["processed"] == 25
    assert doc["counterexamples"] == []
    assert "elapsed_ms" not in doc


def test_scan_checkpoint_resume(tmp_path):
    path = tmp_path / "scan.json"
    first = run_cli("scan", "c-powers", "--p", "5", "--m", "2..15",
                    "--checkpoint", str(path), "--limit", "30")
    assert first.returncode == 0
    assert "incomplete" in first.stdout
    partial = load_checkpoint(path)
    assert partial.processed == 30
    second = run_cli("scan", "c-powers", "--p", "5", "--m", "2..15", "--checkpoint", str(path))
    assert second.returncode == 0
    assert load_checkpoint(path) == scan_divisibility("c", 5, m_range=(2, 15))


def test_scan_negative_limit_exits_2_and_leaves_the_checkpoint(tmp_path):
    path = tmp_path / "scan.json"
    domain = ("scan", "c", "--p", "3", "--m", "2..5", "--checkpoint", str(path))
    assert run_cli(*domain, "--limit", "2").returncode == 0
    saved = path.read_bytes()
    for limit in ("-1", "-2"):
        result = run_cli(*domain, "--limit", limit)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "cell limit must be >= 0" in result.stderr
        assert path.read_bytes() == saved
    fresh = tmp_path / "fresh.json"
    result = run_cli("scan", "c", "--p", "3", "--m", "2..5", "--checkpoint", str(fresh), "--limit", "-2")
    assert result.returncode == 2
    assert os.listdir(tmp_path) == ["scan.json"]


def test_scan_corrupt_checkpoint_exits_2(tmp_path):
    path = tmp_path / "scan.json"
    for garbage in ('{"version": 7}', "not json {"):
        path.write_text(garbage)
        result = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..5", "--checkpoint", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "integrity" in result.stderr
        assert "Traceback" not in result.stderr
        assert path.read_text() == garbage


@pytest.mark.parametrize(
    "garbage", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000], ids=["not UTF-8", "JSON nested 100000 deep"]
)
def test_an_unreadable_checkpoint_exits_2_and_stays_as_it_was(tmp_path, garbage):
    path = tmp_path / "scan.json"
    path.write_bytes(garbage)
    code, out, err = _cli(["scan", "c", "--p", "3", "--m", "2..5", "--checkpoint", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("integrity error: unreadable checkpoint ") and "Traceback" not in err
    assert path.read_bytes() == garbage


def test_an_empty_checkpoint_path_exits_2_before_any_cell(tmp_path, monkeypatch):
    # an unset shell variable, say; a scan without its checkpoint would report the same next cell on every leg
    def scanned(*args, **kwargs):
        raise AssertionError("scanned with an empty checkpoint path")

    monkeypatch.setattr(cli.conjectures, "scan_divisibility", scanned)
    monkeypatch.chdir(tmp_path)
    code, out, err = _cli(["scan", "c", "--p", "3", "--m", "2..40", "--checkpoint", "", "--limit", "500"])
    assert (code, out, err) == (2, "", "error: --checkpoint needs a path, got an empty one\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "scan",
    [
        ["b-cubes", "--p", "3", "--n", "5..3"],
        ["c-powers", "--p", "3", "--m", "10..5"],
        ["mixed", "--n", "3..1", "--m", "1..2"],
    ],
    ids=" ".join,
)
def test_scan_over_an_empty_domain_exits_2_and_writes_nothing(tmp_path, scan):
    path = tmp_path / "scan.json"
    result = run_cli("scan", *scan, "--checkpoint", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "no cells in" in result.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "scan",
    [[variant, "--p", p, span, bounds]
     for p in ("1", "3")
     for variant, span, bounds in (("c-powers", "--m", "2..7"), ("b-cubes", "--n", "1..6"), ("a-cubes", "--n", "1..6"))]
    + [["mixed", "--n", "1..3", "--m", "1..3"]],
    ids=" ".join,
)
def test_checkpointed_legs_end_with_the_unbatched_document(tmp_path, capsys, scan):
    # a scan resumed in legs of 2 cells until the frontier is null reports
    # byte for byte what one run over the whole domain reports
    def run(*extra):
        code = cli.main(["scan", *scan, *extra, "--format", "json", "--no-timing"])
        return code, capsys.readouterr().out

    code, whole = run()
    assert code == 0
    path = tmp_path / "scan.json"
    legs = []
    while not legs or json.loads(legs[-1][1])["frontier"] is not None:
        assert len(legs) < 50
        legs.append(run("--limit", "2", "--checkpoint", str(path)))
    assert legs[-1][1] == whole
    assert [leg_code for leg_code, _ in legs] == [0] * len(legs)
    assert len(legs) == -(-json.loads(whole)["processed"] // 2)


@pytest.mark.parametrize(
    "fields",
    [
        {"frontier": 5, "processed": "x"},
        {"conjecture": 3},
        {"p": "7"},
        {"frontier": ["2", 1]},
        {"processed": -1},
        {"skipped_zero_divisor": 1.5},
        {"counterexamples": [5]},
        {"elapsed_ms": "soon"},
        {"domain": {"m": [2]}},
        {"domain": [[2, 6]]},
    ],
)
def test_scan_checkpoint_with_mistyped_field_exits_2(tmp_path, fields):
    path = tmp_path / "scan.json"
    doc = {"version": 2, "conjecture": "divisibility-c", "p": 5, "domain": {"m": [2, 6], "n": [1, 5]},
           "frontier": [3, 1], "processed": 1, "counterexamples": [], "skipped_zero_divisor": 0}
    path.write_text(json.dumps({**doc, **fields}))
    result = run_cli("scan", "c-powers", "--p", "5", "--m", "2..6", "--checkpoint", str(path))
    assert result.returncode == 2
    assert "integrity error" in result.stderr
    assert "Traceback" not in result.stderr


def test_scan_resumed_on_another_domain_exits_2(tmp_path):
    path = tmp_path / "scan.json"
    first = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..10", "--limit", "5", "--checkpoint", str(path))
    assert first.returncode == 0
    saved = path.read_bytes()
    for flags in (["--n", "6..7"], ["--n", "1..11"]):
        result = run_cli("scan", "b-cubes", "--p", "3", *flags, "--checkpoint", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "domain" in result.stderr
        assert path.read_bytes() == saved
    resumed = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..10", "--checkpoint", str(path), "--no-timing")
    assert resumed.returncode == 0
    assert resumed.stdout == "divisibility-b p=3: 10 cells processed, 0 counterexamples\n"


def test_scan_checkpoint_naming_an_unknown_conjecture_is_an_integrity_error(tmp_path):
    path = tmp_path / "scan.json"
    scan = ("scan", "b-cubes", "--p", "3", "--n", "1..5", "--checkpoint", str(path))
    assert run_cli(*scan, "--limit", "2").returncode == 0
    doc = json.loads(path.read_text())
    doc["conjecture"] = "nonsense"
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    result = run_cli(*scan)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("integrity error: ")
    assert path.read_bytes() == saved


def test_scan_version_1_checkpoint_exits_2(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"version": 1, "conjecture": "divisibility-b", "p": 3, "frontier": [6],
                                "processed": 5, "counterexamples": [], "skipped_zero_divisor": 0}))
    result = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..10", "--checkpoint", str(path))
    assert result.returncode == 2
    assert "version 1" in result.stderr


def test_scan_checkpoint_missing_field_exits_2(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"version": 2, "conjecture": "divisibility-b", "p": 3, "domain": {"n": [1, 5]},
                                "frontier": None}))
    result = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..5", "--checkpoint", str(path))
    assert result.returncode == 2
    assert "missing field 'processed'" in result.stderr


@pytest.mark.parametrize(
    "record",
    [
        {"assignment": {"m": 3, "n": 1}, "dividend": "2", "divisor": "2", "remainder": "1"},
        {"x": 1},
        {"assignment": {"m": "5", "n": 2}, "dividend": "1", "divisor": "1", "remainder": "1"},
    ],
    ids=["forged", "no-assignment", "string-cell"],
)
def test_scan_checkpoint_whose_counterexamples_do_not_recheck_exits_2(tmp_path, record):
    # a resumed scan re-checks the records it loads before it scans a cell
    path = tmp_path / "scan.json"
    scan = ("scan", "c-powers", "--p", "3", "--m", "2..6", "--checkpoint", str(path))
    assert run_cli(*scan, "--limit", "3").returncode == 0
    doc = json.loads(path.read_text())
    doc["counterexamples"] = [record]
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    result = run_cli(*scan)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "do not re-check" in result.stderr
    assert "Traceback" not in result.stderr
    assert path.read_bytes() == saved


def test_scan_checkpoint_whose_frontier_is_not_a_cell_of_its_domain_exits_2(tmp_path, capsys):
    path = tmp_path / "scan.json"
    scan = ["scan", "c-powers", "--p", "5", "--m", "2..6", "--checkpoint", str(path)]
    assert cli.main([*scan, "--limit", "3"]) == 0
    doc = json.loads(path.read_text())
    doc["frontier"] = [3, 5]  # the c cells have n < m
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    capsys.readouterr()
    assert cli.main(scan) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not belong to the scan domain" in captured.err
    assert path.read_bytes() == saved


@pytest.mark.parametrize(
    "cell",
    [{"m": 0, "n": 1}, {"m": 60000, "n": 30000}],
    ids=["m-zero", "huge"],
)
def test_scan_checkpoint_with_a_record_at_a_cell_never_scanned_exits_2_at_once(tmp_path, cell):
    # re-checking the record would divide by m = 0 (exit 3) or run for minutes
    path = tmp_path / "c.json"
    scan = ("scan", "c-powers", "--p", "3", "--m", "2..5", "--checkpoint", str(path))
    assert run_cli(*scan, "--limit", "3").returncode == 0
    doc = json.loads(path.read_text())
    doc["counterexamples"] = [{"assignment": cell, "dividend": "1", "divisor": "1", "remainder": "1"}]
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    result = run_cli(*scan, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("integrity error: ")
    assert "Traceback" not in result.stderr
    assert path.read_bytes() == saved


@pytest.mark.parametrize(
    "args, digest",
    [
        ((), "f07a64e9515ec39742c06ed45947f6803d0810ec1bd88cb3837421ee98f5969e"),
        (("--format", "json"), "d48b379b543556b56d4f261ff11055c32f92d696f604e7b6cd961320eb71cbc7"),
    ],
    ids=["plain", "json"],
)
def test_scan_mixed_output_bytes_are_pinned(args, digest):
    # recorded from the hand-written mixed-cube arithmetic the compiled statements replaced
    result = run_cli("scan", "mixed", "--n", "1..40", "--m", "1..40", "--no-timing", *args)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (("a", "0", "1201", "--format", "oeis-bfile"), "1d2c6a63cbf4c5eaca727bc7e1d216d0b5a632e99dc2ccbe8c610f9b284d2970"),
        (("b", "1", "1200"), "e4a9ca523ac972e31a6193313128f4cef7746e1ee2fdc15618a155b769c139a6"),
    ],
    ids=["a", "b"],
)
def test_seq_a_and_b_output_bytes_are_pinned(args, digest):
    # recorded from the direct sums, one per term, that the P-recurrences replaced in slices
    result = run_cli("seq", *args)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "field, value",
    [("processed", "1000000"), ("processed", "2"), ("frontier", "null"), ("skipped_zero_divisor", "4"),
     ("elapsed_ms", "1e999"), ("elapsed_ms", "Infinity"), ("elapsed_ms", "NaN")],
)
def test_scan_checkpoint_with_impossible_counts_or_time_exits_2(tmp_path, field, value):
    # the frontier fixes how many cells were processed; the elapsed time is a finite number
    path = tmp_path / "scan.json"
    scan = ("scan", "c-powers", "--p", "3", "--m", "2..6", "--checkpoint", str(path))
    assert run_cli(*scan, "--limit", "3").returncode == 0
    doc = json.loads(path.read_text())
    assert (doc["frontier"], doc["processed"]) == ([4, 1], 3)
    doc[field] = "@"
    path.write_text(json.dumps(doc).replace('"@"', value))
    saved = path.read_bytes()
    for args in ((), ("--format", "json")):
        result = run_cli(*scan, *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "integrity error" in result.stderr
        assert "Traceback" not in result.stderr
        assert path.read_bytes() == saved


def _resume_edited(tmp_path, capsys, scan, edit):
    """(exit code, stdout, stderr) of a scan resumed from its own --limit 7 checkpoint after edit(doc); a run
    that exits 2 must leave the file's bytes as they were."""
    path = tmp_path / "scan.json"
    path.unlink(missing_ok=True)
    argv = ["scan", *scan, "--checkpoint", str(path), "--no-timing"]
    assert cli.main([*argv, "--limit", "7"]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and path.read_bytes() == saved
    return code, out, err


@pytest.mark.parametrize("value", [[], ["divisibility-c"], {}, {"a": 1}], ids=json.dumps)
def test_scan_checkpoint_whose_conjecture_is_a_list_or_an_object_exits_2(tmp_path, capsys, value):
    # a list or an object cannot be hashed, so the field test once raised TypeError: exit 3
    code, _, err = _resume_edited(tmp_path, capsys, ["c-powers", "--p", "3", "--m", "2..12"],
                                  lambda doc: doc.update(conjecture=value))
    assert code == 2
    assert "field 'conjecture' must be one of divisibility-c" in err


def test_scan_checkpoint_with_a_forged_zero_divisor_count_exits_2(tmp_path, capsys):
    # no cell of the c claim has a zero divisor, so the count is recounted and refused, not printed
    code, _, err = _resume_edited(tmp_path, capsys, ["c-powers", "--p", "3", "--m", "2..12"],
                                  lambda doc: doc.update(skipped_zero_divisor=3))
    assert code == 2
    assert err.startswith("integrity error: checkpoint counts 3 zero-divisor cells, but its 7 processed cells hold 0")


@pytest.mark.parametrize(
    "m, message",
    [(400, "checkpoint scanned the domain {'m': (2, 400), 'n': (1, 399)}, not {'m': (2, 12), 'n': (1, 11)}"),
     (12, "checkpoint counts 1 zero-divisor cells, but its 66 processed cells hold 0")],
    ids=["other-domain", "same-domain"],
)
def test_a_forged_zero_divisor_count_buys_no_rescan_before_the_request_is_checked(tmp_path, monkeypatch, capsys,
                                                                                  m, message):
    # a spent scan of m = 2..400 claiming one zero-divisor cell would be recounted over its 79,800 cells; the
    # request's domain is compared first, so no line of the claim runs (the control recounts the 66 it asked for)
    rows = []
    compiled = identities._lookup("divisibility-c", conjectures._STATEMENTS)
    counted = lambda p, m, ns: rows.append(m) or compiled.line(p, m, ns)
    monkeypatch.setitem(conjectures._STATEMENTS, "divisibility-c", with_line(compiled, counted))
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({
        "version": 2, "conjecture": "divisibility-c", "p": 7, "domain": {"m": [2, m], "n": [1, m - 1]},
        "frontier": None, "processed": m * (m - 1) // 2, "counterexamples": [], "skipped_zero_divisor": 1,
    }))
    saved = path.read_bytes()
    assert cli.main(["scan", "c-powers", "--p", "7", "--m", "2..12", "--checkpoint", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "integrity error: %s\n" % message)
    assert path.read_bytes() == saved
    assert rows == ([] if m == 400 else list(range(2, 13)))


def test_a_checkpoint_with_a_repeated_record_exits_2(tmp_path, monkeypatch, capsys):
    # the b claim with its dividend one too large, as a statement, so that the CLI's scan records
    # counterexamples; the 7 of a leg of 8 cells, the first of them appended again, once re-checked and resumed
    base = conjectures._STATEMENTS["divisibility-b"]
    falsified = dataclasses.replace(base, statement=base.statement.replace(" ==", " + 1 =="), lhs=None, rhs=None)
    monkeypatch.setitem(conjectures._STATEMENTS, "divisibility-b", falsified)
    path = tmp_path / "scan.json"
    scan = ["scan", "b-cubes", "--p", "3", "--n", "1..12", "--checkpoint", str(path), "--no-timing"]
    assert cli.main([*scan, "--limit", "8"]) == 1
    doc = json.loads(path.read_text())
    assert len(doc["counterexamples"]) == 7
    doc["counterexamples"].append(doc["counterexamples"][0])
    path.write_text(json.dumps(doc))
    saved = path.read_bytes()
    capsys.readouterr()
    assert cli.main(scan) == 2
    out, err = capsys.readouterr()
    assert out == "" and "do not re-check" in err
    assert path.read_bytes() == saved


# mid-scan c, b and mixed scans: the cells at indices 6, 7 and 8 of the scan order, and the domain's cell count
_MID_SCANS = [(["c-powers", "--p", "3", "--m", "2..12"], [(5, 1), (5, 2), (5, 3)], 66),
              (["b-cubes", "--p", "3", "--n", "1..20"], [(7,), (8,), (9,)], 20),
              (["mixed", "--n", "1..4", "--m", "1..4"], [(2, 3), (2, 4), (3, 1)], 16)]


@pytest.mark.parametrize("scan, cells, total", _MID_SCANS, ids=["c", "b", "mixed"])
@pytest.mark.parametrize("processed, frontier", [(6, 1), (8, 1), (7, 0), (7, 2), (7, None)],
                         ids=["processed-1", "processed+1", "frontier-back", "frontier-on", "null-frontier"])
def test_a_checkpoint_whose_frontier_is_not_the_cell_at_its_count_exits_2(tmp_path, capsys, scan, cells, total,
                                                                          processed, frontier):
    # the checkpoint of 7 cells names cell 7 as its frontier; a count or a frontier one cell off either way, or a
    # null frontier before the domain's last cell, is refused before any cell is scanned
    def edit(doc):
        assert (doc["processed"], doc["frontier"]) == (7, list(cells[1]))
        doc.update(processed=processed, frontier=None if frontier is None else list(cells[frontier]))

    code, out, err = _resume_edited(tmp_path, capsys, scan, edit)
    if frontier is None:
        message = "checkpoint counts 7 cells processed, but %d cells of the domain precede its frontier None" % total
    else:
        message = ("checkpoint counts %d cells processed, but the domain's cell at that index is %r, not its frontier "
                   "%r" % (processed, cells[processed - 6], cells[frontier]))
    assert (code, out, err) == (2, "", "integrity error: %s\n" % message)


@pytest.mark.parametrize("scan", [scan for scan, _, _ in _MID_SCANS], ids=" ".join)
def test_a_spent_checkpoint_resumes_to_its_own_document(tmp_path, capsys, scan):
    path = tmp_path / "scan.json"
    argv = ["scan", *scan, "--checkpoint", str(path), "--format", "json", "--no-timing"]
    assert cli.main(argv) == 0
    spent = capsys.readouterr().out
    assert json.loads(spent)["frontier"] is None
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == spent
    doc = json.loads(path.read_text())
    del doc["elapsed_ms"]
    assert doc == json.loads(spent)


# real mid-scan checkpoints, each edited in one field, or given a planted record
_SWAPPED_SCANS = [["c-powers", "--p", "3", "--m", "2..12"], ["b-cubes", "--p", "3", "--n", "1..20"],
                  ["mixed", "--n", "1..6", "--m", "1..6"]]
_SWAPS = [None, True, 0, 1, -1, 10**30, 1.5, "x", [], [1], {}, {"a": 1}]
_DROPPED = object()
_PLANTED = [
    {}, {"assignment": None}, {"assignment": {}}, {"assignment": [1, 1]}, {"assignment": {"n": 1}},
    {"assignment": {"m": 3, "n": 1}}, {"assignment": {"m": 2, "n": 1}, "lhs": "1", "rhs": "2"},
    {"assignment": {"m": 3, "n": 1}, "dividend": "2", "divisor": "2", "remainder": "0"},
    {"assignment": {"n": 2}, "dividend": "1", "divisor": "2", "remainder": "1"},
    {"assignment": {"n": 10**30, "m": 1}, "lhs": "1", "rhs": "2"}, {"assignment": {"n": True, "m": 1}},
    {"assignment": {"n": "1", "m": "1"}}, {"assignment": {"n": 1.5, "m": 1}, "lhs": "1", "rhs": "2"},
]


def test_no_edit_of_a_checkpoint_field_exits_1_or_3(tmp_path, capsys):
    # every field of a real mid-scan checkpoint swapped for each value of _SWAPS or dropped, and a planted
    # record: the resumed scan either refuses the file (exit 2, nothing printed, the file as it was) or ends
    # with the document of the uninterrupted scan, less elapsed_ms
    codes = []
    for scan in _SWAPPED_SCANS:
        assert cli.main(["scan", *scan, "--format", "json", "--no-timing"]) == 0
        whole = json.loads(capsys.readouterr().out)
        fields = ["version", *conjectures._CHECKPOINT_FIELDS]
        edits = [(name, value) for name in fields for value in _SWAPS + [_DROPPED]]
        edits += [("counterexamples", [record]) for record in _PLANTED]
        for name, value in edits:
            edit = (lambda doc: doc.pop(name)) if value is _DROPPED else (lambda doc: doc.update({name: value}))
            code, _, err = _resume_edited(tmp_path, capsys, [*scan, "--format", "json"], edit)
            assert code in (0, 2), (scan, name, value, err)
            if code == 0:
                saved = json.loads((tmp_path / "scan.json").read_text())
                assert saved.pop("elapsed_ms") >= 0 and saved == whole, (scan, name, value)
            codes.append(code)
    assert codes.count(0) > 0 and codes.count(2) > 0


# The checkpoint fuzzer: a real first leg's document of a scan below, of its claim as stated or falsified
# (each statement's right side one too large, so that the legs record counterexamples), edited in at most one
# field and in up to two records.  Two edits are left out, since a document edited so vouches for cells it
# never checked, which a resumed scan could tell only by scanning every processed cell again: the frontier and
# the count moved together, which one field edit cannot do, and a record dropped, which no record edit does
# and a field edit that does ([] for the records, say) is assumed away.
_FUZZED_SCANS = {
    "c-powers": (["c-powers", "--p", "3", "--m", "2..12"], ["divisibility-c"]),
    "b-cubes": (["b-cubes", "--p", "3", "--n", "1..20"], ["divisibility-b"]),
    "mixed": (["mixed", "--n", "1..6", "--m", "1..6"], ["mixed-cube n<=m", "mixed-cube m<n"]),
}


@functools.cache
def _falsified(scan):
    """scan's statements with their right side one too large, compiled once."""
    return {
        text: identities._compiled(dataclasses.replace(
            conjectures._STATEMENTS[text], statement=conjectures._STATEMENTS[text].statement + " + 1",
            lhs=None, rhs=None,
        ))
        for text in _FUZZED_SCANS[scan][1]
    }


def _claims(scan, falsified):
    return mock.patch.dict(conjectures._STATEMENTS, _falsified(scan) if falsified else {})


def _cli(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with argparse's exit as ("SystemExit", its code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _fuzz_base(scan, falsified, limit):
    """(the document of scan's first leg of limit cells, the uninterrupted scan's exit code and stdout)."""
    argv = _FUZZED_SCANS[scan][0]
    with _claims(scan, falsified), tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "leg.json")
        assert _cli(["scan", *argv, "--checkpoint", path, "--limit", str(limit)])[0] in (0, 1)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        code, whole, _ = _cli(["scan", *argv, "--format", "json", "--no-timing"])
    return text, code, whole


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**30, -10**30, 2**63, -(2**63)]),
              st.floats(), st.text(max_size=4), st.sampled_from(_SWAPS)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = ["version", *conjectures._CHECKPOINT_FIELDS]
_INDEX = st.integers(-3, 40)
_SIDE = st.one_of(st.integers(-9, 9).map(str), st.integers().map(str), _JSON)
_FIELD_EDITS = st.one_of(
    st.none(),
    st.tuples(st.just("set"), st.sampled_from(_FIELDS) | st.text(max_size=4), _JSON),
    st.tuples(st.just("nudge"), st.sampled_from(_FIELDS), st.integers(-3, 3) | st.sampled_from([10**30, -10**30])),
    st.tuples(st.just("drop"), st.sampled_from(_FIELDS)),
)
_RECORD_EDITS = st.one_of(
    st.tuples(st.just("plant"), _INDEX, st.sampled_from(_PLANTED) | st.fixed_dictionaries(
        {"assignment": st.dictionaries(st.sampled_from("mn"), _INDEX | _JSON, max_size=2)},
        optional={name: _SIDE for name in ("dividend", "divisor", "remainder", "lhs", "rhs")})),
    st.tuples(st.just("repeat"), _INDEX, _INDEX),
    st.tuples(st.just("move"), _INDEX, _INDEX),
)


def _edited(doc, field_edit, record_edits):
    """doc with one field set, nudged (an integer, or a list's last one) or dropped, and records planted,
    repeated or moved; record indices wrap around the list."""
    if field_edit is not None:
        kind, name, *value = field_edit
        if kind == "drop":
            doc.pop(name, None)
        elif kind == "set":
            doc[name] = value[0]
        elif isinstance(doc.get(name), list) and doc[name] and _int(doc[name][-1]):  # nudge the frontier's last
            doc[name][-1] += value[0]
        elif _int(doc.get(name)) or type(doc.get(name)) is float:
            doc[name] += value[0]
    records = doc.get("counterexamples")
    for kind, source, target in record_edits:
        if not isinstance(records, list):
            break
        if kind == "plant":
            records.insert(source, target)
        elif records:
            record = records[source % len(records)] if kind == "repeat" else records.pop(source % len(records))
            records.insert(target % (len(records) + 1), record)
    return doc


@settings(max_examples=80, deadline=None)
@given(
    scan=st.sampled_from(sorted(_FUZZED_SCANS)),
    falsified=st.booleans(),
    limit=st.sampled_from([3, 7, 20]),
    field_edit=_FIELD_EDITS,
    record_edits=st.lists(_RECORD_EDITS, max_size=2),
)
@example(scan="c-powers", falsified=True, limit=20, field_edit=None, record_edits=[("repeat", 0, 40)])
@example(scan="mixed", falsified=True, limit=7, field_edit=None, record_edits=[("move", 0, 1)])
@example(scan="b-cubes", falsified=False, limit=7, field_edit=("set", "elapsed_ms", float("nan")), record_edits=[])
def test_no_checkpoint_document_fools_a_resumed_scan(scan, falsified, limit, field_edit, record_edits):
    # the resumed scan either refuses the document (exit 2, nothing printed, the file's bytes as they were) or
    # exits as the uninterrupted scan does and ends with its document, less elapsed_ms; never exit 3
    text, whole_code, whole = _fuzz_base(scan, falsified, limit)
    argv = ["scan", *_FUZZED_SCANS[scan][0], "--format", "json", "--no-timing"]
    doc = _edited(json.loads(text), field_edit, record_edits)
    # records that are all the leg's own but miss one of them: a record dropped, see above
    records, kept = json.loads(text)["counterexamples"], doc.get("counterexamples")
    assume(not (isinstance(kept, list) and all(r in records for r in kept) and any(r not in kept for r in records)))
    with _claims(scan, falsified), tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scan.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        with open(path, "rb") as fh:
            saved = fh.read()
        code, out, err = _cli([*argv, "--checkpoint", path])
        assert code in (whole_code, 2), err
        with open(path, "rb") as fh:
            final = fh.read()
    if code == 2:
        assert out == "" and final == saved
    else:
        resumed = json.loads(final)
        assert resumed.pop("elapsed_ms") >= 0 and resumed == json.loads(whole) and out == whole


def test_scan_resumes_from_an_indented_checkpoint(tmp_path, capsys):
    # checkpoints written as indented JSON, before they became one line, resume to the same report
    def run(*extra):
        code = cli.main(["scan", "c-powers", "--p", "1", "--m", "2..9", *extra, "--format", "json", "--no-timing"])
        return code, capsys.readouterr().out

    whole = run()
    path = tmp_path / "scan.json"
    assert run("--limit", "10", "--checkpoint", str(path))[0] == 0
    doc = json.loads(path.read_text())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    assert run("--checkpoint", str(path)) == whole
    assert path.read_text().count("\n") == 1


def test_scan_checkpoint_in_a_missing_directory_exits_2_before_scanning(tmp_path, monkeypatch):
    def scanned(*args, **kwargs):
        raise AssertionError("scanned before the checkpoint directory was checked")

    monkeypatch.setattr(cli.conjectures, "scan_divisibility", scanned)
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["scan", "b-cubes", "--p", "3", "--n", "1..5", "--checkpoint", str(path)]) == 2
    assert os.listdir(tmp_path) == []
    result = run_cli("scan", "b-cubes", "--p", "3", "--n", "1..5", "--checkpoint", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "does not exist" in result.stderr
    assert os.listdir(tmp_path) == []


def test_failed_exactness_check_exits_3_not_2(monkeypatch, capsys):
    # an exact step that leaves a remainder is a bug, not a bad request; the columns past the middle are
    # mirrored and c(40, 20) = 0, so the row's c run is checked against its closed form at column 19, which
    # sees a wrong anchor or a wrong comb() there
    real = exact.comb
    for corrupted in ((40, 0), (40, 19)):
        monkeypatch.setattr(exact, "comb", lambda u, v: real(u, v) + ((u, v) == corrupted))
        assert cli.main(["seq", "c-row:40", "0", "41"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "internal error: IntegrityError: c_run: run from c(40, 0) disagrees with the closed form at c(40, 19)"
            in captured.err
        )


def test_seq_oeis_bfile_bytes():
    result = run_cli("seq", "a", "0", "5", "--format", "oeis-bfile")
    assert result.returncode == 0
    assert result.stdout == "0 1\n1 5\n2 46\n3 517\n4 6376\n"


def test_seq_csv():
    result = run_cli("seq", "catalan", "0", "7", "--format", "csv")
    assert result.stdout == "1,1,2,5,14,42,132\n"


def test_seq_plain_default():
    # fifth term is 1626 (forced by the defining sums; see test_triangles)
    result = run_cli("seq", "b", "1", "5")
    assert result.stdout == "1 3 19 163 1626\n"


def test_seq_rows():
    assert run_cli("seq", "c-row:6", "0", "7").stdout == "1 4 5 0 -5 -4 -1\n"
    assert run_cli("seq", "b-row:4", "1", "4").stdout == "14 14 6 1\n"
    assert run_cli("seq", "a-row:5", "1", "6").stdout == "42 90 75 35 9 1\n"


def test_seq_json_terms_are_decimal_strings():
    result = run_cli("seq", "catalan", "30", "3", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["name"] == "catalan"
    assert doc["terms"] == ["3814986502092304", "14544636039226909", "55534064877048198"]


def test_seq_plain_table_aligned():
    result = run_cli("seq", "catalan", "8", "4", "--format", "plain-table")
    assert result.stdout == " 8  1430\n 9  4862\n10  16796\n11  58786\n"


@pytest.mark.parametrize(
    "args",
    [
        ("seq", "nonsense", "0", "3"),
        ("seq", "c-row:0", "0", "1"),
        ("seq", "c-row:six", "0", "1"),
        ("seq", "catalan", "0", "0"),
        ("seq", "b", "0", "3"),
        ("seq", "c-row:6", "0", "8"),
        ("seq", "c-row", "1", "2"),
        ("seq", "catalan:3", "1", "2"),
        ("seq", "a:2", "1", "2"),
        ("seq", "c_row:5", "1", "2"),
        ("seq", "seq_a", "1", "2"),
        ("seq", "c-row:x", "1", "2"),
    ],
)
def test_seq_invalid_specs_exit_2(args):
    assert run_cli(*args).returncode == 2


@pytest.mark.parametrize(
    "name, kind, start, param",
    [
        ("catalan", "catalan", 0, None),
        ("a", "seq_a", 0, None),
        ("b", "seq_b", 1, None),
        ("gen-catalan:3", "gen_catalan", 1, 3),
        ("c-row:5", "c_row", 0, 5),
        ("b-row:4", "b_row", 1, 4),
        ("a-row:4", "a_row", 1, 4),
    ],
)
def test_each_seq_name_prints_its_kind(capsys, name, kind, start, param):
    assert cli.main(["seq", name, str(start), "3"]) == 0
    values = triangles.generate(triangles.SequenceSpec(kind, start, 3, param))
    assert capsys.readouterr().out == " ".join(map(str, values)) + "\n"


@pytest.mark.parametrize(
    "name, domain, label",
    [
        ("c", ["--m", "2..5"], "divisibility-c p=3: 10 cells"),
        ("c-powers", ["--m", "2..5"], "divisibility-c p=3: 10 cells"),
        ("b", ["--n", "1..4"], "divisibility-b p=3: 4 cells"),
        ("b-cubes", ["--n", "1..4"], "divisibility-b p=3: 4 cells"),
        ("a", ["--n", "1..4"], "divisibility-a p=3: 4 cells"),
        ("a-cubes", ["--n", "1..4"], "divisibility-a p=3: 4 cells"),
        ("mixed", ["--n", "1..3", "--m", "1..3"], "mixed-cube: 9 cells"),
    ],
)
def test_each_scan_name_scans_its_conjecture(capsys, name, domain, label):
    exponent = [] if name == "mixed" else ["--p", "3"]
    assert cli.main(["scan", name, *exponent, *domain, "--no-timing"]) == 0
    assert capsys.readouterr().out == label + " processed, 0 counterexamples\n"


def _decimal(value):
    """str(value) beyond CPython's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_value_beyond_int_str_digit_limit_exits_0():
    result = run_cli("value", "catalan", "8000")
    assert result.returncode == 0
    assert result.stdout == _decimal(math.comb(16000, 8000) // 8001) + "\n"


def test_seq_beyond_int_str_digit_limit_exits_0():
    result = run_cli("seq", "c-row:16000", "7000", "1")
    assert result.returncode == 0
    assert result.stdout == _decimal((16000 - 2 * 7000) * math.comb(16000, 7000) // 16000) + "\n"


def _c(m, k):
    return (m - 2 * k) * math.comb(m, k) // m


# the terms of each seq name the CLI computes in Decimal, from math.comb ints
_COMB_TERMS = {
    "c-row": _c,
    "b-row": lambda n, k: _c(2 * n, n - k),
    "a-row": lambda n, k: _c(2 * n + 1, n + 1 - k),
    "catalan": lambda _, i: math.comb(2 * i, i) // (i + 1),
    "gen-catalan": lambda order, i: math.comb(i * order, i - 1) // i,
}


def _int_rendering(name, start, values, fmt):
    """What each --format prints for int values, under no int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        indices = range(start, start + len(values))
        if fmt == "plain":
            return " ".join(str(v) for v in values) + "\n"
        if fmt == "csv":
            return ",".join(str(v) for v in values) + "\n"
        if fmt == "oeis-bfile":
            return "".join("%d %d\n" % (i, v) for i, v in zip(indices, values))
        if fmt == "json":
            doc = {"name": name, "start": start, "count": len(values), "terms": [str(v) for v in values]}
            return json.dumps(doc, indent=2) + "\n"
        width = len(str(indices[-1]))
        return "".join("%*d  %d\n" % (width, i, v) for i, v in zip(indices, values))
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def decimal_seq_slices(draw):
    """(seq name, param, start, count) of a run kind, inside its row or domain."""
    name = draw(st.sampled_from(sorted(_COMB_TERMS)))
    if name == "catalan":
        return name, None, draw(st.integers(0, 500)), draw(st.integers(1, 120))
    if name == "gen-catalan":
        return name, draw(st.integers(1, 8)), draw(st.integers(1, 200)), draw(st.integers(1, 80))
    param = draw(st.integers(1, 300))
    first, last = {"c-row": (0, param), "b-row": (1, param), "a-row": (1, param + 1)}[name]
    start = draw(st.integers(first, last))
    return name, param, start, draw(st.integers(1, last - start + 1))


@settings(max_examples=60, deadline=None)
@given(decimal_seq_slices())
@example(("c-row", 40, 0, 41))  # negative entries and the zero at k = 20
@example(("c-row", 40, 20, 1))  # the zero alone
@example(("c-row", 41, 25, 10))  # negative entries only
@example(("c-row", 1, 0, 2))
@example(("b-row", 1, 1, 1))
@example(("a-row", 1, 1, 2))
@example(("catalan", None, 0, 1))
@example(("gen-catalan", 1, 1, 3))
@example(("c-row", 15000, 7499, 3))  # terms of more than 4300 digits
def test_decimal_seq_output_equals_the_int_rendering_in_every_format(spec):
    name, param, start, count = spec
    values = [_COMB_TERMS[name](param, i) for i in range(start, start + count)]
    kind = name.replace("-", "_")
    assert triangles.generate(triangles.SequenceSpec(kind, start, count, param)) == values
    arg = name if param is None else "%s:%d" % (name, param)
    for fmt in ("plain", "csv", "json", "oeis-bfile", "plain-table"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["seq", arg, str(start), str(count), "--format", fmt]) == 0
        assert out.getvalue() == _int_rendering(arg, start, values, fmt)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["value", "c", "6", "2"], cli.EXIT_OK),
        (["verify", "thm-everything"], cli.EXIT_USAGE),
        (["value", "c", "6"], cli.EXIT_USAGE),  # argparse exits
        (["seq", "catalan", "0", "3"], cli.EXIT_INTERNAL),
    ],
)
def test_main_puts_back_the_callers_int_str_digit_limit(monkeypatch, capsys, argv, code):
    def broken(spec, number=int):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli.triangles, "generate", broken)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            assert cli.main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(spec, number=int):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli.triangles, "generate", broken)
    assert cli.main(["seq", "catalan", "0", "3"]) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: injected fault" in captured.err


def test_an_interrupted_scan_exits_130_with_one_line_and_keeps_its_checkpoint(tmp_path, monkeypatch, capsys):
    checkpoint = tmp_path / "c.json"
    argv = ["scan", "c-powers", "--p", "7", "--m", "2..40", "--checkpoint", str(checkpoint), "--limit", "100"]
    assert cli.main(argv) == cli.EXIT_OK
    saved = checkpoint.read_bytes()
    capsys.readouterr()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt  # as a SIGINT raises it mid-scan

    monkeypatch.setattr(conjectures, "_run_scan", interrupted)
    assert cli.main(argv) == cli.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert checkpoint.read_bytes() == saved


def test_an_interrupted_process_ends_by_sigint_so_that_a_shell_loop_around_it_stops():
    # a shell runs on after a child that exits 130, but stops its loop after one that SIGINT ended
    interrupted = ("from catalan_triangles import cli, conjectures\n"
                   "def interrupted(*args, **kwargs):\n    raise KeyboardInterrupt\n"
                   "conjectures._run_scan = interrupted\ncli.entrypoint()")
    run = subprocess.run([sys.executable, "-c", interrupted, "scan", "b-cubes", "--p", "3", "--n", "1..9"],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (-2, "", "interrupted\n")


def test_a_reader_that_closes_the_pipe_early_gets_exit_141_and_no_traceback():
    # 2.7 MB of output, far more than a pipe buffers, so the writer is still printing when the reader goes
    argv = [sys.executable, "-m", "catalan_triangles", "seq", "c-row:3000", "0", "3001", "--format", "plain-table"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(5) == b"   0 "
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_verify_json_is_the_same_with_or_without_a_jobs_env_var():
    # no environment variable is read, CATALAN_TRIANGLES_JOBS included: --jobs has no default to take from it
    argv = [sys.executable, "-m", "catalan_triangles", "verify", "eq-vandermonde", "--n", "0..30", "--format", "json",
            "--no-timing"]
    out = lambda env: subprocess.run(argv, capture_output=True, env=env, check=True).stdout  # bytes, as printed
    unset = out({name: value for name, value in os.environ.items() if name != "CATALAN_TRIANGLES_JOBS"})
    assert out(dict(os.environ, CATALAN_TRIANGLES_JOBS="4")) == unset and json.loads(unset)["cells"] == 31


def test_identical_invocations_are_bit_identical():
    first = run_cli("seq", "a", "0", "8", "--format", "oeis-bfile")
    second = run_cli("seq", "a", "0", "8", "--format", "oeis-bfile")
    assert first.stdout == second.stdout


# argv that reach every path of the parser: help, usage errors of each kind, and valid runs of each command
_PARSER_ARGV = [
    [], ["-h"], ["--help"], ["--bogus"], ["--bogus", "verify"], ["--", "verify"], ["verfy", "x"], ["ver", "x"],
    ["verify"], ["value"], ["scan"], ["seq"], ["verify", "--help"], ["value", "-h"], ["scan", "-h"], ["seq", "--help"],
    ["verify", "-h", "extra"], ["verify", "x", "--bogus"], ["scan", "--bogus"], ["value", "--version"],
    ["verify", "rec-A", "--m", "x..y"], ["verify", "rec-A", "--max", "x"], ["value", "nope", "1"],
    ["value", "c", "x"], ["value", "c", "3"], ["scan", "nope", "--p", "3"], ["scan", "c-powers", "--p", "x"],
    ["seq", "c-row:5", "0"], ["seq", "c-row:5", "0", "6", "7"], ["seq", "c-row:5", "0", "6", "--format", "bad"],
    ["value", "c", "6", "2"], ["verify", "rec-A", "--max", "8", "--no-timing"],
    ["verify", "eq-vandermonde", "--n", "0..9", "--format", "json", "--no-timing"],
    ["scan", "c-powers", "--p", "3", "--m", "2..6", "--no-timing"],
    ["scan", "mixed", "--n", "1..3", "--m", "1..3", "--format", "json", "--no-timing"],
    ["seq", "c-row:5", "0", "6"], ["seq", "catalan", "0", "5", "--format", "oeis-bfile"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_the_one_command_parser_acts_as_the_whole_parser(monkeypatch, argv):
    # within this Python, since the help text argparse writes differs from one Python version to the next
    shipped = _cli(argv)
    whole = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: whole())
    assert _cli(argv) == shipped


@pytest.mark.parametrize(
    "argv, error",
    [([], "the following arguments are required: command\n"), (["verfy", "x"], "argument command: invalid choice: ")],
)
def test_the_whole_parser_calls_the_command_argument_command(argv, error):
    # the metavar that lists every command on the one-command parser's usage line would rename it here
    code, out, err = _cli(argv)
    assert code == ("SystemExit", 2) and out == "" and error in err


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_an_argv_naming_a_command_builds_only_its_subparser(monkeypatch, argv):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    _cli(argv)
    named = argv[0] if argv and argv[0] in ("value", "verify", "scan", "seq") else None
    if cli._fast_args(argv) is not None:  # read from the argument table: no parser at all
        assert built == []
    else:
        assert built == ([named] if named else ["value", "verify", "scan", "seq"])


def _parsed(argv):
    """vars() of the namespace the parser main would build returns for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv[0] if argv else None).parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_the_fast_path_gives_argparses_namespace_or_leaves_argv_to_argparse(argv):
    fast = cli._fast_args(argv)
    assert fast is None or vars(fast) == _parsed(argv)


_COMMAND_NAMES = [name for name, *_ in cli._COMMANDS]
_OPTION_STRINGS = sorted({name for _, _, arguments, _ in cli._COMMANDS for name, _ in arguments if name[0] == "-"})
_ARGV_VALUES = [
    "x..y", "", "2..5", "5..2", "4", "2..", "..5", "1..2..3", "0", "8", "007", " 4", "1_0", "x", "1.5", "json", "plain",
    "csv", "oeis-bfile", "plain-table", "bad", "c-powers", "b-cubes", "mixed", "c", "b", "nope", "rec-A", "all",
    "c-row:5", "catalan", "binomial", "F", "a b",
]
_ARGV_TOKENS = st.one_of(
    st.sampled_from([*_COMMAND_NAMES, *_OPTION_STRINGS, "-h", "--help", "--", "-1", "-2..3", "--bogus", "-x", "-"]),
    st.sampled_from(_ARGV_VALUES),
    st.builds(lambda option, cut: option[:cut], st.sampled_from(_OPTION_STRINGS), st.integers(2, 6)),
    st.builds("{}={}".format, st.sampled_from(_OPTION_STRINGS), st.sampled_from(_ARGV_VALUES)),
)

# values that each argument type takes, for arguments without choices
_TYPED_VALUES = {int: ["0", "3", "8"], cli._span: ["2..5", "4"], None: ["F"]}


@st.composite
def _near_plain_argv(draw):
    """A command, a value for each positional, then options with values, repeats allowed.

    On half the draws every value is one its argument takes.  On the other
    half any token may stand for one of the values, the argv may be cut
    short, and tokens are spliced in anywhere.
    """
    command, _, arguments, _ = draw(st.sampled_from(cli._COMMANDS))
    rough = draw(st.booleans())
    values = itertools.count()
    spoiled = draw(st.integers(0, 8)) if rough else None  # the value, counted from 0, that any token may stand for

    def value(keywords):
        good = keywords.get("choices") or _TYPED_VALUES[keywords.get("type")]
        return draw(_ARGV_TOKENS if next(values) == spoiled else st.sampled_from(list(good)))

    argv = [command, *(value(keywords) for name, keywords in arguments if name[0] != "-")]
    options = [(name, keywords) for name, keywords in arguments if name[0] == "-"]
    for name, keywords in draw(st.lists(st.sampled_from(options), max_size=6)) if options else ():
        argv += [name] if keywords.get("action") == "store_true" else [name, value(keywords)]
    if rough:
        argv = argv[:draw(st.integers(1, len(argv)))] if draw(st.booleans()) else argv
        for token, at in draw(st.lists(st.tuples(_ARGV_TOKENS, st.integers(0, 20)), max_size=2)):
            argv.insert(at % (len(argv) + 1), token)
    return argv


@settings(max_examples=400, deadline=None)
@given(st.one_of(_near_plain_argv(), st.lists(_ARGV_TOKENS, max_size=8)))
def test_fuzzed_argv_gets_argparses_namespace_or_goes_to_argparse(argv):
    # within this Python, since argparse's reading of some argv differs from one Python version to the next
    fast = cli._fast_args(argv)
    assert fast is None or vars(fast) == _parsed(argv)


@pytest.mark.parametrize("workload", ["sweep", "scan", "seq"])
def test_every_argv_the_benchmark_runs_takes_the_fast_path(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    import workloads

    argvs = [op.args[1:] for size in ("full", "tiny") for seed in (1, 2)
             for op in workloads.make_plan(workload, seed, size).ops(str(tmp_path))]
    if workload != "seq":  # the --jobs 1 and 2 diagnostics of the traced run, a verify all and a scan
        argvs += [args[1:] + ["--jobs", jobs] for size in ("full", "tiny") for _, args in workloads.diagnostics(size)
                  for jobs in ("1", "2")]
    assert len(argvs) == {"sweep": 4 * 39 + 8, "scan": 4 * 3 * 4 + 8, "seq": 4 * 8}[workload]
    for argv in argvs:
        fast = cli._fast_args(argv)
        assert fast is not None and vars(fast) == _parsed(argv), argv
