"""CLI behavior end to end: exact output bytes, exit-code discipline,
format stability, and checkpointed scans."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from catalan_triangles import cli, exact, identities
from catalan_triangles.conjectures import load_checkpoint, scan_divisibility
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
    # an exact step that leaves a remainder is a bug, not a bad request
    real = exact.comb
    monkeypatch.setattr(exact, "comb", lambda u, v: real(u, v) + ((u, v) == (40, 0)))
    assert cli.main(["seq", "c-row:40", "0", "41"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "internal error: IntegrityError: binomials: run ending at binomial(40, 40) disagrees with comb()"
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
    ],
)
def test_seq_invalid_specs_exit_2(args):
    assert run_cli(*args).returncode == 2


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


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(spec):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli.triangles, "generate", broken)
    assert cli.main(["seq", "catalan", "0", "3"]) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: injected fault" in captured.err


def test_a_reader_that_closes_the_pipe_early_gets_exit_141_and_no_traceback():
    # 2.7 MB of output, far more than a pipe buffers, so the writer is still printing when the reader goes
    argv = [sys.executable, "-m", "catalan_triangles", "seq", "c-row:3000", "0", "3001", "--format", "plain-table"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(5) == b"   0 "
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_jobs_env_var_default():
    env = dict(os.environ, CATALAN_TRIANGLES_JOBS="4")
    result = run_cli("verify", "eq-vandermonde", "--n", "0..30", "--format", "json",
                     "--no-timing", env=env)
    assert result.returncode == 0
    assert json.loads(result.stdout)["cells"] == 31


def test_identical_invocations_are_bit_identical():
    first = run_cli("seq", "a", "0", "8", "--format", "oeis-bfile")
    second = run_cli("seq", "a", "0", "8", "--format", "oeis-bfile")
    assert first.stdout == second.stdout
