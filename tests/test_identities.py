"""Registry completeness, spot evaluations, and the sweep engine's
contracts: exhaustive mismatch reporting, canonical rational comparison,
and parallel determinism."""

import dataclasses
from fractions import Fraction

import pytest
from conftest import with_line
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, identities
from catalan_triangles.errors import DomainError, EmptyDomainError, IntegrityError, UnknownIdentityError, UsageError
from catalan_triangles.exact import binomial, harmonic
from catalan_triangles.identities import (
    IdentityDescriptor,
    evaluate_sides,
    get_identity,
    list_identities,
    verify_identity,
)
from catalan_triangles.triangles import _c_ext

REQUIRED_IDS = [
    "prop-recurrence",
    "rec-B",
    "rec-A",
    "thm-linear-sum",
    "thm-alt-sum",
    "cor-alt-B",
    "cor-alt-A",
    "eq-linear-B",
    "eq-linear-A",
    "eq-square-B",
    "eq-square-A",
    "eq-convolution",
    "thm-square-sum",
    "thm-alt-square-sum",
    "cor-square-i",
    "cor-square-ii",
    "cor-square-iii",
    "cor-square-iv",
    "thm-square-decomp-i",
    "thm-square-decomp-ii",
    "thm-square-decomp-remark",
    "eq-vandermonde",
    "eq-alt-square",
    "eq-amm",
    "thm-cube-sum",
    "thm-alt-cube-sum",
    "cor-cube-B",
    "cor-cube-A",
    "cor-alt-cube-A",
    "eq-dixon",
    "thm-b-cube",
    "rem-b-cube-factored",
    "rem-a-cube-factored",
    "thm-harmonic",
    "cor-harmonic-C",
    "cor-harmonic-B",
    "cor-harmonic-A",
    "rem-ps13",
    "rel-gen-catalan",
]


def test_registry_contains_every_required_id():
    registered = {ident.id for ident in list_identities()}
    missing = set(REQUIRED_IDS) - registered
    assert not missing


def test_descriptors_are_well_formed():
    for ident in list_identities():
        assert ident.statement
        assert ident.parameters
        assert ident.default_cap in (40, 100)
        assert callable(ident.lhs) and callable(ident.rhs)


def test_evaluate_sides_spot_values():
    assert evaluate_sides("thm-linear-sum", {"m": 6, "n": 3}) == (10, 10)
    assert evaluate_sides("cor-alt-B", {"n": 3}) == (-2, -2)
    assert evaluate_sides("thm-b-cube", {"n": 2}) == (9, 9)
    assert evaluate_sides("eq-convolution", {"n": 2, "i": 1}) == (6, 6)


def test_evaluate_sides_returns_exact_rationals():
    lhs, rhs = evaluate_sides("eq-linear-B", {"n": 2})
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    assert lhs == rhs == 3


def test_unknown_identity_is_reported_distinctly():
    with pytest.raises(UnknownIdentityError) as caught:
        evaluate_sides("no-such-identity", {"n": 1})
    assert "prop-recurrence" in str(caught.value)


@pytest.mark.parametrize("identity_id", [["eq-vandermonde"], 5, None, b"eq-vandermonde"])
@pytest.mark.parametrize("lookup", [get_identity, verify_identity, lambda id: evaluate_sides(id, {"n": 1})])
def test_an_id_that_is_not_a_registered_string_is_an_unknown_identity(lookup, identity_id):
    with pytest.raises(UnknownIdentityError, match="prop-recurrence"):
        lookup(identity_id)


@pytest.mark.parametrize("assignment", [None, [("n", 1)], "n", 1])
def test_an_assignment_that_is_not_a_mapping_is_a_domain_error(assignment):
    with pytest.raises(DomainError, match="an assignment maps parameter names to integers"):
        evaluate_sides("eq-vandermonde", assignment)


def test_constraint_violation_is_reported_distinctly():
    with pytest.raises(DomainError):
        evaluate_sides("eq-convolution", {"n": 2, "i": 3})  # needs i <= n
    with pytest.raises(DomainError):
        evaluate_sides("thm-linear-sum", {"m": 1, "n": 1})  # needs m >= 2
    with pytest.raises(DomainError):
        evaluate_sides("thm-b-cube", {"m": 2})  # wrong parameter name


@pytest.mark.parametrize(
    "options, named",
    [
        ({"ranges": {"n": (1,)}}, "n range"),
        ({"ranges": {"n": (1, 2.5)}}, "n range"),
        ({"ranges": {"m": (2, "9")}}, "m range"),
        ({"ranges": {"n": (True, 3)}}, "n range"),  # would run as (1, 3)
        ({"ranges": {"n": (1, 2, 3)}}, "n range"),  # would be cut to (1, 2)
        ({"ranges": {"n": 3}}, "n range"),
        ({"ranges": 5}, "ranges must map"),
        ({"ranges": [("n", 1, 2)]}, "ranges must map"),
        ({"ranges": [("n", (1, 3))]}, "ranges must map"),  # dict() would read it as {"n": (1, 3)}
        ({"ranges": []}, "ranges must map"),
        ({"cap": 2.5}, "cap"),
        ({"cap": True}, "cap"),
    ],
)
def test_a_malformed_range_or_cap_is_a_usage_error_naming_it(options, named):
    with pytest.raises(UsageError, match=named):
        verify_identity("thm-linear-sum", **options)
    with pytest.raises(UsageError, match=named):
        identities.effective_domain("thm-linear-sum", options.get("ranges"), options.get("cap"))


@pytest.mark.parametrize("value", [2.0, True, "2", None, Fraction(2)])
def test_a_value_that_is_not_an_int_is_a_domain_error(value):
    with pytest.raises(DomainError, match="n must be an integer"):
        evaluate_sides("thm-linear-sum", {"m": 5, "n": value})


def test_verify_recurrence_box():
    report = verify_identity("prop-recurrence", {"m": (1, 50), "k": (2, 50)})
    assert report.passed
    assert report.cells == 50 * 49
    assert report.domain == {"m": (1, 50), "k": (2, 50)}


def test_verify_convolution_triangle_domain():
    report = verify_identity("eq-convolution", {"n": (1, 30)})
    assert report.passed
    # i defaults to 1..cap but only cells with i <= n are admissible
    assert report.cells == 30 * 31 // 2


def test_verify_empty_range_is_usage_error():
    with pytest.raises(EmptyDomainError):
        verify_identity("thm-square-sum", {"m": (1, 0)})


def test_verify_range_below_minimum_is_usage_error():
    # the linear-sum theorem needs m >= 2, so m = 1..1 clips to nothing
    with pytest.raises(EmptyDomainError):
        verify_identity("thm-linear-sum", {"m": (1, 1)})


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_zero_is_a_cap_not_the_default(cap):
    with pytest.raises(EmptyDomainError):
        verify_identity("thm-linear-sum", cap=cap)


def test_cap_zero_keeps_a_parameter_that_starts_at_zero():
    assert verify_identity("eq-vandermonde", cap=0).cells == 1


def test_every_identity_passes_on_a_small_box():
    for ident in list_identities():
        report = verify_identity(ident.id, cap=15)
        assert report.passed, (ident.id, report.mismatches[:2])


def _swapped(ident):
    return IdentityDescriptor(
        id=ident.id + "-swapped",
        statement=ident.statement,
        parameters=ident.parameters,
        lhs=ident.rhs,
        rhs=ident.lhs,
        constraint=ident.constraint,
        default_cap=ident.default_cap,
    )


def test_swapping_sides_never_changes_the_outcome():
    for ident in list_identities():
        original = verify_identity(ident, cap=8)
        swapped = verify_identity(_swapped(ident), cap=8)
        assert original.status == swapped.status == "PASS"


def _perturbed(ident, cap=100):
    rhs = ident.rhs
    return IdentityDescriptor(
        id=ident.id + "-perturbed",
        statement=ident.statement + " + 1",
        parameters=ident.parameters,
        lhs=ident.lhs,
        rhs=lambda **kw: Fraction(rhs(**kw)) + 1,
        constraint=ident.constraint,
        default_cap=cap,
    )


def test_perturbed_identity_fails_everywhere():
    # the engine cannot silently pass: off-by-one on the right side must be
    # flagged on every admissible cell
    ident = _perturbed(get_identity("eq-linear-B"))
    report = verify_identity(ident, {"n": (1, 15)})
    assert report.status == "FAIL"
    assert len(report.mismatches) == report.cells == 15


def test_perturbed_swapped_still_fails():
    ident = _swapped(_perturbed(get_identity("eq-linear-A")))
    report = verify_identity(ident, {"n": (1, 10)})
    assert not report.passed
    assert len(report.mismatches) == 10


def test_mismatch_records_both_sides_verbatim():
    ident = _perturbed(get_identity("eq-linear-B"))
    report = verify_identity(ident, {"n": (2, 2)})
    (mismatch,) = report.mismatches
    assert mismatch.assignment == (("n", 2),)
    assert mismatch.lhs == 3
    assert mismatch.rhs == 4
    doc = mismatch.to_dict()
    assert doc == {"assignment": {"n": 2}, "lhs": "3", "rhs": "4"}


def test_int_sides_compare_as_ints_and_mismatches_record_fractions():
    true = get_identity("eq-linear-A")
    ident = dataclasses.replace(true, rhs=lambda n: true.rhs(n=n) + (n == 3))
    (mismatch,) = verify_identity(ident, {"n": (1, 5)}).mismatches
    assert type(mismatch.lhs) is Fraction and type(mismatch.rhs) is Fraction
    assert mismatch.to_dict() == {"assignment": {"n": 3}, "lhs": "20", "rhs": "21"}


@pytest.mark.parametrize("value", [0.5, 20.0, None, True, "20"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_side_that_is_not_an_int_or_a_fraction_raises_type_error(side, value):
    # never converted, so never counted as a pass: 20.0 == 20 and True == 1
    ident = dataclasses.replace(get_identity("eq-linear-A"), **{side: lambda n: value})
    with pytest.raises(TypeError, match=side):
        verify_identity(ident, {"n": (1, 3)})
    with pytest.raises(TypeError, match=side):
        evaluate_sides(ident, {"n": 3})


def test_harmonic_mismatch_prints_the_fraction_chain_values(capsys):
    # rhs + 1 at one cell: exactly one mismatch, whose sides print as the
    # Fraction chains of the identity's statement would
    true = get_identity("thm-harmonic")
    ident = dataclasses.replace(
        true, id="test-harmonic-plus-one", rhs=lambda m, n: true.rhs(m=m, n=n) + ((m, n) == (7, 4))
    )
    lhs = sum(_c_ext(7, k) * harmonic(k) for k in range(1, 5))
    rhs = binomial(6, 4) * harmonic(4) - Fraction(sum(binomial(7, k) for k in range(1, 5)), 7) + 1
    identities.register(ident)
    try:
        code = cli.main(["verify", ident.id, "--m", "1..9", "--n", "1..9", "--no-timing"])
    finally:
        del identities._REGISTRY[ident.id]
    assert code == 1
    assert capsys.readouterr().out == (
        "test-harmonic-plus-one: FAIL (81 cells)\n  mismatch at m=7 n=4: lhs=%s rhs=%s\n" % (lhs, rhs)
    )
    assert lhs.denominator > 1 and rhs - lhs == 1


def test_mismatches_are_canonically_sorted():
    ident = _perturbed(get_identity("thm-square-sum"))
    report = verify_identity(ident, {"m": (1, 4), "n": (1, 3)}, parallelism=3)
    cells = [tuple(v for _, v in m.assignment) for m in report.mismatches]
    assert cells == sorted(cells)
    assert len(cells) == 12


def test_parallel_report_equals_serial_report():
    for jobs in (2, 4, 8):
        serial = verify_identity("thm-square-sum", {"m": (1, 20), "n": (1, 20)}, parallelism=1)
        parallel = verify_identity("thm-square-sum", {"m": (1, 20), "n": (1, 20)}, parallelism=jobs)
        assert serial.to_dict(include_timing=False) == parallel.to_dict(include_timing=False)


def test_fail_fast_stops_at_first_mismatch():
    ident = _perturbed(get_identity("eq-linear-B"))
    report = verify_identity(ident, {"n": (1, 50)}, fail_fast=True)
    assert len(report.mismatches) == 1
    assert report.cells < 50


def test_fail_fast_cell_count_does_not_depend_on_parallelism():
    true = get_identity("thm-square-sum")
    ident = dataclasses.replace(true, rhs=lambda m, n: true.rhs(m=m, n=n) + (m == 7))
    reports = [
        verify_identity(ident, {"m": (1, 12), "n": (1, 12)}, parallelism=jobs, fail_fast=True)
        for jobs in (1, 8)
    ]
    assert reports[0] == reports[1]
    # the first mismatch in cell order is (7, 1), after 6 full rows of 12
    assert reports[0].cells == 6 * 12 + 1
    assert [m.assignment for m in reports[0].mismatches] == [(("m", 7), ("n", 1))]


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_line_function_with_a_pair_count_other_than_its_cell_count_is_an_integrity_error(extra, monkeypatch, capsys):
    # the right side is one too large at n = 5, the last cell of each line, which a line one pair
    # short never flags; a line one pair long, which zip-like code cuts to the cells, flags nothing
    true = get_identity("thm-linear-sum")
    rhs = lambda m, n: true.rhs(m=m, n=n) + (n == 5)
    wrong = with_line(true, lambda m, ns: [(1, 1)] * (len(ns) + extra), rhs=rhs)
    ranges = {"m": (6, 8), "n": (1, 5)}
    with pytest.raises(IntegrityError, match="thm-linear-sum: line function gave %d pairs for 5 cells" % (5 + extra)):
        verify_identity(wrong, ranges)
    assert len(verify_identity(dataclasses.replace(wrong), ranges).mismatches) == 3  # a copy runs cell by cell
    monkeypatch.setitem(identities._REGISTRY, "thm-linear-sum", wrong)
    assert cli.main(["verify", "thm-linear-sum", "--m", "6..8", "--n", "1..5", "--no-timing"]) == cli.EXIT_INTERNAL == 3
    assert "line function gave %d pairs for 5 cells" % (5 + extra) in capsys.readouterr().err


def test_allow_outside_domain_explores_beyond_constraints():
    # the alternating-sum identity is stated for n <= m-1 but its
    # zero-extended reading happens to hold beyond; exploration must at
    # least run those extra cells rather than filtering them away
    constrained = verify_identity("thm-alt-sum", {"m": (2, 10), "n": (1, 10)})
    explored = verify_identity("thm-alt-sum", {"m": (2, 10), "n": (1, 10)}, allow_outside_domain=True)
    assert constrained.cells < explored.cells == 90


def test_report_dict_schema():
    report = verify_identity("thm-b-cube", {"n": (1, 12)})
    doc = report.to_dict()
    assert set(doc) == {"identity", "domain", "cells", "status", "mismatches", "elapsed_ms"}
    assert doc["identity"] == "thm-b-cube"
    assert doc["domain"] == {"n": [1, 12]}
    assert doc["cells"] == 12
    assert doc["status"] == "PASS"
    assert doc["mismatches"] == []
    assert set(report.to_dict(include_timing=False)) == {
        "identity", "domain", "cells", "status", "mismatches",
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_admissible_cells_balance(data):
    ident = data.draw(st.sampled_from(list_identities()))
    assignment = {}
    for parameter in ident.parameters:
        assignment[parameter.name] = data.draw(
            st.integers(parameter.minimum, parameter.minimum + 25), label=parameter.name
        )
    if ident.constraint is not None and not ident.constraint(**assignment):
        return
    lhs, rhs = evaluate_sides(ident, assignment)
    assert lhs == rhs


def test_registering_an_existing_id_is_a_usage_error():
    with pytest.raises(UsageError, match="already registered"):
        identities.register(get_identity("thm-harmonic"))
