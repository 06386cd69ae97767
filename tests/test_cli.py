"""End-to-end checks of the command-line driver and its JSON schema."""

import json

import pytest

from flagbochner.cli import (
    CaseRequest,
    SweepRequest,
    main,
    parse_black,
    parse_coeffs,
    parse_group,
    run_case,
    run_numeric_check,
    run_sweep,
)
from flagbochner.lie_core import Family


# ----------------------------------------------------------------- parsing

def test_parse_group_accepts_all_families():
    assert parse_group("SU:4").family is Family.SU
    assert parse_group("Sp:3").rank == 3
    assert parse_group("SOeven:5").matrix_size == 10
    assert parse_group("SOodd:4").matrix_size == 9


def test_parse_group_reports_reason():
    with pytest.raises(ValueError, match="FAMILY:RANK"):
        parse_group("SU4")
    with pytest.raises(ValueError, match="unknown family"):
        parse_group("SO:4")
    with pytest.raises(ValueError, match="not an integer"):
        parse_group("SU:x")


def test_parse_black_and_coeffs_report_position():
    with pytest.raises(ValueError, match="item 2"):
        parse_black("1,x")
    with pytest.raises(ValueError, match="item 1"):
        parse_coeffs("zero")
    with pytest.raises(ValueError, match="positive"):
        parse_coeffs("1,-2")
    assert parse_coeffs("symbolic") == "symbolic"
    assert [str(c) for c in parse_coeffs("1,2/3")] == ["1", "2/3"]


# --------------------------------------------------------------- run_case

def _case(group, black, coeffs="symbolic", max_degree=3, audit=None):
    return CaseRequest(
        group=parse_group(group),
        black=parse_black(black),
        coeffs=parse_coeffs(coeffs),
        max_degree=max_degree,
        audit_degree=audit,
    )


def test_run_case_su4_grassmannian():
    doc = run_case(_case("SU:4", "2"))
    assert doc["schema_version"] == 1
    assert doc["diagram"]["dim"] == 4
    assert doc["diagram"]["b2"] == 1
    assert doc["verdict"]["status"] == "BochnerForAllC"
    assert doc["nilpotency"] == 2
    assert doc["forbidden"] == []


def test_run_case_so_even_fork_constraint():
    doc = run_case(_case("SOeven:5", "1,5"))
    assert doc["verdict"]["status"] == "BochnerIff"
    assert doc["verdict"]["constraints"][0]["text"] == "c1 = 2*c5"
    assert doc["verdict"]["constraints"][0]["coeffs"] == {"c1": "1", "c5": "-2"}


def test_run_case_so_odd_never_bochner():
    doc = run_case(_case("SOodd:3", "1,3"))
    assert doc["verdict"]["status"] == "NeverBochner"
    assert doc["verdict"]["witness"] is not None
    assert doc["verdict"]["witness"]["sign_definite"] is True


def test_run_case_audit_degree_included():
    doc = run_case(_case("SU:3", "1", audit=5))
    assert doc["audit"]["degree"] == 5
    assert doc["audit"]["verdict"]["status"] == "BochnerForAllC"


def test_run_case_audit_leaves_main_report_unchanged():
    plain = run_case(_case("Sp:3", "1,3"))
    audited = run_case(_case("Sp:3", "1,3", audit=5))
    assert audited["verdict"] == plain["verdict"]
    assert audited["forbidden"] == plain["forbidden"]
    assert audited["verdict"]["degree_checked"] == 3
    assert audited["audit"]["verdict"]["degree_checked"] == 5


def test_json_round_trip_reproduces_verdict():
    doc = run_case(_case("SOeven:4", "1,4"))
    text = json.dumps(doc, indent=2)
    parsed = json.loads(text)
    assert parsed == doc
    assert parsed["verdict"] == doc["verdict"]


def test_output_byte_deterministic(capsys):
    argv = ["--group", "Sp:2", "--black", "1,2", "--emit", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# -------------------------------------------------------------- exit codes

def test_exit_zero_regardless_of_verdict(capsys):
    assert main(["--group", "Sp:2", "--black", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "NeverBochner" in out


def test_exit_one_on_validation_error(capsys):
    assert main(["--group", "SU:1", "--black", "1"]) == 1
    assert capsys.readouterr().err
    assert main(["--group", "SU:4"]) == 1
    assert main(["--group", "SOodd:4", "--black", "3"]) == 1
    assert main(["--group", "SU:4", "--black", "1", "--audit-degree", "2"]) == 1


@pytest.mark.parametrize("argv, reason", [
    (["--group", "SU:4", "--black", "1,2", "--coeffs", "1"], "got 1"),
    (["--group", "SU:4", "--black", "1,2", "--coeffs", "1,2,3"], "got 3"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--samples", "0"], "--samples"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--samples", "-2"], "--samples"),
    (["--group", "SU:4", "--black", "1,1"], "node 1 more than once"),
    (["--group", "SU:9", "--black", "1"], "rank is capped at 8"),
    (["--group", "SU:3", "--black", "1", "--max-degree", "7"], "capped at 6"),
    (["--group", "SU:3", "--black", "1", "--audit-degree", "7"], "capped at 6"),
])
def test_exit_one_on_inconsistent_request(capsys, argv, reason):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and err.startswith("error: ") and reason in err


@pytest.mark.parametrize("extra", [[], ["--numeric-check", "--samples", "2"]])
def test_coeffs_follow_their_black_node(capsys, extra):
    outs = []
    for black, coeffs in (("3,1", "1,2"), ("1,3", "2,1")):
        argv = ["--group", "SU:4", "--black", black, "--coeffs", coeffs,
                "--emit", "json", *extra]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    request = json.loads(outs[0])["request"]
    assert request["black"] == [1, 3] and request["coeffs"] == ["2", "1"]


def test_numeric_check_cli_passes(capsys):
    rc = main([
        "--group", "SU:3", "--black", "1", "--coeffs", "1",
        "--numeric-check", "--samples", "5", "--seed", "3",
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_numeric_check_requires_numeric_coeffs(capsys):
    rc = main(["--group", "SU:3", "--black", "1", "--numeric-check"])
    assert rc == 1


# --------------------------------------------------------------- run_sweep

def test_sweep_su_rank4_two_black_all_iff_equal():
    request = SweepRequest(
        families=(Family.SU,), max_rank=4, max_black=2, degree=3
    )
    doc = run_sweep(request)
    two_black = [r for r in doc["rows"] if len(r["black"]) == 2]
    assert two_black
    for row in two_black:
        assert row["verdict"] == "BochnerIff"
        k, r = row["black"]
        assert row["constraints"] == [f"c{k} = c{r}"]


def test_sweep_sp_only_single_black_is_bochner():
    request = SweepRequest(
        families=(Family.SP,), max_rank=4, max_black=3, degree=3
    )
    doc = run_sweep(request)
    for row in doc["rows"]:
        if row["verdict"] != "NeverBochner":
            assert len(row["black"]) == 1
            assert row["verdict"] == "BochnerForAllC"


def test_sweep_so_even_fork_rows():
    request = SweepRequest(
        families=(Family.SO_EVEN,), max_rank=5, max_black=2, degree=3
    )
    doc = run_sweep(request)
    iff_rows = [r for r in doc["rows"] if r["verdict"] == "BochnerIff"]
    assert iff_rows
    for row in iff_rows:
        assert row["black"] == [1, row["rank"]]
    assert doc["rejected"]  # the disallowed fork paintings are reported


def test_sweep_guardrails():
    request = SweepRequest(
        families=(Family.SU,), max_rank=20, max_black=2, degree=3
    )
    with pytest.raises(ValueError, match="capped"):
        run_sweep(request)


def test_sweep_cli_table(capsys):
    rc = main(["--sweep", "--families", "SU", "--max-rank", "3",
               "--max-black", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SU(3)" in out and "BochnerIff" in out


# ----------------------------------------------------------- numeric check

def test_run_numeric_check_deterministic():
    request = _case("SU:3", "1,2", coeffs="1,1")
    doc1 = run_numeric_check(request, samples=4, seed=11)
    doc2 = run_numeric_check(request, samples=4, seed=11)
    assert doc1 == doc2
    assert doc1["passed"] is True
    assert doc1["hessian_max_abs_err"] <= 1e-6
    assert doc1["min_hessian_eigenvalue"] > 0
    assert doc1["potential_at_zero"] == 0.0
