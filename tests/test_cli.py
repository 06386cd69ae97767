"""End-to-end checks of the command-line driver and its JSON schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagbochner.bochner import (
    BochnerStatus,
    ForbiddenReport,
    classify,
    forbidden_report,
    verdict_from_report,
)
from flagbochner.cli import (
    CaseRequest,
    NumericCheckFailure,
    SweepRequest,
    _forbidden_json,
    main,
    parse_black,
    parse_coeffs,
    parse_group,
    run_case,
    run_numeric_check,
    run_sweep,
)
from flagbochner.expansion import forbidden_jet
from flagbochner.lie_core import Family, GroupSpec, PaintedDiagram
from flagbochner.matrices import build_Z
from flagbochner.poly import CoeffForm

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


@pytest.mark.parametrize("family, rank, black", [
    (Family.SU, 4, (1, 3)),  # BochnerIff
    (Family.SP, 3, (1, 2, 3)),  # NeverBochner
    (Family.SO_EVEN, 5, (1, 5)),  # BochnerIff, c1 = 2*c5
])
def test_reports_read_forms_by_value(family, rank, black):
    # the jet shares one form object among many monomials; a report whose
    # forms are equal copies, none shared, must read the same
    dia = PaintedDiagram(GroupSpec(family, rank), black)
    report = forbidden_report(forbidden_jet(dia, 4))
    copies = ForbiddenReport(
        tuple((m, CoeffForm(f.terms)) for m, f in report.entries),
        report.degree_checked,
    )
    assert report.entries
    assert not any(f is g for (_, f), (_, g) in zip(report.entries,
                                                    copies.entries))
    assert (verdict_from_report(copies, dia.black)
            == verdict_from_report(report, dia.black))
    names = build_Z(dia).var_names()
    cvals = {k: k + 1 for k in dia.black}
    for values in (None, cvals):
        assert (_forbidden_json(copies, names, values)
                == _forbidden_json(report, names, values))


def test_the_verdict_path_does_not_load_numpy():
    # only the numeric check needs numpy; the benchmark's setup time and a
    # plain case or sweep assume the import, a case and a sweep leave it
    # unloaded
    code = "\n".join([
        "import sys",
        "from flagbochner.cli import main",
        "assert 'numpy' not in sys.modules, 'import'",
        "argv = ['--group', 'SOodd:4', '--black', '2,3,4', '--coeffs',",
        "        '1,2,3', '--audit-degree', '5', '--emit', 'json']",
        "assert main(argv) == 0",
        "assert 'numpy' not in sys.modules, 'case'",
        "assert main(['--sweep', '--max-rank', '3', '--max-black', '2']) == 0",
        "assert 'numpy' not in sys.modules, 'sweep'",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def test_exit_one_without_a_traceback_when_stdout_closes_early():
    # a reader that stops after one line (`| head -1`) closes the pipe
    # while far more than a pipe buffer of JSON is still to be written
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = ["--group", "SOodd:8", "--black", "1,2,3,4", "--max-degree", "6",
            "--emit", "json"]
    with subprocess.Popen([sys.executable, "-m", "flagbochner.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


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
    (["--sweep", "--families", "SU", "--max-rank", "2", "--max-black", "1",
      "--max-degree", "0"], "between 3 and 6"),
    (["--sweep", "--families", "SU", "--max-rank", "2", "--max-black", "1",
      "--max-degree", "1"], "between 3 and 6"),
    (["--sweep", "--families", "SU", "--max-rank", "2", "--max-black", "1",
      "--max-degree", "7"], "between 3 and 6"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--audit-degree", "5"], "--audit-degree"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--samples", "1001"], "--samples"),
    # float() overflows on 1e400 and rounds 1e-400 to 0.0
    (["--group", "SU:3", "--black", "1", "--coeffs", "1e400",
      "--numeric-check"], "between 1e-150 and 1e150"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1e-400",
      "--numeric-check"], "between 1e-150 and 1e150"),
    (["--group", "SU:3", "--black", "1,2", "--coeffs", "1,1e151",
      "--numeric-check"], "for node 2"),
    # sweeps that would print a doubled or an empty table
    (["--sweep", "--families", "SU,SU", "--max-rank", "3"],
     "SU more than once"),
    (["--sweep", "--families", "Sp,SOodd,Sp", "--max-rank", "2"],
     "Sp more than once"),
    (["--sweep", "--max-rank", "0"], "admit no painting"),
    (["--sweep", "--max-rank", "-3"], "admit no painting"),
    (["--sweep", "--max-black", "0"], "admit no painting"),
    (["--sweep", "--families", "SU,SOeven", "--max-rank", "1"],
     "admit no painting"),
    # a flag its mode does not read is refused, not ignored
    (["--sweep", "--audit-degree", "5"],
     "--audit-degree does not apply to --sweep"),
    (["--sweep", "--coeffs", "1,2"], "--coeffs does not apply to --sweep"),
    (["--sweep", "--group", "SU:4", "--black", "1"],
     "--group does not apply to --sweep"),
    (["--sweep", "--numeric-check", "--samples", "5"],
     "--numeric-check does not apply to --sweep"),
    (["--group", "SU:4", "--black", "1", "--samples", "5"],
     "--samples does not apply to a single case"),
    (["--group", "SU:4", "--black", "1", "--seed", "4"],
     "--seed does not apply to a single case"),
    (["--group", "SU:4", "--black", "1", "--max-rank", "5"],
     "--max-rank does not apply to a single case"),
    (["--group", "SU:4", "--black", "1", "--families", "SU"],
     "--families does not apply to a single case"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--max-black", "2"],
     "--max-black does not apply to --numeric-check"),
    # given at its default value, a flag is still part of the request
    (["--group", "SU:4", "--black", "1", "--samples", "10"],
     "--samples does not apply to a single case"),
    # the painting, not the request, refuses a repeated node
    (["--group", "SU:4", "--black", "1,1", "--coeffs", "1,2"],
     "node 1 more than once"),
    # no forbidden monomial has degree 2, so a verdict there is vacuous
    (["--sweep", "--families", "SU", "--max-rank", "3", "--max-black", "2",
      "--max-degree", "2"], "between 3 and 6"),
    (["--group", "SU:3", "--black", "1,2", "--max-degree", "2"],
     "at least 3 for a verdict"),
    (["--group", "SU:3", "--black", "1,2", "--max-degree", "2",
      "--audit-degree", "4"], "at least 3 for a verdict"),
])
def test_exit_one_on_inconsistent_request(capsys, argv, reason):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and err.startswith("error: ") and reason in err


def test_case_request_rejects_degree_below_two():
    with pytest.raises(ValueError, match="at least 2"):
        _case("SU:3", "1", max_degree=1)


def test_degree_two_has_no_verdict_but_a_numeric_check():
    # degree 2 carries the (1,1) part, which the numeric check compares,
    # but no forbidden monomial: SU(3) black {1,2} is Bochner iff c1 = c2,
    # which a degree-2 verdict would miss
    dia = PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2))
    with pytest.raises(ValueError, match="at least 3"):
        classify(dia, 2)
    with pytest.raises(ValueError, match="at least 3"):
        run_case(_case("SU:3", "1,2", max_degree=2))
    assert classify(dia, 3).status is BochnerStatus.BOCHNER_IFF
    doc = run_numeric_check(_case("SU:3", "1,2", "1,2", max_degree=2), 2, 0)
    assert doc["passed"] and doc["request"]["max_degree"] == 2


@pytest.mark.parametrize("audit", [2, 3])
def test_case_request_rejects_audit_not_above_max_degree(audit):
    # an audit at or below the main degree re-checks nothing; the API used
    # to return it as a vacuous BochnerForAllC audit
    with pytest.raises(ValueError, match="--audit-degree must exceed"):
        run_case(CaseRequest(GroupSpec(Family.SP, 2), (1, 2), "symbolic",
                             3, audit))


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


@pytest.mark.parametrize("coeffs", ["1e-150", "1e150"])
def test_numeric_check_runs_at_the_range_ends(coeffs):
    # no overflow at either end; 1e150 then fails the absolute Hessian
    # tolerance (exit 3), not the float range
    try:
        doc = run_numeric_check(_case("SU:3", "1", coeffs), 2, 0)
    except NumericCheckFailure as err:
        doc = err.doc
    assert doc["min_hessian_eigenvalue"] > 0


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


def test_sweep_keeps_a_bounded_number_of_charts():
    # each chart holds its powers of Z, so a sweep must not keep them all
    build_Z.cache_clear()
    doc = run_sweep(SweepRequest(
        families=tuple(Family), max_rank=5, max_black=3, degree=3
    ))
    info = build_Z.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < len(doc["rows"])


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
