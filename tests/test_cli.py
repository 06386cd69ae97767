"""End-to-end checks of the command-line driver and its JSON schema."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbochner import bochner, feasibility
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
from flagbochner.matrices import CoordinateAtlas, build_Z
from flagbochner.poly import CoeffForm, Monomial

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


@pytest.mark.parametrize("group, black", [
    ("SU:3", "1,2"),  # BochnerIff at both degrees
    ("SU:4", "1,2,3"),  # NeverBochner: the elimination stops at full rank
    ("SOeven:4", "1,4"),  # BochnerIff, c1 = 2*c4
    ("Sp:3", "1,3"),  # NeverBochner
    ("SOodd:4", "2,3,4"),
])
def test_audited_case_renders_and_eliminates_once(monkeypatch, group, black):
    # the main report is a prefix of the audit's, so each audit entry is
    # rendered once (a witness once more) and each distinct form enters
    # the one elimination once, in report order, until full rank
    renders = []
    render = Monomial.render

    def counting_render(mono, names):
        renders.append(mono)
        return render(mono, names)

    read = []

    def recording_echelon(rows, *rest):
        def record():
            for row in rows:
                read.append(tuple(row))
                yield row
        return feasibility.echelon(record(), *rest)

    monkeypatch.setattr(Monomial, "render", counting_render)
    monkeypatch.setattr(bochner, "echelon", recording_echelon)
    doc = run_case(_case(group, black, audit=5))
    witnesses = [v["witness"] for v in (doc["verdict"], doc["audit"]["verdict"])
                 if v["witness"] is not None]
    assert len(renders) == len(doc["audit"]["forbidden"]) + len(witnesses)
    dia = PaintedDiagram(parse_group(group), parse_black(black))
    report = forbidden_report(forbidden_jet(dia, 5))
    rows = [tuple(dict(f.terms).get(p, 0) for p in dia.black)
            for f in dict.fromkeys(f for _, f in report.entries)]
    assert read == rows[:len(read)]
    assert len(read) == len(rows) or len(
        feasibility.echelon(read)) == len(dia.black)
    assert doc["forbidden"] == doc["audit"]["forbidden"][:len(doc["forbidden"])]


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
    # usage errors get one line and exit 1, not argparse's usage and exit 2
    (["--emit", "yaml"], "invalid choice"),
    (["--max-degree", "abc"], "invalid int value"),
    (["--bogus"], "unrecognized arguments"),
    (["--group"], "expected one argument"),
    # each mode names its own degree floor
    (["--group", "SU:3", "--black", "1", "--max-degree", "1"],
     "at least 3 for a verdict"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1",
      "--numeric-check", "--max-degree", "1"], "must be at least 2"),
    # Fraction(str) takes these on some Python versions only; --coeffs
    # takes one grammar on all of them
    (["--group", "SU:3", "--black", "1,2", "--coeffs", "1_000,1"],
     "item 1 ('1_000') is not a rational"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1 / 2"],
     "item 1 ('1 / 2') is not a rational"),
    # a value too long to read at once or to echo: Fraction would take
    # seconds on 1e10000000, and str() refuses the 5001 digits of 1e5000
    (["--group", "SU:3", "--black", "1", "--coeffs", "1e5000",
      "--emit", "json"], "item 1 has more than 1000 digits"),
    (["--group", "SU:3", "--black", "1,2", "--coeffs", "1,1e10000000"],
     "item 2 has more than 1000 digits"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1e-10000000",
      "--numeric-check"], "item 1 has more than 1000 digits"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1/" + "3" * 1000],
     "item 1 has more than 1000 digits"),
    # argparse keeps a repeated flag's last value; the request refuses it,
    # in any spelling argparse reads
    (["--group", "SU:3", "--group", "Sp:3", "--black", "1", "--black", "2"],
     "--group is given more than once"),
    (["--group", "SU:3", "--black", "1", "--black", "1"],
     "--black is given more than once"),
    (["--group", "SU:3", "--black", "1,2", "--max-degree=4", "--max-deg",
      "4"], "--max-degree is given more than once"),
    (["--sweep", "--sweep"], "--sweep is given more than once"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1", "--numeric-check",
      "--seed", "1", "--seed", "2"], "--seed is given more than once"),
    # int() reads other scripts' digits (here Arabic-Indic and fullwidth),
    # underscores and spaces; an integer flag takes ASCII digits only
    (["--group", "SU:3", "--black", "١"],
     "item 1 ('١') is not an integer"),
    (["--group", "SU:3", "--black", "1,２"],
     "item 2 ('２') is not an integer"),
    (["--group", "SU:٣", "--black", "1"],
     "rank '٣' is not an integer"),
    (["--group", "SU:3", "--black", "1", "--max-degree", "٣"],
     "argument --max-degree: invalid int value: '٣'"),
    (["--group", "SU:3", "--black", "1", "--audit-degree", "٥"],
     "argument --audit-degree: invalid int value: '٥'"),
    (["--group", "SU:3", "--black", "1", "--max-degree", "1_0"],
     "argument --max-degree: invalid int value: '1_0'"),
    (["--group", "SU:3", "--black", "1", "--max-degree", " 4"],
     "argument --max-degree: invalid int value: ' 4'"),
    (["--sweep", "--max-rank", "٣"],
     "argument --max-rank: invalid int value: '٣'"),
    (["--sweep", "--max-black", "٢"],
     "argument --max-black: invalid int value: '٢'"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1", "--numeric-check",
      "--samples", "٣"], "argument --samples: invalid int value"),
    (["--group", "SU:3", "--black", "1", "--coeffs", "1", "--numeric-check",
      "--seed", "٣"], "argument --seed: invalid int value"),
])
def test_exit_one_on_inconsistent_request(capsys, argv, reason):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and err.startswith("error: ") and reason in err


@pytest.mark.parametrize("request_of", [
    lambda value: ["--group", "SU:3", "--black", "1", "--max-degree", value],
    lambda value: ["--group", "SU:" + value, "--black", "1"],
])
def test_exit_one_on_an_integer_beyond_ints_digit_limit(capsys, request_of):
    # int() refuses more digits than sys.get_int_max_str_digits() with a
    # message naming that setting; the request names the value instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    assert main(request_of("9" * (limit + 1))) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("error: ")
    assert "set_int_max_str_digits" not in err


# tokens a command line may carry where a flag expects a value: a digit
# int() reads but ASCII lacks, empty, spaced, signed and underscored
# integers, one beyond int()'s digit limit and unknown families, alone and
# as a group's rank
_HOSTILE = ("\u0661", "", " 1", "+3", "-0", "1_000", "9" * 5000, "SO", "E8")
_HOSTILE += tuple("SU:" + token for token in _HOSTILE)

# the values each flag reads; every integer among them and in _HOSTILE
# keeps a request cheap: rank and degree <= 4, a sweep's --max-rank <= 3
_CASE_FLAGS = {
    "--group": st.builds("{}:{}".format,
                         st.sampled_from(("SU", "Sp", "SOeven", "SOodd")),
                         st.sampled_from(("3", "4", "2", "1"))),
    "--black": st.sampled_from(("1", "1,2", "2", "3,1", "1,2,3")),
    "--coeffs": st.sampled_from(("symbolic", "1", "1,2", "1/2,3", "2.5,1e3")),
    "--max-degree": st.sampled_from(("3", "4")),
    "--audit-degree": st.just("4"),
    "--emit": st.sampled_from(("json", "table")),
}
_SWEEP_FLAGS = {
    "--families": st.sampled_from(("SU", "Sp,SOodd", " SOeven , SU")),
    "--max-rank": st.sampled_from(("1", "2", "3")),
    "--max-black": st.sampled_from(("1", "2", "4")),
    "--max-degree": _CASE_FLAGS["--max-degree"],
    "--emit": _CASE_FLAGS["--emit"],
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_hostile_command_lines_answer_or_refuse_in_one_line(data):
    # a case names --group and --black, a sweep --max-rank, each with up
    # to two other flags of its mode.  A hostile request also draws values
    # from _HOSTILE, repeats flags, names a flag of either mode and may
    # lose its last value.  No --numeric-check: its tolerance fails large
    # coefficients with exit 3.
    sweep, hostile = data.draw(st.booleans()), data.draw(st.booleans())
    flags = _SWEEP_FLAGS if sweep else _CASE_FLAGS
    names = ["--max-rank"] if sweep else ["--group", "--black"]
    names += data.draw(st.lists(st.sampled_from(sorted(flags.keys() - names)),
                                unique=not hostile, max_size=2))
    if hostile:
        flags = {**_CASE_FLAGS, **_SWEEP_FLAGS}
        names += data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=1))
    pairs = []
    for name in data.draw(st.permutations(names)):
        values = flags[name]
        if hostile:
            values = st.one_of(values, st.sampled_from(_HOSTILE))
        pairs.append((name, data.draw(values)))
    argv = ["--sweep"] * sweep + [token for pair in pairs for token in pair]
    if hostile and data.draw(st.booleans()):
        argv.pop()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if rc == 0:
        assert out and not err, argv
        if ("--emit", "json") in pairs:
            json.loads(out)
    else:
        assert rc == 1, (argv, err)
        assert not out and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: "), (argv, err)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage: flagbochner" in capsys.readouterr().out


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


def test_case_request_checks_its_coefficients():
    # a library caller gets the command line's checks: every value read as
    # a Fraction, none at or below zero, and no string but "symbolic"
    group = GroupSpec(Family.SU, 3)
    for coeffs in ((Fraction(-1), Fraction(2)), (1, 0)):
        pos = 1 if coeffs[0] < 0 else 2
        with pytest.raises(ValueError,
                           match=f"invalid coeffs: item {pos} must be positive"):
            run_case(CaseRequest(group, (1, 2), coeffs, 3, None))
    with pytest.raises(ValueError, match="'symbolic' or numbers"):
        CaseRequest(group, (1, 2), "1,2", 3, None)
    request = CaseRequest(group, (2, 1), (0.75, 2), 3, None)
    assert request.coeffs == (Fraction(2), Fraction(3, 4))
    assert request.echo()["coeffs"] == ["2", "3/4"]
    assert run_case(request)["request"]["coeffs"] == ["2", "3/4"]


class _Index:
    """An integer by __index__ only, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_case_request_normalises_its_degrees():
    # integral degrees, as SweepRequest takes its bounds: a float degree
    # used to be accepted and fail inside the engine
    group = GroupSpec(Family.SU, 3)
    for degrees in ((3.5, None), (3, 4.5), (3, "5")):
        with pytest.raises(TypeError):
            CaseRequest(group, (1, 2), "symbolic", *degrees)
    request = CaseRequest(group, (1, 2), "symbolic", _Index(3), _Index(4))
    assert type(request.max_degree) is int and request.max_degree == 3
    assert type(request.audit_degree) is int and request.audit_degree == 4
    assert run_case(request)["request"] == run_case(
        CaseRequest(group, (1, 2), "symbolic", 3, 4))["request"]


def test_case_request_normalises_its_black_nodes():
    # the nodes are read as ints before they pair with the coefficients,
    # so the echo names the nodes the answer is for and a float node is
    # refused when the request is built
    group = GroupSpec(Family.SU, 3)
    doc = run_case(CaseRequest(group, (True, 2), "symbolic", 3, None))
    assert doc["request"]["black"] == [1, 2]
    assert all(type(b) is int for b in doc["request"]["black"])
    assert json.dumps(doc["request"]["black"]) == "[1, 2]"
    assert doc == run_case(CaseRequest(group, (1, 2), "symbolic", 3, None))
    request = CaseRequest(group, (_Index(2), 1), (3, 5), 3, None)
    assert request.black == (1, 2) and request.coeffs == (5, 3)
    with pytest.raises(TypeError):
        CaseRequest(group, (1.0, 2), "symbolic", 3, None)


def test_numeric_check_normalises_samples_and_seed():
    request = CaseRequest(GroupSpec(Family.SU, 3), (1, 2), (1, 2), 3, None)
    for samples, seed in ((2.5, 0), (2, 0.5), ("2", 0)):
        with pytest.raises(TypeError):
            run_numeric_check(request, samples, seed)
    doc = run_numeric_check(request, _Index(2), _Index(4))
    assert type(doc["seed"]) is int
    assert doc == run_numeric_check(request, 2, 4)


@pytest.mark.parametrize("pos", [1, 2])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_case_request_refuses_non_finite_coefficients(pos, value):
    # one line naming the item, where inf used to raise OverflowError
    coeffs = (value, 1) if pos == 1 else (1, value)
    with pytest.raises(ValueError,
                       match=rf"^invalid coeffs: item {pos} \({value!r}\) "
                             "is not a rational$"):
        CaseRequest(GroupSpec(Family.SU, 3), (1, 2), coeffs, 3, None)


def test_sweep_request_normalises_its_fields():
    # families by name and integral bounds, as GroupSpec takes them
    request = SweepRequest(("SU",), 3, 1, 3)
    assert request.families == (Family.SU,)
    assert run_sweep(request) == run_sweep(SweepRequest((Family.SU,), 3, 1, 3))
    with pytest.raises(ValueError, match="unknown family 'SO'"):
        SweepRequest(("SO",), 3, 1, 3)
    for bounds in ((2.5, 1, 3), (3, 1.0, 3), (3, 1, "3")):
        with pytest.raises(TypeError):
            SweepRequest((Family.SU,), *bounds)


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


@pytest.mark.parametrize("argv", [
    ["--group", "SU:3", "--black", "1,2", "--coeffs", "1e-150,1"],
    ["--group", "SU:4", "--black", "1,2,3", "--coeffs", "1e-150,1e-150,1"],
], ids=["SU3", "SU4"])
def test_numeric_check_passes_below_the_difference_error(capsys, argv):
    # the smallest Hessian eigenvalue, set by the tiny coefficients, is
    # below the finite-difference error, set by the largest one, so it
    # reads about -1e-8; the exact (1,1) part is positive, and the check
    # accepts any value above -nvars * HESSIAN_TOL
    rc = main(argv + ["--numeric-check", "--samples", "2", "--emit", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] and doc["min_hessian_eigenvalue"] < 0


def test_numeric_check_cli_passes(capsys):
    rc = main([
        "--group", "SU:3", "--black", "1", "--coeffs", "1",
        "--numeric-check", "--samples", "5", "--seed", "3",
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_numeric_check_table_lists_coeffs_as_given(capsys):
    # the first line writes the coefficients as --coeffs takes them, like
    # the black nodes beside them; the JSON keeps its list of strings
    argv = ["--group", "SOodd:3", "--black", "1,3", "--coeffs", "1,5/2",
            "--numeric-check", "--samples", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "numeric check: SOodd:3 black 1,3 coeffs 1,5/2"
    assert main(argv + ["--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["request"]["coeffs"] == ["1", "5/2"]


def test_numeric_check_refuses_a_non_nilpotent_chart(monkeypatch, capsys):
    # eval_numeric sums exp Z only to Z^(size - 1), so the check proves
    # Z^size = 0 first.  z_0 on the diagonal keeps z_0^k in every power;
    # at degree 2 diastasis forms only Z and Z^2 and would refuse the
    # chart for a pure term instead
    from flagbochner import cli, expansion

    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2)))
    bad = CoordinateAtlas(atlas.diagram, atlas.vars, atlas.size,
                          {**atlas.entries, (0, 0): (0, 1)})
    for module in (cli, expansion):
        monkeypatch.setattr(module, "build_Z", lambda diagram: bad)
    rc = main(["--group", "SU:3", "--black", "1,2", "--coeffs", "1,1",
               "--max-degree", "2", "--numeric-check", "--samples", "1"])
    assert rc == 2
    assert "Z is not nilpotent" in capsys.readouterr().err


def test_case_refuses_a_non_nilpotent_chart(monkeypatch, capsys):
    # the same patched chart in a single case: the case proves Z nilpotent
    # before the jet reads it, so the jet's torus-weight check never runs
    from flagbochner import cli, expansion

    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2)))
    bad = CoordinateAtlas(atlas.diagram, atlas.vars, atlas.size,
                          {**atlas.entries, (0, 0): (0, 1)})
    for module in (cli, expansion):
        monkeypatch.setattr(module, "build_Z", lambda diagram: bad)
    assert main(["--group", "SU:3", "--black", "1,2"]) == 2
    assert "Z is not nilpotent" in capsys.readouterr().err


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


@pytest.mark.parametrize("group, black, coeffs, samples", [
    ("SU:2", "1", "1", 10),  # one variable: two stencil points, stacks of 6
    ("Sp:3", "1,2,3", "1,5/2,3/4", 7),
    ("SOodd:4", "1,2,3,4", "1,2,3,4", 10),  # 267 points, stacks of 126
])
def test_numeric_check_evaluates_each_point_once_in_full_stacks(
        monkeypatch, group, black, coeffs, samples):
    # the samples follow the stencil's n^2 + 1 points in its stacks of at
    # most 8n - 2, so the origin is evaluated once, as the stencil's f(0)
    import numpy as np

    from flagbochner import expansion

    request = _case(group, black, coeffs)
    n = build_Z(PaintedDiagram(request.group, request.black)).nvars
    exact = expansion.eval_numeric
    seen = []

    def spy(atlas, points, cvals):
        values = exact(atlas, points, cvals)
        seen.append((np.asarray(points, dtype=complex), values))
        return values

    # every module-level binding of it, as bench/spans.py wraps a layer
    for name, module in list(sys.modules.items()):
        if (name.startswith("flagbochner")
                and getattr(module, "eval_numeric", None) is exact):
            monkeypatch.setattr(module, "eval_numeric", spy)
    doc = run_numeric_check(request, samples, 0)
    total, batch = n * n + 1 + samples, 8 * n - 2
    sizes = [len(p) for p, _ in seen]
    assert sum(sizes) == total
    assert len(sizes) == -(-total // batch)
    assert max(sizes) <= batch
    points = np.concatenate([p for p, _ in seen])
    values = np.concatenate([v for _, v in seen])
    assert np.flatnonzero(~points.any(axis=1)).tolist() == [0]
    assert doc["potential_at_zero"] == values[0]
    exact = [row["exact"] for row in doc["samples"]]
    assert exact == values[-samples:].tolist()


# ------------------------------------------------------------------ README

def test_readme_quickstart_prints_its_commented_values():
    # each `print(...)  # value` line of the block must print that value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library quickstart\n+```python\n(.*?)^```$",
                      readme, re.M | re.S).group(1)
    printed = {}

    def record(*args):
        line = sys._getframe(1).f_lineno
        printed.setdefault(line, []).append(" ".join(map(str, args)))

    exec(compile(block, "quickstart", "exec"), {"print": record})
    claims = {}
    for number, line in enumerate(block.splitlines(), 1):
        match = re.fullmatch(r"print\(.*\)\s+# (.+)", line)
        if match:
            claims[number] = [match.group(1)]
    assert list(claims.values()) == [
        ["BochnerStatus.BOCHNER_IFF"], ["c1 = 2*c4"], ["21"], ["9"]]
    assert {n: printed.get(n) for n in claims} == claims
