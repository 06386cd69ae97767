"""Command-line driver: single-case reports, classification sweeps and the
numeric spot-check harness.

Group strings follow FAMILY:RANK with FAMILY in {SU, Sp, SOeven, SOodd}:
SU:d is SU(d), Sp:d is Sp(d), SOeven:d is SO(2d), SOodd:d is SO(2d+1).
Output is a human table by default or JSON (--emit json) with a versioned
schema.  Exit codes: 0 success (whatever the verdict), 1 invalid request,
2 internal invariant violation, 3 numeric-check failure.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bochner import (
    BochnerVerdict,
    ForbiddenReport,
    classify,
    forbidden_report,
    render_constraint,
    verdicts,
)
from .expansion import (
    LOWEST_DEGREE,
    LOWEST_VERDICT_DEGREE,
    coefficient,
    coefficients,
    diastasis,
    forbidden_jet,
    hessian_fd,
    symbolic_metric,
    truncated_value,
)
from .lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
    poincare,
)
from .matrices import build_Z, nilpotency_index
from .poly import EngineInvariantError, render_signed_sum

SCHEMA_VERSION = 1

# numeric harness tolerances; the potential bound scales like the first
# dropped degree, with an engineering margin for coefficient growth
HESSIAN_TOL = 1e-6
POTENTIAL_TOL_FACTOR = 64.0
SAMPLE_RADIUS = 0.05
# the float lane scales, sums and (in the finite-difference Hessian) divides
# the coefficients; half the double exponent range leaves room for all of
# it, where float() overflows on 1e400 and rounds 1e-400 to 0.0
NUMERIC_COEFF_EXPONENT = 150

# guardrails so a request always terminates in reasonable time; a single
# case shares the sweep's rank cap, and both share one degree cap: the
# largest degree the tests, the README and the benchmark use
MAX_SWEEP_RANK = 8
MAX_SWEEP_BLACK = 4
MAX_CASE_DEGREE = 6
MAX_SAMPLES = 1000


class NumericCheckFailure(RuntimeError):
    def __init__(self, message: str, doc: dict):
        super().__init__(message)
        self.doc = doc


@dataclass(frozen=True)
class CaseRequest:
    group: GroupSpec
    black: tuple[int, ...]
    coeffs: object  # "symbolic" or tuple of positive Fractions
    max_degree: int
    audit_degree: int | None

    def __post_init__(self):
        # nodes and degrees read as ints: the echo shows the nodes answered
        # for, and a float fails here rather than inside the engine
        object.__setattr__(self, "black", tuple(map(operator.index, self.black)))
        object.__setattr__(self, "max_degree", operator.index(self.max_degree))
        if self.audit_degree is not None:
            object.__setattr__(self, "audit_degree", operator.index(self.audit_degree))
        if self.group.rank > MAX_SWEEP_RANK:
            raise ValueError(f"--group rank is capped at {MAX_SWEEP_RANK}")
        # the numeric check compares the (1,1) part, which degree 2
        # carries; a verdict needs more, which main checks first
        if self.max_degree < LOWEST_DEGREE:
            raise ValueError(f"--max-degree must be at least {LOWEST_DEGREE}")
        # an audit at or below the main degree would re-check nothing
        audit = self.audit_degree
        if audit is not None and audit <= self.max_degree:
            raise ValueError("--audit-degree must exceed --max-degree")
        if (audit or self.max_degree) > MAX_CASE_DEGREE:
            raise ValueError(
                f"--max-degree and --audit-degree are capped at {MAX_CASE_DEGREE}"
            )
        values = coefficients(self.black, self.coeffs)
        if values is None:
            object.__setattr__(self, "coeffs", "symbolic")
        else:
            # the engine pairs coefficients with the sorted black nodes, so
            # sort the pairs together and the echo shows the pairing used
            pairs = sorted(zip(self.black, values))
            object.__setattr__(self, "coeffs", tuple(c for _, c in pairs))
        object.__setattr__(self, "black", tuple(sorted(self.black)))

    def echo(self) -> dict:
        return {
            "group": f"{self.group.family.value}:{self.group.rank}",
            "black": list(self.black),
            "coeffs": (
                "symbolic" if self.coeffs == "symbolic"
                else [str(c) for c in self.coeffs]
            ),
            "max_degree": self.max_degree,
            "audit_degree": self.audit_degree,
        }


@dataclass(frozen=True)
class SweepRequest:
    families: tuple[Family, ...]
    max_rank: int
    max_black: int
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(map(Family, self.families)))
        for name in ("max_rank", "max_black", "degree"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    def echo(self) -> dict:
        return {
            "families": [f.value for f in self.families],
            "max_rank": self.max_rank,
            "max_black": self.max_black,
            "degree": self.degree,
        }


# int() also reads the digits of other scripts, "_" and spaces; an integer
# in a request is an optional sign, then ASCII digits
_INTEGER = re.compile(r"[-+]?[0-9]+")


def _ascii_int(text: str) -> int:
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"invalid int value: {text!r}")


def _int_flag(text: str) -> int:
    """_ascii_int as an argparse type, which keeps its message."""
    try:
        return _ascii_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def parse_group(text: str) -> GroupSpec:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(
            f"invalid group {text!r}: expected FAMILY:RANK, e.g. SU:4"
        )
    family = Family(parts[0])
    try:
        rank = _ascii_int(parts[1])
    except ValueError:
        raise ValueError(
            f"invalid group {text!r}: rank {parts[1]!r} is not an integer"
        ) from None
    return GroupSpec(family, rank)


def parse_black(text: str) -> tuple[int, ...]:
    out = []
    for pos, token in enumerate(text.split(","), 1):
        token = token.strip()
        try:
            out.append(_ascii_int(token))
        except ValueError:
            raise ValueError(
                f"invalid black list: item {pos} ({token!r}) is not an integer"
            ) from None
    return tuple(out)


# Fraction(str) accepts "1_000" from Python 3.11 on and "1 / 2" from 3.12
# on, so a token must first match 3.10's grammar in ASCII digits: a sign,
# then digits with "/digits", or a decimal with an optional exponent
_RATIONAL = re.compile(
    r"[-+]?(?=\.?[0-9])[0-9]*(?:/[0-9]+|(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?)")
# the digits of a token, its exponent counted as that many zeros, bound the
# digits of its value, which Fraction then reads at once and str() echoes
MAX_COEFF_DIGITS = 1000


def parse_coeffs(text: str):
    if text == "symbolic":
        return "symbolic"
    out = []
    for pos, token in enumerate(text.split(","), 1):
        token = token.strip()
        matched = _RATIONAL.fullmatch(token)
        mantissa, _, exp = token.lower().partition("e")
        exp = exp.lstrip("+-").lstrip("0")
        # five digits of exponent are too many already; int() reads no more
        if matched and (len(exp) > 4 or sum(map(str.isdigit, mantissa))
                        + int(exp or 0) > MAX_COEFF_DIGITS):
            raise ValueError(
                f"invalid coeffs: item {pos} has more than {MAX_COEFF_DIGITS} "
                "digits, counting its exponent as that many zeros")
        if not matched:
            raise ValueError(
                f"invalid coeffs: item {pos} ({token!r}) is not a rational")
        out.append(coefficient(pos, token))
    return tuple(out)


def _form_json(form) -> dict:
    return {f"c{k}": str(lam) for k, lam in form.terms}


def _verdict_json(verdict: BochnerVerdict, names) -> dict:
    doc = {
        "status": verdict.status.value,
        "constraints": [
            {
                "text": render_constraint(row, verdict.black),
                "coeffs": {
                    f"c{p}": str(x)
                    for p, x in zip(verdict.black, row) if x
                },
            }
            for row in verdict.constraints
        ],
        "degree_checked": verdict.degree_checked,
    }
    if verdict.witness is not None:
        mono, form = verdict.witness
        doc["witness"] = {
            "monomial": mono.render(names),
            "coeff_form": _form_json(form),
            "sign_definite": bool(form.orthant_sign()),
        }
    else:
        doc["witness"] = None
    return doc


def _forbidden_json(report: ForbiddenReport, names, cvals=None) -> list[dict]:
    out = []
    done = {}  # many monomials share one form
    for mono, form in report.entries:
        if form not in done:
            value = None if cvals is None else str(form.evaluate(cvals))
            done[form] = (_form_json(form), value)
        doc, value = done[form]
        entry = {"monomial": mono.render(names), "coeff_form": dict(doc)}
        if value is not None:
            entry["value"] = value
        out.append(entry)
    return out


def _diagram_json(diagram: PaintedDiagram, dim: int) -> dict:
    return {
        "family": diagram.group.family.value,
        "rank": diagram.group.rank,
        "group": diagram.group.label(),
        "black": list(diagram.black),
        "dim": dim,
        "b2": diagram.b2,
        "poincare": list(poincare(diagram)),
    }


def _check_verdict_degree(max_degree: int) -> None:
    if max_degree < LOWEST_VERDICT_DEGREE:
        raise ValueError(
            f"--max-degree must be at least {LOWEST_VERDICT_DEGREE} for a "
            "verdict: no forbidden monomial has a lower degree"
        )


def run_case(request: CaseRequest) -> dict:
    """The verdict and forbidden report at --max-degree, and at
    --audit-degree when given.  The report to a degree is a prefix of any
    deeper one, so one jet, one report, one walk of verdicts and one
    rendering serve both degrees: the main forbidden list is the audit's
    cut at the main degree.  It shares the audit's entry dicts, as a
    document built to be serialized may; a shallow copy would cost a dict
    per entry and still share each entry's coeff_form dict."""
    _check_verdict_degree(request.max_degree)
    diagram = PaintedDiagram(request.group, request.black)
    atlas = build_Z(diagram)
    # the jet's recursion ends because Z is nilpotent; prove it first
    nilpotency = nilpotency_index(atlas)
    names = atlas.var_names()
    degree, audit = request.max_degree, request.audit_degree
    report = forbidden_report(forbidden_jet(diagram, audit or degree))
    degrees = (degree,) if audit is None else (degree, audit)
    found = verdicts(report, diagram.black, degrees)
    cvals = None
    if request.coeffs != "symbolic":
        cvals = dict(zip(diagram.black, request.coeffs))
    forbidden = _forbidden_json(report, names, cvals)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": "case",
        "request": request.echo(),
        "diagram": _diagram_json(diagram, atlas.nvars),
        "minors": [{"node": p, "size": p} for p in diagram.black],
        "nilpotency": nilpotency,
        "verdict": _verdict_json(found[0], names),
        "forbidden": forbidden[:report.end(degree)],
    }
    if audit is not None:
        doc["audit"] = {
            "degree": audit,
            "verdict": _verdict_json(found[1], names),
            "forbidden": forbidden,
        }
    return doc


def run_sweep(request: SweepRequest) -> dict:
    if request.max_rank > MAX_SWEEP_RANK:
        raise ValueError(f"--max-rank is capped at {MAX_SWEEP_RANK}")
    if request.max_black > MAX_SWEEP_BLACK:
        raise ValueError(f"--max-black is capped at {MAX_SWEEP_BLACK}")
    # a repeated family would print every row twice
    repeated = [f for f in request.families if request.families.count(f) > 1]
    if repeated:
        raise ValueError(f"--families lists {repeated[0].value} more than once")
    if not LOWEST_VERDICT_DEGREE <= request.degree <= MAX_CASE_DEGREE:
        raise ValueError(
            f"--max-degree must be between {LOWEST_VERDICT_DEGREE} and "
            f"{MAX_CASE_DEGREE}"
        )
    rows = []
    rejected = []
    for family in request.families:
        min_rank = {"SU": 2, "SOeven": 3}.get(family.value, 1)
        for rank in range(min_rank, request.max_rank + 1):
            group = GroupSpec(family, rank)
            for black in iter_black_sets(group, request.max_black):
                try:
                    diagram = PaintedDiagram(group, black)
                except PaintingError as err:
                    rejected.append({
                        "family": family.value,
                        "rank": rank,
                        "black": list(black),
                        "reason": err.reason,
                    })
                    continue
                names = build_Z(diagram).var_names()
                verdict = _verdict_json(classify(diagram, request.degree),
                                        names)
                witness = verdict["witness"]
                rows.append({
                    "family": family.value,
                    "rank": rank,
                    "group": group.label(),
                    "black": list(black),
                    "dim": len(names),
                    "verdict": verdict["status"],
                    "constraints": [c["text"] for c in verdict["constraints"]],
                    "witness": None if witness is None else witness["monomial"],
                })
    if not rows and not rejected:
        # a vacuous sweep: a bound below 1, or below every family's rank
        raise ValueError(
            "--max-rank and --max-black admit no painting of --families "
            "(smallest ranks: SU 2, SOeven 3, Sp and SOodd 1)"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "sweep",
        "request": request.echo(),
        "rows": rows,
        "rejected": rejected,
    }


def _sample_points(nvars: int, samples: int, seed: int):
    # rng.uniform(-1, 1) is -1 + 2 * rng.random(): the same floats
    draw = random.Random(seed).random
    points = []
    for _ in range(samples):
        raw = [complex(-1 + 2 * draw(), -1 + 2 * draw())
               for _ in range(nvars)]
        top = max(abs(z) for z in raw)
        if top == 0:
            raw[0] = 1.0 + 0j
            top = 1.0
        points.append([z * (SAMPLE_RADIUS / top) for z in raw])
    return points


def run_numeric_check(request: CaseRequest, samples: int, seed: int) -> dict:
    if request.coeffs == "symbolic":
        raise ValueError("--numeric-check requires numeric --coeffs")
    if request.audit_degree is not None:
        raise ValueError("--audit-degree does not apply to --numeric-check")
    samples, seed = operator.index(samples), operator.index(seed)
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be between 1 and {MAX_SAMPLES}")
    e = NUMERIC_COEFF_EXPONENT
    for pos, c in zip(request.black, request.coeffs):
        if not Fraction(1, 10**e) <= c <= 10**e:
            raise ValueError(
                f"--numeric-check needs --coeffs between 1e-{e} and 1e{e}; "
                f"the value for node {pos} is not"
            )
    diagram = PaintedDiagram(request.group, request.black)
    atlas = build_Z(diagram)
    # eval_numeric sums exp Z only to Z^(size - 1), which needs Z^size = 0
    nilpotency_index(atlas)
    expansion = diastasis(diagram, request.max_degree, request.coeffs)
    coeffs = [float(c) for c in request.coeffs]

    import numpy as np

    nvars = atlas.nvars
    points = _sample_points(nvars, samples, seed)
    # the samples follow the stencil's points in its stacks, and the
    # stencil's f(0) is the potential at the origin
    stencil = hessian_fd(diagram, coeffs, points)
    hess = stencil.hessian
    zero_val = stencil.at_zero
    metric = symbolic_metric(expansion, nvars)
    herr = float(np.max(np.abs(hess - metric)))
    eigs = np.linalg.eigvalsh((hess + hess.conj().T) / 2)
    min_eig = float(eigs.min())
    # the exact (1,1) part is positive (diastasis checks it), so by Weyl
    # min_eig > -nvars * herr; a tiny c_k beside a large one puts it below 0
    eig_floor = -nvars * HESSIAN_TOL

    tol_pot = (POTENTIAL_TOL_FACTOR * sum(coeffs) * nvars * nvars
               * SAMPLE_RADIUS ** (request.max_degree + 1))
    sample_rows = []
    worst = 0.0
    for point, exact, approx in zip(points, map(float, stencil.at_points),
                                    truncated_value(expansion, points, nvars)):
        err = abs(exact - approx)
        worst = max(worst, err)
        sample_rows.append({
            "point": [[z.real, z.imag] for z in point],
            "exact": exact,
            "truncated": approx,
            "error": err,
        })

    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": "numeric_check",
        "request": request.echo(),
        "seed": seed,
        "samples": sample_rows,
        "radius": SAMPLE_RADIUS,
        "potential_at_zero": zero_val,
        "potential_tolerance": tol_pot,
        "max_potential_error": worst,
        "hessian_max_abs_err": herr,
        "hessian_tolerance": HESSIAN_TOL,
        "min_hessian_eigenvalue": min_eig,
        "passed": bool(
            herr <= HESSIAN_TOL and min_eig > eig_floor and worst <= tol_pot
            and abs(zero_val) < 1e-12
        ),
    }
    if not doc["passed"]:
        offender = max(sample_rows, key=lambda s: s["error"], default=None)
        raise NumericCheckFailure(
            "numeric spot check failed: "
            f"hessian_err={herr:.3e} (tol {HESSIAN_TOL:.1e}), "
            f"min_eig={min_eig:.3e} (floor {eig_floor:.1e}), "
            f"max_potential_err={worst:.3e} (tol {tol_pot:.3e}), "
            f"worst sample={offender['point'] if offender else None}",
            doc,
        )
    return doc


def _render_case_table(doc: dict) -> str:
    d = doc["diagram"]
    v = doc["verdict"]
    lines = [
        f"group        : {d['group']}  (family {d['family']}, rank {d['rank']})",
        f"black nodes  : {','.join(map(str, d['black']))}",
        f"dim_C        : {d['dim']}",
        f"b2           : {d['b2']}",
        f"poincare     : {d['poincare']}",
        "minors       : " + ", ".join(
            f"node {mi['node']} -> Delta_{mi['size']}" for mi in doc["minors"]
        ),
        f"nilpotency   : Z^{doc['nilpotency']} = 0",
        f"verdict      : {v['status']}   (checked through degree "
        f"{v['degree_checked']}; higher degrees are not certified)",
    ]
    for con in v["constraints"]:
        lines.append(f"constraint   : {con['text']}")
    if v["witness"] is not None:
        w = v["witness"]
        lines.append(
            f"witness      : {w['monomial']}  coeff "
            f"{_render_form_doc(w['coeff_form'])}"
        )
    lines.append(f"forbidden    : {len(doc['forbidden'])} monomial(s)")
    shown = doc["forbidden"][:40]
    for entry in shown:
        val = f"  = {entry['value']}" if "value" in entry else ""
        lines.append(
            f"  {entry['monomial']}  coeff "
            f"{_render_form_doc(entry['coeff_form'])}{val}"
        )
    if len(doc["forbidden"]) > len(shown):
        lines.append(f"  ... and {len(doc['forbidden']) - len(shown)} more")
    if "audit" in doc:
        a = doc["audit"]
        lines.append(
            f"audit        : degree {a['degree']} -> {a['verdict']['status']}, "
            f"{len(a['forbidden'])} forbidden monomial(s)"
        )
    return "\n".join(lines)


def _render_form_doc(form_doc: dict) -> str:
    return render_signed_sum(
        (key, Fraction(val)) for key, val in form_doc.items()
    )


def _render_sweep_table(doc: dict) -> str:
    header = f"{'group':<10} {'black':<10} {'dim':>4}  {'verdict':<16} detail"
    lines = [header, "-" * len(header)]
    for row in doc["rows"]:
        detail = "; ".join(row["constraints"])
        if row["witness"]:
            detail = f"witness {row['witness']}"
        lines.append(
            f"{row['group']:<10} {','.join(map(str, row['black'])):<10} "
            f"{row['dim']:>4}  {row['verdict']:<16} {detail}"
        )
    if doc["rejected"]:
        lines.append("")
        lines.append(f"rejected paintings: {len(doc['rejected'])}")
        for rej in doc["rejected"]:
            lines.append(
                f"  {rej['family']}:{rej['rank']} black "
                f"{','.join(map(str, rej['black']))}: {rej['reason']}"
            )
    return "\n".join(lines)


def _render_numeric_table(doc: dict) -> str:
    lines = [
        f"numeric check: {doc['request']['group']} black "
        f"{','.join(map(str, doc['request']['black']))} "
        f"coeffs {','.join(doc['request']['coeffs'])}",
        f"seed         : {doc['seed']}   samples: {len(doc['samples'])}   "
        f"radius: {doc['radius']}",
        f"potential(0) : {doc['potential_at_zero']:.6e}",
        f"hessian err  : {doc['hessian_max_abs_err']:.6e} "
        f"(tol {doc['hessian_tolerance']:.1e})",
        f"min eigenval : {doc['min_hessian_eigenvalue']:.6e}",
        f"potential err: {doc['max_potential_error']:.6e} "
        f"(tol {doc['potential_tolerance']:.6e})",
        f"result       : {'PASS' if doc['passed'] else 'FAIL'}",
    ]
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1, not usage and exit 2
        raise ValueError(message)


_UNSET = object()  # _parse_args presets every dest to this marker


class _Once(argparse.Action):
    """argparse's store, and with nargs=0 its store_const, refusing a flag
    named twice, whose first value argparse would drop silently.
    _parse_args presets every dest to _UNSET, so a repeat finds a value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not _UNSET:
            parser.error(f"{self.option_strings[0]} is given more than once")
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="flagbochner",
        description=(
            "Exact expansion of the invariant potential on classical flag "
            "manifolds and classification of Bochner coordinate charts."
        ),
    )
    p.register("action", None, _Once)
    p.add_argument("--group", help="FAMILY:RANK, e.g. SU:4, Sp:3, SOeven:5, SOodd:4")
    p.add_argument("--black", help="comma list of black node positions, e.g. 1,3")
    p.add_argument(
        "--coeffs", default="symbolic",
        help="'symbolic' or a comma list of positive rationals (default symbolic)",
    )
    p.add_argument("--max-degree", type=_int_flag, default=3,
                   help="total-degree bound for the expansion (default 3)")
    p.add_argument("--audit-degree", type=_int_flag, default=None,
                   help="re-run the forbidden scan at this higher degree")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.add_argument("--sweep", action=_Once, nargs=0, const=True,
                   default=False,
                   help="classify every painting within the bounds below")
    p.add_argument("--families", default="SU,Sp,SOeven,SOodd",
                   help="comma list of families for --sweep")
    p.add_argument("--max-rank", type=_int_flag, default=4)
    p.add_argument("--max-black", type=_int_flag, default=2)
    p.add_argument("--numeric-check", action=_Once, nargs=0, const=True,
                   default=False,
                   help="finite-difference and truncation spot checks")
    p.add_argument("--samples", type=_int_flag, default=10)
    p.add_argument("--seed", type=_int_flag, default=0)
    return p


# the flags (by dest) that each mode does not read: naming one is an
# error, not a no-op.  --max-degree and --emit serve every mode, and
# run_numeric_check itself rejects --audit-degree.
_UNREAD_FLAGS = {
    "--sweep": ("group", "black", "coeffs", "audit_degree", "numeric_check",
                "samples", "seed"),
    "--numeric-check": ("families", "max_rank", "max_black"),
    "a single case": ("families", "max_rank", "max_black", "samples", "seed"),
}


def _parse_args(argv):
    """The parsed command line and the dests of the flags it names.
    argparse fills in a default only where the namespace has no value, so
    a namespace preset to a marker shows which flags were given, and _Once
    which were given twice."""
    parser = build_parser()
    defaults = vars(parser.parse_args([]))
    args = parser.parse_args(
        argv, argparse.Namespace(**dict.fromkeys(defaults, _UNSET)))
    given = {dest for dest, value in vars(args).items() if value is not _UNSET}
    for dest in defaults.keys() - given:
        setattr(args, dest, defaults[dest])
    return args, given


def _build_case_request(args) -> CaseRequest:
    if not args.group:
        raise ValueError("--group is required (e.g. --group SU:4)")
    if not args.black:
        raise ValueError("--black is required (e.g. --black 1,3)")
    return CaseRequest(
        group=parse_group(args.group),
        black=parse_black(args.black),
        coeffs=parse_coeffs(args.coeffs),
        max_degree=args.max_degree,
        audit_degree=args.audit_degree,
    )


def main(argv=None) -> int:
    try:
        args, given = _parse_args(argv)
        mode = ("--sweep" if args.sweep else "--numeric-check"
                if args.numeric_check else "a single case")
        for dest in _UNREAD_FLAGS[mode]:
            if dest in given:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} does not apply to {mode}")
        if args.sweep:
            request = SweepRequest(
                families=tuple(
                    Family(tok.strip())
                    for tok in args.families.split(",")
                ),
                max_rank=args.max_rank,
                max_black=args.max_black,
                degree=args.max_degree,
            )
            doc = run_sweep(request)
            rendered = _render_sweep_table(doc)
        elif args.numeric_check:
            request = _build_case_request(args)
            doc = run_numeric_check(request, args.samples, args.seed)
            rendered = _render_numeric_table(doc)
        else:
            _check_verdict_degree(args.max_degree)
            request = _build_case_request(args)
            doc = run_case(request)
            rendered = _render_case_table(doc)
    except NumericCheckFailure as err:
        print(str(err), file=sys.stderr)
        print(json.dumps(err.doc, indent=2), file=sys.stderr)
        return 3
    except EngineInvariantError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 2
    except (PaintingError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(doc, indent=2) if args.emit == "json" else rendered)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point it at devnull so
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
