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
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bochner import (
    BochnerVerdict,
    ForbiddenReport,
    forbidden_report,
    render_constraint,
    verdict_from_report,
)
from .expansion import (
    admissible_minors,
    diastasis,
    eval_numeric,
    hessian_fd,
    symbolic_metric,
    truncated_value,
)
from .lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    black_roots,
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
DEFAULT_RADIUS = 0.05

# guardrails so a request always terminates in reasonable time; a single
# case shares the sweep's rank cap, and its degree cap is the largest degree
# the tests, the README and the benchmark use
MAX_SWEEP_RANK = 8
MAX_SWEEP_BLACK = 4
MAX_CASE_DEGREE = 6


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
        if self.group.rank > MAX_SWEEP_RANK:
            raise ValueError(f"--group rank is capped at {MAX_SWEEP_RANK}")
        top = max(self.max_degree, self.audit_degree or 0)
        if top > MAX_CASE_DEGREE:
            raise ValueError(
                f"--max-degree and --audit-degree are capped at {MAX_CASE_DEGREE}"
            )
        repeated = sorted({p for p in self.black if self.black.count(p) > 1})
        if repeated:
            raise ValueError(f"--black lists node {repeated[0]} more than once")
        if self.coeffs != "symbolic":
            if len(self.coeffs) != len(self.black):
                raise ValueError(
                    f"--coeffs needs one value per black node: "
                    f"{len(self.black)} expected, got {len(self.coeffs)}"
                )
            # the engine pairs coefficients with the sorted black nodes, so
            # sort the pairs together and the echo shows the pairing used
            pairs = sorted(zip(self.black, self.coeffs))
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

    def echo(self) -> dict:
        return {
            "families": [f.value for f in self.families],
            "max_rank": self.max_rank,
            "max_black": self.max_black,
            "degree": self.degree,
        }


def parse_group(text: str) -> GroupSpec:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(
            f"invalid group {text!r}: expected FAMILY:RANK, e.g. SU:4"
        )
    family = Family.parse(parts[0])
    try:
        rank = int(parts[1])
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
            out.append(int(token))
        except ValueError:
            raise ValueError(
                f"invalid black list: item {pos} ({token!r}) is not an integer"
            ) from None
    return tuple(out)


def parse_coeffs(text: str):
    if text == "symbolic":
        return "symbolic"
    out = []
    for pos, token in enumerate(text.split(","), 1):
        token = token.strip()
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"invalid coeffs: item {pos} ({token!r}) is not a rational"
            ) from None
        if value <= 0:
            raise ValueError(f"invalid coeffs: item {pos} must be positive")
        out.append(value)
    return tuple(out)


def _form_json(form) -> dict:
    doc = {f"c{k}": str(lam) for k, lam in form.terms}
    if form.const:
        doc["const"] = str(form.const)
    return doc


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
    for mono, form in report.entries:
        entry = {"monomial": mono.render(names), "coeff_form": _form_json(form)}
        if cvals is not None:
            entry["value"] = str(form.evaluate(cvals))
        out.append(entry)
    return out


def _diagram_json(diagram: PaintedDiagram) -> dict:
    _, q = black_roots(diagram)
    return {
        "family": diagram.group.family.value,
        "rank": diagram.group.rank,
        "group": diagram.group.label(),
        "black": list(diagram.black),
        "dim": len(q),
        "b2": diagram.b2,
        "poincare": list(poincare(diagram).coeffs),
    }


def run_case(request: CaseRequest) -> dict:
    diagram = PaintedDiagram(request.group, request.black)
    atlas = build_Z(diagram)
    names = atlas.var_names()
    minors = admissible_minors(diagram)
    # the expansion to degree d is the truncation of any deeper one, so one
    # expansion serves both the report and the audit
    top = max(request.max_degree, request.audit_degree or 0)
    full = diastasis(diagram, top, "symbolic")
    expansion = full.truncate(request.max_degree)
    report = forbidden_report(expansion)
    verdict = verdict_from_report(report, diagram.black)
    cvals = None
    if request.coeffs != "symbolic":
        cvals = dict(zip(diagram.black, request.coeffs))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": "case",
        "request": request.echo(),
        "diagram": _diagram_json(diagram),
        "minors": [{"node": p, "size": l} for p, l in minors.pairing],
        "nilpotency": nilpotency_index(atlas),
        "verdict": _verdict_json(verdict, names),
        "forbidden": _forbidden_json(report, names, cvals),
    }
    if request.audit_degree is not None:
        audit_rep = forbidden_report(full.truncate(request.audit_degree))
        audit_ver = verdict_from_report(audit_rep, diagram.black)
        doc["audit"] = {
            "degree": request.audit_degree,
            "verdict": _verdict_json(audit_ver, names),
            "forbidden": _forbidden_json(audit_rep, names, cvals),
        }
    return doc


def run_sweep(request: SweepRequest) -> dict:
    if request.max_rank > MAX_SWEEP_RANK:
        raise ValueError(f"--max-rank is capped at {MAX_SWEEP_RANK}")
    if request.max_black > MAX_SWEEP_BLACK:
        raise ValueError(f"--max-black is capped at {MAX_SWEEP_BLACK}")
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
                expansion = diastasis(diagram, request.degree, "symbolic")
                report = forbidden_report(expansion)
                verdict = verdict_from_report(report, diagram.black)
                row = {
                    "family": family.value,
                    "rank": rank,
                    "group": group.label(),
                    "black": list(black),
                    "dim": len(black_roots(diagram)[1]),
                    "verdict": verdict.status.value,
                    "constraints": [
                        render_constraint(r, verdict.black)
                        for r in verdict.constraints
                    ],
                    "witness": (
                        verdict.witness[0].render(names)
                        if verdict.witness is not None else None
                    ),
                }
                rows.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "sweep",
        "request": request.echo(),
        "rows": rows,
        "rejected": rejected,
    }


def _sample_points(nvars: int, samples: int, seed: int, radius: float):
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        raw = [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(nvars)
        ]
        top = max(abs(z) for z in raw)
        if top == 0:
            raw[0] = 1.0 + 0j
            top = 1.0
        points.append([z * (radius / top) for z in raw])
    return points


def run_numeric_check(request: CaseRequest, samples: int, seed: int) -> dict:
    if request.coeffs == "symbolic":
        raise ValueError("--numeric-check requires numeric --coeffs")
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    diagram = PaintedDiagram(request.group, request.black)
    expansion = diastasis(diagram, request.max_degree, request.coeffs)
    coeffs = [float(c) for c in request.coeffs]

    import numpy as np

    hess = hessian_fd(diagram, coeffs)
    metric = symbolic_metric(expansion)
    herr = float(np.max(np.abs(hess - metric)))
    eigs = np.linalg.eigvalsh((hess + hess.conj().T) / 2)
    min_eig = float(eigs.min())

    nvars = expansion.atlas.nvars
    radius = DEFAULT_RADIUS
    csum = sum(coeffs)
    tol_pot = POTENTIAL_TOL_FACTOR * csum * nvars * nvars * radius ** (
        request.max_degree + 1
    )
    sample_rows = []
    worst = 0.0
    for point in _sample_points(nvars, samples, seed, radius):
        exact = eval_numeric(expansion, point, coeffs)
        approx = truncated_value(expansion, point)
        err = abs(exact - approx)
        worst = max(worst, err)
        sample_rows.append({
            "point": [[z.real, z.imag] for z in point],
            "exact": exact,
            "truncated": approx,
            "error": err,
        })
    zero_val = eval_numeric(expansion, [0j] * nvars, coeffs)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": "numeric_check",
        "request": request.echo(),
        "seed": seed,
        "samples": sample_rows,
        "radius": radius,
        "potential_at_zero": zero_val,
        "potential_tolerance": tol_pot,
        "max_potential_error": worst,
        "hessian_max_abs_err": herr,
        "hessian_tolerance": HESSIAN_TOL,
        "min_hessian_eigenvalue": min_eig,
        "passed": bool(
            herr <= HESSIAN_TOL and min_eig > 0 and worst <= tol_pot
            and abs(zero_val) < 1e-12
        ),
    }
    if not doc["passed"]:
        offender = max(sample_rows, key=lambda s: s["error"], default=None)
        raise NumericCheckFailure(
            "numeric spot check failed: "
            f"hessian_err={herr:.3e} (tol {HESSIAN_TOL:.1e}), "
            f"min_eig={min_eig:.3e}, "
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
        ("" if key == "const" else key, Fraction(val))
        for key, val in form_doc.items()
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
        f"coeffs {doc['request']['coeffs']}",
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flagbochner",
        description=(
            "Exact expansion of the invariant potential on classical flag "
            "manifolds and classification of Bochner coordinate charts."
        ),
    )
    p.add_argument("--group", help="FAMILY:RANK, e.g. SU:4, Sp:3, SOeven:5, SOodd:4")
    p.add_argument("--black", help="comma list of black node positions, e.g. 1,3")
    p.add_argument(
        "--coeffs", default="symbolic",
        help="'symbolic' or a comma list of positive rationals (default symbolic)",
    )
    p.add_argument("--max-degree", type=int, default=3,
                   help="total-degree bound for the expansion (default 3)")
    p.add_argument("--audit-degree", type=int, default=None,
                   help="re-run the forbidden scan at this higher degree")
    p.add_argument("--emit", choices=("table", "json"), default="table")
    p.add_argument("--sweep", action="store_true",
                   help="classify every painting within the bounds below")
    p.add_argument("--families", default="SU,Sp,SOeven,SOodd",
                   help="comma list of families for --sweep")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-black", type=int, default=2)
    p.add_argument("--numeric-check", action="store_true",
                   help="finite-difference and truncation spot checks")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    return p


def _build_case_request(args) -> CaseRequest:
    if not args.group:
        raise ValueError("--group is required (e.g. --group SU:4)")
    if not args.black:
        raise ValueError("--black is required (e.g. --black 1,3)")
    if args.max_degree < 2:
        raise ValueError("--max-degree must be at least 2")
    if args.audit_degree is not None and args.audit_degree <= args.max_degree:
        raise ValueError("--audit-degree must exceed --max-degree")
    return CaseRequest(
        group=parse_group(args.group),
        black=parse_black(args.black),
        coeffs=parse_coeffs(args.coeffs),
        max_degree=args.max_degree,
        audit_degree=args.audit_degree,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.sweep:
            request = SweepRequest(
                families=tuple(
                    Family.parse(tok.strip())
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
    print(json.dumps(doc, indent=2) if args.emit == "json" else rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
