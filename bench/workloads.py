"""Request pools, seeded ordering and the correctness gate of the benchmark.

A workload is a fixed pool of requests to the public request functions of
``flagbochner.cli``.  The seed decides the order of the pool and, for the
numeric workload, which coefficient/sample variant each painting gets, so
the same seed always gives the same inputs.  Every possible input has a
golden digest in ``golden.json``, produced by ``make_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from flagbochner import cli
from flagbochner.cli import CaseRequest
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
)

MIN_RANK = {Family.SU: 2, Family.SP: 1, Family.SO_EVEN: 3, Family.SO_ODD: 1}

# numeric lane: each painting has this many fixed (coefficients, sample
# seed) variants; the workload seed picks one per painting
NUMERIC_VARIANTS = 4
NUMERIC_SAMPLES = 10

# smoke mode keeps this many requests of each pool, in canonical order
SMOKE_POOL = 3


@dataclass(frozen=True)
class Request:
    """One benchmark request: a CaseRequest plus, for the numeric lane, the
    sample count and sample seed passed to run_numeric_check."""

    mode: str  # "case" or "numeric"
    case: CaseRequest
    samples: int = 0
    sample_seed: int = 0

    @property
    def key(self) -> str:
        echo = self.case.echo()
        coeffs = echo["coeffs"]
        parts = [
            self.mode,
            echo["group"],
            ",".join(map(str, echo["black"])),
            coeffs if coeffs == "symbolic" else ",".join(coeffs),
            f"d{echo['max_degree']}",
        ]
        if echo["audit_degree"] is not None:
            parts.append(f"a{echo['audit_degree']}")
        if self.mode == "numeric":
            parts.append(f"n{self.samples}")
            parts.append(f"s{self.sample_seed}")
        return "|".join(parts)

    def execute(self) -> dict:
        # resolved through the module, so the traced run sees the call
        if self.mode == "numeric":
            return cli.run_numeric_check(self.case, self.samples, self.sample_seed)
        return cli.run_case(self.case)


def _paintings(max_rank: int, min_black: int, max_black: int):
    """Valid paintings in the canonical sweep order (family, rank, black)."""
    for family in (Family.SU, Family.SP, Family.SO_EVEN, Family.SO_ODD):
        for rank in range(MIN_RANK[family], max_rank + 1):
            group = GroupSpec(family, rank)
            for black in iter_black_sets(group, max_black):
                if len(black) < min_black:
                    continue
                try:
                    PaintedDiagram(group, black)
                except PaintingError:
                    continue
                yield group, black


def _numeric_variant(group: GroupSpec, black, k: int) -> tuple:
    rng = random.Random(f"{group.family.value}:{group.rank}:{black}:{k}")
    coeffs = tuple(
        Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in black
    )
    return coeffs, rng.randrange(10**6)


def numeric_variants(group: GroupSpec, black) -> list[Request]:
    out = []
    for k in range(NUMERIC_VARIANTS):
        coeffs, sample_seed = _numeric_variant(group, black, k)
        case = CaseRequest(group, black, coeffs, 3, None)
        out.append(Request("numeric", case, NUMERIC_SAMPLES, sample_seed))
    return out


def pool(workload: str) -> list:
    """The workload's pool in canonical order.  Entries are Requests, or for
    the numeric workload lists of variants of one painting."""
    if workload == "broad":
        return [
            Request("case", CaseRequest(g, b, "symbolic", 3, None))
            for g, b in _paintings(6, 1, 3)
        ]
    if workload == "deep":
        return [
            Request("case", CaseRequest(g, b, "symbolic", 3, 5))
            for g, b in _paintings(4, 2, 3)
        ]
    if workload == "numeric":
        return [numeric_variants(g, b) for g, b in _paintings(4, 1, 3)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("broad", "deep", "numeric")


def _pick(entry, rng: random.Random) -> Request:
    return entry[rng.randrange(len(entry))] if isinstance(entry, list) else entry


def first_request(workload: str) -> Request:
    """The fixed request a fresh process runs while setting up: the first
    pool entry, variant 0."""
    entry = pool(workload)[0]
    return entry[0] if isinstance(entry, list) else entry


def requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The pool in the seed's order, one variant per numeric painting."""
    entries = pool(workload)
    if smoke:
        entries = entries[:SMOKE_POOL]
    rng = random.Random(seed)
    picked = [_pick(e, rng) for e in entries]
    rng.shuffle(picked)
    return picked


def all_requests(workload: str) -> list[Request]:
    """Every request any seed can produce for the workload."""
    out = []
    for entry in pool(workload):
        out.extend(entry if isinstance(entry, list) else [entry])
    return out


# ---------------------------------------------------------------- the gate


# Numeric-check values that pass through LAPACK can change in their last
# bits between CPUs.  The digest keeps the digits that stay fixed and leaves
# out the finite-difference noise, which "passed" already bounds.
_LAPACK_DIGITS = {"exact": 9, "error": 9, "max_potential_error": 9,
                  "min_hessian_eigenvalue": 4}
_LAPACK_NOISE = ("hessian_max_abs_err", "potential_at_zero")


def _canonical(doc: dict) -> dict:
    if doc.get("mode") != "numeric_check":
        return doc

    def rounded(row: dict) -> dict:
        return {
            k: float(f"{v:.{_LAPACK_DIGITS[k]}g}") if k in _LAPACK_DIGITS else v
            for k, v in row.items() if k not in _LAPACK_NOISE
        }

    out = rounded(doc)
    out["samples"] = [rounded(s) for s in doc["samples"]]
    return out


def digest(doc: dict) -> str:
    """sha256 of the canonical JSON of a response document."""
    text = json.dumps(_canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_verdict(doc: dict):
    """The paper's classification rule, as (status, {c_label: coeff} rows or
    None when constraints are not checked)."""
    d = doc["diagram"]
    black = tuple(d["black"])
    if len(black) == 1:
        return "BochnerForAllC", []
    if d["family"] == "SU" and len(black) == 2:
        i, j = black
        return "BochnerIff", [{f"c{i}": "1", f"c{j}": "-1"}]
    if d["family"] == "SOeven" and black == (1, d["rank"]):
        return "BochnerIff", [{"c1": "1", f"c{d['rank']}": "-2"}]
    return "NeverBochner", None


def _verdict_ok(verdict: dict, expected) -> bool:
    status, rows = expected
    if verdict["status"] != status:
        return False
    return rows is None or [c["coeffs"] for c in verdict["constraints"]] == rows


def _rule_error(request: Request, doc: dict) -> str | None:
    if request.mode == "numeric":
        return None if doc["passed"] is True else "numeric check did not pass"
    expected = expected_verdict(doc)
    if not _verdict_ok(doc["verdict"], expected):
        return f"verdict {doc['verdict']['status']} breaks the paper's rule"
    if "audit" in doc and not _verdict_ok(doc["audit"]["verdict"], expected):
        return "audit verdict breaks the paper's rule"
    return None


def check(request: Request, doc: dict, golden: dict[str, str]) -> str | None:
    """None when the response is correct, else a one-line reason."""
    try:
        error = _rule_error(request, doc)
    except (KeyError, TypeError) as err:
        return f"malformed response: {err!r}"
    if error is not None:
        return error
    want = golden.get(request.key)
    if want is None:
        return "no golden digest for this request"
    if digest(doc) != want:
        return "canonical JSON differs from the golden digest"
    return None
