"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a passing run.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
from oracles import catalog_sum, catalog_trinomials, exp_Z, gram, leibniz_minor

from flagbochner.bochner import (
    BochnerStatus,
    classify,
    forbidden_report,
)
from flagbochner.expansion import (
    admissible_minors,
    diastasis,
    eval_numeric,
    hessian_fd,
    symbolic_metric,
    truncated_value,
)
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    black_roots,
    height,
    iter_black_sets,
    poincare,
)
from flagbochner.matrices import build_Z, nilpotency_index
from flagbochner.poly import CoeffForm, Monomial

F = Fraction

MIN_RANK = {Family.SU: 2, Family.SP: 1, Family.SO_EVEN: 3, Family.SO_ODD: 1}


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _sweep_diagrams(max_rank: int, max_black: int):
    for family in (Family.SU, Family.SP, Family.SO_EVEN, Family.SO_ODD):
        for rank in range(MIN_RANK[family], max_rank + 1):
            group = GroupSpec(family, rank)
            for black in iter_black_sets(group, max_black):
                try:
                    yield PaintedDiagram(group, black)
                except PaintingError:
                    continue


def _mono(atlas, holo_roots, anti_roots):
    index = {name: i for i, name in enumerate(atlas.var_names())}
    m = Monomial.unit()
    for name in holo_roots:
        m = m * Monomial.variable(index[name])
    for name in anti_roots:
        m = m * Monomial.variable(index[name], anti=True)
    return m


def _expected_verdict(diagram: PaintedDiagram):
    fam = diagram.group.family
    d = diagram.group.rank
    black = diagram.black
    if len(black) == 1:
        return (BochnerStatus.BOCHNER_FOR_ALL_C, ())
    if fam is Family.SU and len(black) == 2:
        return (BochnerStatus.BOCHNER_IFF, ((F(1), F(-1)),))
    if fam is Family.SO_EVEN and black == (1, d):
        return (BochnerStatus.BOCHNER_IFF, ((F(1), F(-2)),))
    return (BochnerStatus.NEVER_BOCHNER, None)


def test_criterion_1_theorem_sweep():
    t0 = time.time()
    mismatches = []
    n = 0
    for diagram in _sweep_diagrams(6, 3):
        verdict = classify(diagram, 3)
        status, constraints = _expected_verdict(diagram)
        ok = verdict.status is status
        if ok and constraints is not None:
            ok = verdict.constraints == constraints
        if not ok:
            mismatches.append((diagram.label(), verdict.status.value))
        n += 1
    elapsed = time.time() - t0
    _report(
        "1 theorem sweep",
        not mismatches and elapsed < 300,
        f"{n} diagrams in {elapsed:.1f}s, mismatches={mismatches[:3]}",
    )


def test_criterion_2_trinomial_catalog_vs_leibniz_oracle():
    rng = random.Random(2024)
    families = [Family.SU, Family.SP, Family.SO_EVEN, Family.SO_ODD]
    checked = 0
    failures = []
    while checked < 20:
        family = rng.choice(families)
        rank = rng.randint(MIN_RANK[family], 5)
        group = GroupSpec(family, rank)
        candidates = list(iter_black_sets(group, 3))
        black = candidates[rng.randrange(len(candidates))]
        try:
            diagram = PaintedDiagram(group, black)
        except PaintingError:
            continue
        minors = admissible_minors(diagram)
        r = rng.choice(minors.indices)
        atlas = build_Z(diagram)
        cat = catalog_sum(catalog_trinomials(atlas, r))
        oracle = leibniz_minor(gram(exp_Z(atlas, 3)), r)
        slice12 = oracle.bidegree_part(1, 2).truncate(None)
        if cat != slice12:
            failures.append((diagram.label(), r))
        checked += 1
    _report(
        "2 trinomial catalog oracle",
        not failures,
        f"{checked} randomized instances, failures={failures}",
    )


def test_criterion_3_nilpotency_claims():
    bad = []
    for d in range(2, 7):
        for r in range(1, d):
            k = nilpotency_index(build_Z(PaintedDiagram(GroupSpec(Family.SU, d), (r,))))
            if k != 2:
                bad.append(("SU", d, (r,), k))
    for d in range(1, 7):
        k = nilpotency_index(build_Z(PaintedDiagram(GroupSpec(Family.SP, d), (d,))))
        if k != 2:
            bad.append(("Sp", d, (d,), k))
    for d in range(3, 7):
        k = nilpotency_index(build_Z(PaintedDiagram(GroupSpec(Family.SO_EVEN, d), (d,))))
        if k != 2:
            bad.append(("SOeven", d, (d,), k))
    for d in range(3, 7):
        for pair in itertools.combinations(range(1, d), 2):
            k = nilpotency_index(build_Z(PaintedDiagram(GroupSpec(Family.SU, d), pair)))
            if k != 3:
                bad.append(("SU", d, pair, k))
    for d in range(3, 7):
        k = nilpotency_index(build_Z(PaintedDiagram(GroupSpec(Family.SO_EVEN, d), (1, d))))
        if k != 3:
            bad.append(("SOeven", d, (1, d), k))
    _report("3 nilpotency claims", not bad, f"failures={bad}")


def test_criterion_4_witness_trinomials():
    problems = []

    # mixed chain + terminal node in the symplectic family
    for d in (2, 3, 4):
        for r in range(1, d):
            diagram = PaintedDiagram(GroupSpec(Family.SP, d), (r, d))
            atlas = build_Z(diagram)
            report = forbidden_report(diastasis(diagram, 3, "symbolic"))
            witness = _mono(atlas, ["-2e1"], [f"-e1-e{d}", f"-e1+e{d}"])
            form = dict(report.entries).get(witness)
            if form is None or form.orthant_sign() == 0:
                problems.append(("Sp witness", d, r, form))
            verdict = classify(diagram, 3)
            if verdict.status is not BochnerStatus.NEVER_BOCHNER:
                problems.append(("Sp verdict", d, r, verdict.status))

    # two chain nodes: the trinomial surviving in the smaller minor
    chain_cases = [
        (Family.SP, 3, (1, 2)),
        (Family.SP, 4, (2, 3)),
        (Family.SO_ODD, 4, (1, 2)),
        (Family.SO_EVEN, 5, (1, 3)),
    ]
    for fam, d, (k, r) in chain_cases:
        diagram = PaintedDiagram(GroupSpec(fam, d), (k, r))
        atlas = build_Z(diagram)
        report = forbidden_report(diastasis(diagram, 3, "symbolic"))
        witness = _mono(
            atlas,
            [f"-e{k}-e{r}"],
            [f"-e{r}-e{r + 1}", f"-e{k}+e{r + 1}"],
        )
        form = dict(report.entries).get(witness)
        # the entry signs of the skew realizations may flip the half-weight
        allowed = (CoeffForm(((k, F(1, 2)),)), CoeffForm(((k, F(-1, 2)),)))
        if form not in allowed:
            problems.append(("chain witness", fam.value, d, (k, r), form))
        verdict = classify(diagram, 3)
        if verdict.status is not BochnerStatus.NEVER_BOCHNER:
            problems.append(("chain verdict", fam.value, d, (k, r)))

    # odd orthogonal: first node plus the short terminal node
    for d in (2, 3, 4):
        diagram = PaintedDiagram(GroupSpec(Family.SO_ODD, d), (1, d))
        atlas = build_Z(diagram)
        report = forbidden_report(diastasis(diagram, 3, "symbolic"))
        witness = _mono(atlas, [f"-e1-e{d}"], [f"-e{d}", "-e1"])
        form = dict(report.entries).get(witness)
        if form is None or form.orthant_sign() == 0:
            problems.append(("SOodd witness", d, form))
        verdict = classify(diagram, 3)
        if verdict.status is not BochnerStatus.NEVER_BOCHNER:
            problems.append(("SOodd verdict", d, verdict.status))

    _report("4 witness trinomials", not problems, f"failures={problems}")


def test_criterion_5_three_black_obstruction():
    problems = []
    for d, (j, q, r) in [(4, (1, 2, 3)), (5, (1, 2, 3)), (5, (1, 3, 4)),
                         (6, (2, 3, 5))]:
        diagram = PaintedDiagram(GroupSpec(Family.SU, d), (j, q, r))
        report = forbidden_report(diastasis(diagram, 3, "symbolic"))
        forms = {f for _, f in report.entries}
        first = CoeffForm(((j, F(1, 2)), (q, F(-1, 2))))
        second = CoeffForm(((j, F(1, 2)), (q, F(-1, 2)), (r, F(-1, 2))))
        if first not in forms:
            problems.append((d, (j, q, r), "missing cj/2 - cq/2"))
        if second not in forms:
            problems.append((d, (j, q, r), "missing cj/2 - cq/2 - cr/2"))
        verdict = classify(diagram, 3)
        if verdict.status is not BochnerStatus.NEVER_BOCHNER:
            problems.append((d, (j, q, r), verdict.status.value))
    _report("5 three-black obstruction", not problems, f"failures={problems}")


def test_criterion_6_diastasis_invariants_degree_six():
    t0 = time.time()
    problems = []
    n = 0
    for diagram in _sweep_diagrams(4, 3):
        expansion = diastasis(diagram, 6, "symbolic")
        for mono, form in expansion.terms.items():
            p, q = mono.bidegree
            if p == 0 or q == 0:
                problems.append((diagram.label(), "pure term", mono.bidegree))
                break
            if (p, q) == (1, 1):
                diag_ok = mono.holo[0][0] == mono.anti[0][0]
                # a CoeffForm has no constant part
                pos_ok = isinstance(form, CoeffForm) and form.terms and all(
                    lam > 0 for _, lam in form.terms
                )
                if not (diag_ok and pos_ok):
                    problems.append((diagram.label(), "bad (1,1) term"))
                    break
        n += 1
    _report(
        "6 diastasis invariants at degree 6",
        not problems,
        f"{n} diagrams in {time.time() - t0:.1f}s, failures={problems[:3]}",
    )


def _poincare_series_oracle(heights):
    """Independent expansion of the height product as a power series."""
    top = len(heights) + 1
    acc = [0] * top
    acc[0] = 1
    for h in heights:
        nxt = acc[:]
        for i in range(top):
            if acc[i] and i + h + 1 < top:
                nxt[i + h + 1] -= acc[i]
        acc = nxt
        for i in range(h, top):
            acc[i] += acc[i - h]
    return acc


def test_criterion_7_betti_and_poincare():
    problems = []
    for diagram in _sweep_diagrams(6, 3):
        p = poincare(diagram)
        if p.b2 != diagram.b2:
            problems.append((diagram.label(), "b2", p.b2))
        if p.coeffs != p.coeffs[::-1]:
            problems.append((diagram.label(), "palindrome"))

    full_flag = PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2))
    group = full_flag.group
    q = black_roots(full_flag)
    heights = [height(group, root) for root in q]
    oracle = _poincare_series_oracle(heights)
    engine = poincare(full_flag)
    in_t = [engine.coeffs[2 * i] for i in range(len(engine.coeffs) // 2 + 1)]
    if in_t != oracle:
        problems.append(("SU(3) full flag", "series", in_t, oracle))
    if sum(engine.coeffs) != 6:
        problems.append(("SU(3) full flag", "euler", sum(engine.coeffs)))
    _report("7 Betti and Poincare", not problems, f"failures={problems[:3]}")


def _boundary_samples(rng, nvars, count, radius):
    for _ in range(count):
        raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(nvars)]
        top = max(abs(z) for z in raw)
        if top == 0:
            raw[0], top = 1.0 + 0j, 1.0
        yield [z * radius / top for z in raw]


def test_criterion_8_numeric_spot_check():
    rng = random.Random(88)
    pool = [d for d in _sweep_diagrams(3, 3)]
    diagrams = [pool[rng.randrange(len(pool))] for _ in range(10)]
    problems = []

    for diagram in diagrams:
        coeffs = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in diagram.black]
        expansion = diastasis(diagram, 3, coeffs)
        cvals = [float(c) for c in coeffs]
        hess = hessian_fd(diagram, cvals)
        metric = symbolic_metric(expansion, build_Z(diagram).nvars)
        err = float(np.max(np.abs(hess - metric)))
        if err > 1e-6:
            problems.append((diagram.label(), "hessian", err))
        eigs = np.linalg.eigvalsh((hess + hess.conj().T) / 2)
        if eigs.min() <= 0:
            problems.append((diagram.label(), "not positive definite"))

        # truncation agreement at the audit degree: the degree-6 expansion
        # must match the exact-log potential to 1e-5 on the 0.05 polydisk
        audit = diastasis(diagram, 6, coeffs)
        atlas, minors = build_Z(diagram), admissible_minors(diagram)
        for point in _boundary_samples(rng, atlas.nvars, 3, 0.05):
            exact = eval_numeric(atlas, minors, [point], cvals)[0]
            approx = truncated_value(audit, [point])[0]
            if abs(exact - approx) > 1e-5:
                problems.append(
                    (diagram.label(), "truncation", abs(exact - approx))
                )
                break

    # the default-degree expansion obeys the first-dropped-degree scale
    su3 = PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2))
    expansion = diastasis(su3, 3, (1, 1))
    audit = diastasis(su3, 6, (1, 1))
    atlas, minors = build_Z(su3), admissible_minors(su3)
    worst_d3 = 0.0
    worst_d6 = 0.0
    for point in _boundary_samples(rng, 3, 10, 0.05):
        exact = eval_numeric(atlas, minors, [point], [1, 1])[0]
        worst_d3 = max(worst_d3,
                       abs(exact - truncated_value(expansion, [point])[0]))
        worst_d6 = max(worst_d6,
                       abs(exact - truncated_value(audit, [point])[0]))
    if worst_d3 > 64 * 2 * 9 * 0.05 ** 4:
        problems.append(("SU(3) {1,2}", "degree-3 bound", worst_d3))
    if worst_d6 > 1e-5:
        problems.append(("SU(3) {1,2}", "degree-6 tolerance", worst_d6))

    _report(
        "8 numeric spot check",
        not problems,
        f"10 diagrams, worst d6 err {worst_d6:.2e}, failures={problems[:3]}",
    )
