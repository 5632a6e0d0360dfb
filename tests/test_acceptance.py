"""Acceptance suite: the seven exit criteria, one test each, every tolerance
exact (rational arithmetic throughout -- equality means equality).

Criterion 6 re-decides each symbol through an independent oracle: the
coefficient system for a degree-bounded splitting certificate is solved with
sympy directly from the raw coefficients, with none of this package's
arithmetic in the loop.
"""

import json
import random
import time
from fractions import Fraction

from mwq.lattice import (
    GramLattice,
    enumerate_by_norm,
    lattice_from_text,
    orthogonal_complement_basis,
)
from mwq.mwtable import builtin_table, verify_table
from mwq.parsing import parse_curve_rhs, parse_section
from mwq.poly import UniPoly
from mwq.quartic import Conic, PreparedQuartic, genus_from_sing, qr_symbol
from mwq.replay import EXAMPLES, run_example
from mwq.surface import (
    SectionPoint,
    WeierstrassCurve,
    add,
    double,
    halve,
    height_context,
    height_pairing,
)
from test_lattice import isometric, orthogonal_complement_gram
from test_surface import multiple


def announce(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. table reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_table_reproduction():
    start = time.time()
    report = verify_table()
    elapsed = time.time() - start
    matched = sum(1 for r in report if r["ok"])
    announce(
        "criterion 1 (60-row table, exact)",
        matched == 60 and len(report) == 60 and elapsed < 10,
        f"{matched}/60 rows in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. root counts
# ---------------------------------------------------------------------------


def test_criterion_2_root_counts():
    ok = True
    for n in range(1, 8):
        ok &= len(enumerate_by_norm(lattice_from_text(f"A{n}")[0], 2)) == n * (n + 1)
    for n in (4, 5, 6):
        ok &= len(enumerate_by_norm(lattice_from_text(f"D{n}")[0], 2)) == 2 * n * (n - 1)
    ok &= len(enumerate_by_norm(lattice_from_text("E6")[0], 2)) == 72
    ok &= len(enumerate_by_norm(lattice_from_text("E7")[0], 2)) == 126
    announce("criterion 2 (root counts)", bool(ok))


# ---------------------------------------------------------------------------
# 3. embedding Gram identities
# ---------------------------------------------------------------------------


def test_criterion_3_complement_grams():
    comp_a4 = orthogonal_complement_gram(lattice_from_text("A4")[0], [(1, 0, 0, 0)])
    ok = isometric(comp_a4, GramLattice(((4, -1, 1), (-1, 2, -1), (1, -1, 2))))

    a5 = lattice_from_text("A5")[0]
    comp_a5 = orthogonal_complement_gram(a5, [(1, 0, 0, 0, 0)])
    ok &= isometric(
        comp_a5,
        GramLattice(((4, -1, 0, 1), (-1, 2, -1, 0), (0, -1, 2, -1), (1, 0, -1, 2))),
    )
    roots = enumerate_by_norm(comp_a5, 2)
    ok &= len(roots) == 12
    # the twelve roots are e_i - e_j for i != j in the last four coordinates
    basis = orthogonal_complement_basis(a5, [(1, 0, 0, 0, 0)])
    seen = set()
    for v in roots:
        amb = [sum(basis[j][i] * v[j] for j in range(4)) for i in range(5)]
        x = amb + [0]
        r6 = tuple([x[0]] + [x[i] - x[i - 1] for i in range(1, 5)] + [-x[4]])
        seen.add(r6)
    expected = set()
    for i in range(2, 6):
        for j in range(2, 6):
            if i != j:
                e = [0] * 6
                e[i], e[j] = 1, -1
                expected.add(tuple(e))
    ok &= seen == expected

    comp_d5 = orthogonal_complement_gram(
        lattice_from_text("D5")[0], [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    )
    ok &= isometric(comp_d5, GramLattice(((2, 0, -1), (0, 2, -1), (-1, -1, 4))))
    announce("criterion 3 (complement Gram identities)", bool(ok))


# ---------------------------------------------------------------------------
# 4 and 5. the two worked configurations, replayed end to end
# ---------------------------------------------------------------------------


def test_criterion_4_example_51():
    start = time.time()
    report = run_example("5.1")
    elapsed = time.time() - start
    flat = {item.name: item for item in report.results}
    ok = report.status == "ok"
    ok &= "5143775/144" in str(flat["double(s_o) == printed s1"].value)
    announce(
        "criterion 4 (first worked example)",
        ok and elapsed < 30,
        f"status={report.status} in {elapsed:.1f}s",
    )


def test_criterion_5_example_52():
    start = time.time()
    report = run_example("5.2")
    elapsed = time.time() - start
    recs = [json.loads(line) for line in report.render_records().splitlines()]
    flat = {rec["name"]: rec["value"] for rec in recs if rec["kind"] == "result"}
    ok = report.status == "ok"
    ok &= flat["height[s_o,s_o]"] == "1/2"
    ok &= flat["height[s_t1,s_t1]"] == "3/4"
    ok &= flat["height[s_t1,s_t2]"] == "1/4"
    ok &= "1/64" in str(flat["double(s_o) == printed s1"])
    announce("criterion 5 (second worked example)", ok, f"status={report.status} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. oracle equivalence: halving route vs certificate system
# ---------------------------------------------------------------------------


def _certificate_exists_via_sympy(quartic: PreparedQuartic, conic: Conic) -> bool:
    """Solve the splitting-certificate coefficient system directly.

    With w = u - q:  f(t, w + q) = w^3 + F2 w^2 + F1 w + F0 and F0 = h^2.
    A certificate with deg a_k <= k exists iff some polynomial a2 of degree
    <= 2 satisfies (F1 - a2^2)^2 = 4 h^2 (F2 - 2 a2) identically and
    a1 = (F1 - a2^2) / (2h) is a polynomial of degree <= 1.
    """
    import sympy

    t, w = sympy.symbols("t w")

    def to_sympy(p: UniPoly):
        return sum(sympy.Rational(c.numerator, c.denominator) * t ** k
                   for k, c in enumerate(p.coeffs))

    curve = quartic.curve
    q = to_sympy(conic.q)
    c1, c2, c3 = (to_sympy(p) for p in (curve.c1, curve.c2, curve.c3))
    fw = sympy.expand((w + q) ** 3 + c1 * (w + q) ** 2 + c2 * (w + q) + c3)
    poly_w = sympy.Poly(fw, w)
    f2, f1, f0 = poly_w.nth(2), poly_w.nth(1), poly_w.nth(0)
    content, factors = sympy.factor_list(sympy.Poly(f0, t))
    if any(m % 2 for _, m in factors):
        return False  # restriction is not a square: no certificate
    root_c = sympy.sqrt(content)
    if not root_c.is_rational:
        return False
    h = root_c
    for fac, m in factors:
        h *= fac.as_expr() ** (m // 2)
    h = sympy.expand(h)
    assert sympy.expand(h * h - f0) == 0
    a20, a21, a22 = sympy.symbols("a20 a21 a22")
    a2 = a20 + a21 * t + a22 * t ** 2
    identity = sympy.expand((f1 - a2 ** 2) ** 2 - 4 * f0 * (f2 - 2 * a2))
    eqs = sympy.Poly(identity, t).all_coeffs()
    for sol in sympy.solve(eqs, [a20, a21, a22], dict=True):
        if not all(v.is_rational for v in sol.values()):
            continue
        a2v = a2.subs(sol)
        a1v = sympy.cancel((f1 - a2v ** 2) / (2 * h))
        if not a1v.is_polynomial(t):
            continue
        if sympy.Poly(a1v, t).degree() <= 1:
            return True
    return False


def test_criterion_6_oracle_equivalence():
    cases = []
    for key in ("5.1", "5.2"):
        data = EXAMPLES[key]
        quartic = PreparedQuartic(parse_curve_rhs(data["quartic"]))
        for which in ("s1", "s2"):
            conic = Conic(parse_section(data[which]).x.as_unipoly())
            sym = qr_symbol(quartic, conic)
            cert_exists = _certificate_exists_via_sympy(quartic, conic)
            cases.append((key, which, sym.value, cert_exists))
    ok = all((value == 1) == exists for _, _, value, exists in cases)
    announce(
        "criterion 6 (halving route == certificate-system oracle)",
        ok,
        "; ".join(f"{k}/{w}: symbol {v}, certificate {e}" for k, w, v, e in cases),
    )


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------


def _curve_and_sections(key):
    data = EXAMPLES[key]
    f = parse_curve_rhs(data["quartic"])
    curve = WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))
    pts = {k: parse_section(data[k]) for k in ("s_o", "s_t1", "s_t2")}
    return curve, pts


def test_criterion_7_property_suites():
    start = time.time()
    ok = True

    # group laws under 100 random specializations (both surfaces)
    rng = random.Random(20250810)
    for key in ("5.1", "5.2"):
        curve, pts = _curve_and_sections(key)
        disc = curve.discriminant
        names = list(pts)
        done = 0
        while done < 50:
            t0 = Fraction(rng.randint(-40, 40), rng.randint(1, 3))
            if disc(t0) == 0:
                continue
            spec = WeierstrassCurve(
                UniPoly.const(curve.c1(t0)),
                UniPoly.const(curve.c2(t0)),
                UniPoly.const(curve.c3(t0)),
            )

            def at(p):
                return SectionPoint.of(UniPoly.const(p.x(t0)), UniPoly.const(p.y(t0)))

            a, b, c = (pts[rng.choice(names)] for _ in range(3))
            sa, sb, sc = at(a), at(b), at(c)
            if a.x != b.x:
                ok &= at(add(curve, a, b)) == add(spec, sa, sb)
            ok &= add(spec, sa, sb) == add(spec, sb, sa)
            ok &= add(spec, add(spec, sa, sb), sc) == add(spec, sa, add(spec, sb, sc))
            ok &= add(spec, sa, SectionPoint.zero()) == sa
            done += 1

    # double-then-halve round trips; Euler sums; height bilinearity
    for key in ("5.1", "5.2"):
        curve, pts = _curve_and_sections(key)
        ctx = height_context(curve)
        ok &= sum(pd.degree * pd.euler for pd in ctx.places) == 12
        s1 = double(curve, pts["s_o"])
        back = halve(curve, s1)
        ok &= back is not None and double(curve, back) == s1
        p, q, r = pts["s_o"], pts["s_t1"], pts["s_t2"]
        ok &= height_pairing(ctx, p, q) == height_pairing(ctx, q, p)
        h_pr, h_qr = height_pairing(ctx, p, r), height_pairing(ctx, q, r)
        for a_int in range(-2, 3):
            for b_int in range(-2, 3):
                combo = add(curve, multiple(curve, a_int, p), multiple(curve, b_int, q))
                ok &= height_pairing(ctx, combo, r) == a_int * h_pr + b_int * h_qr
                if not combo.is_zero:
                    ok &= height_pairing(ctx, combo, combo) > 0

    # enumeration: exactness and negation symmetry
    for lat in (lattice_from_text("A5")[0], lattice_from_text("D4")[0], lattice_from_text("E6")[0]):
        for norm in (Fraction(2), Fraction(4)):
            vecs = enumerate_by_norm(lat, norm)
            for v in vecs:
                ok &= lat.norm(v) == norm
                ok &= tuple(-c for c in v) in vecs

    # genus dichotomies across all sixty rows
    for row in builtin_table():
        genus = genus_from_sing(row.sing_type)
        if genus == 0:
            ok &= row.qretc_expected == row.etc_expected
        if genus >= 2:
            ok &= row.qretc_expected == 0

    elapsed = time.time() - start
    announce("criterion 7 (property suites)", ok and elapsed < 120, f"{elapsed:.1f}s")
