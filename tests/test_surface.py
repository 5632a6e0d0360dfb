"""Group law, fiber classification, local corrections, heights, halving."""

import contextlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mwq import surface
from mwq.cli import main
from mwq.lattice import dual_gram, lattice_from_text
from mwq.parsing import parse_curve_rhs, parse_section, parse_unipoly, poly_text
from mwq.replay import EXAMPLES
from mwq.report import EXIT_INPUT_ERROR, EXIT_OK
from mwq.poly import (
    T, UNIPOLY_ONE, UNIPOLY_ZERO, BiPoly, RatFn, UniPoly, is_perfect_square, ord_at, poly_gcd,
    rational_roots, squarefree_decompose,
)
from mwq.surface import (
    INFINITY_PLACE,
    InternalInconsistencyError,
    SectionPoint,
    WeierstrassCurve,
    _lifted_roots,
    add,
    cubic_invariants,
    double,
    halve,
    height_context,
    height_gram,
    height_pairing,
    kodaira_type_at,
    local_correction,
    negate,
    on_curve,
    section_O_intersection,
    two_torsion_free,
)
from test_poly import factors_by_sympy


def curve_51():
    f = parse_curve_rhs(
        "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2"
    )
    return WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))


def curve_52():
    f = parse_curve_rhs("u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4")
    return WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))


SECTIONS_51 = {
    "s_o": "(0, 6*t^2 - 12150*t)",
    "s_t1": "(-32*t, 2*t^2 - 6930*t)",
    "s_t2": "(-20*t, 4*t^2 - 4500*t)",
}
SECTIONS_52 = {
    "s_o": "(0, 4*t^2)",
    "s_t1": "(-16*t, -48*t)",
    "s_t2": "(-15*t, t^2 + 45*t)",
}


@pytest.fixture(scope="module")
def e51():
    return curve_51()


@pytest.fixture(scope="module")
def e52():
    return curve_52()


# torsion sections, each with its curve's bad fibers at finite places and at infinity
TORSION = [
    ("u^3 + t^2", "(0, t)"),  # IV, IV*
    ("u^3 + t^4", "(0, t^2)"),  # IV*, IV
    ("u^3 + t*u", "(0, 0)"),  # III, III*
    ("u^3 + t^2*u", "(0, 0)"),  # I0*, I0*
    ("u^3 + t^3*u", "(0, 0)"),  # III*, III
    ("u^3 + t*u^2 + t^3*u", "(0, 0)"),  # I2*, III
    ("u^3 + t*u^2 + t^4*u", "(0, 0)"),  # I4*
    ("u^3 + u^2 + t^2*u", "(0, 0)"),  # I4, I0*
    ("u^3 + u^2 + (t^2 - 2)*u", "(0, 0)"),  # I2 over the degree-2 place t^2 - 2, I0*
]


def secs(table):
    return {k: parse_section(v) for k, v in table.items()}


def shifted(p, a):
    """p(t + a), by Horner in UniPoly arithmetic."""
    acc = UNIPOLY_ZERO
    for c in reversed(p.coeffs):
        acc = acc * (T + a) + c
    return acc


def multiple(curve, n, p):
    """n*P by repeated chord-law addition."""
    if n < 0:
        return multiple(curve, -n, negate(curve, p))
    acc = SectionPoint.zero()
    for _ in range(n):
        acc = add(curve, acc, p)
    return acc


def combinations(curve, table):
    """a*s_o + b*s_t1 + c*s_t2 for a, b, c in {-1, 0, 1}, keyed by (a, b, c)."""
    gens = [parse_section(table[k]) for k in ("s_o", "s_t1", "s_t2")]
    out = {}
    for v in itertools.product((-1, 0, 1), repeat=3):
        s = SectionPoint.zero()
        for a, g in zip(v, gens):
            s = add(curve, s, multiple(curve, a, g))
        out[v] = s
    return out


@pytest.fixture(scope="module")
def combos(e51, e52):
    return {"5.1": combinations(e51, SECTIONS_51), "5.2": combinations(e52, SECTIONS_52)}


# ---------------------------------------------------------------------------
# curve construction and the group law
# ---------------------------------------------------------------------------


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        WeierstrassCurve(T ** 3, UNIPOLY_ZERO, UNIPOLY_ONE)
    with pytest.raises(ValueError):
        WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 7)


def test_zero_discriminant_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, UNIPOLY_ZERO)


def test_on_curve(e51):
    pts = secs(SECTIONS_51)
    for p in pts.values():
        assert on_curve(e51, p)
    assert on_curve(e51, SectionPoint.zero())
    assert not on_curve(e51, SectionPoint.of(UNIPOLY_ZERO, UNIPOLY_ONE))


def test_add_zero_is_identity(e51):
    p = parse_section(SECTIONS_51["s_t1"])
    assert add(e51, p, SectionPoint.zero()) == p
    assert add(e51, SectionPoint.zero(), p) == p


def test_add_inverse_is_zero(e51):
    p = parse_section(SECTIONS_51["s_t1"])
    assert add(e51, p, negate(e51, p)).is_zero


def test_double_matches_printed_section(e51):
    s1 = double(e51, parse_section(SECTIONS_51["s_o"]))
    assert s1 == parse_section(
        "(1/144*t^2 + 1231/72*t - 5143775/144, "
        "-1/1728*t^3 - 2335/576*t^2 + 13493375/576*t - 29962489375/1728)"
    )


def test_add_matches_printed_section(e51):
    pts = secs(SECTIONS_51)
    s2 = add(e51, pts["s_t1"], pts["s_t2"])
    assert s2 == parse_section(
        "(1/36*t^2 + 435/2*t - 921375/4, "
        "-1/216*t^3 - 1181/24*t^2 - 41625/8*t + 373156875/8)"
    )


def test_doubling_a_section_with_rational_coordinates(e51):
    """x(-2(s_o + s_t1 + s_t2)) has degree 10/8 and coefficients of over 100
    bits; its double, whose every RatFn is reduced by a gcd of such
    polynomials, lies on the curve with x of degree 40/38."""
    pts = secs(SECTIONS_51)
    s = negate(e51, double(e51, add(e51, add(e51, pts["s_o"], pts["s_t1"]), pts["s_t2"])))
    assert (s.x.num.degree, s.x.den.degree) == (10, 8)
    d = double(e51, s)
    assert on_curve(e51, d)
    assert (d.x.num.degree, d.x.den.degree) == (40, 38)


def test_group_law_under_100_random_specializations(e51):
    """Specializing commutes with the group law, and the specialized law is
    commutative/associative with O neutral."""
    rng = random.Random(2024)
    pts = secs(SECTIONS_51)
    disc = e51.discriminant
    names = list(pts)
    done = 0
    while done < 100:
        t0 = Fraction(rng.randint(-50, 50), rng.randint(1, 4))
        if disc(t0) == 0:
            continue
        spec = WeierstrassCurve(
            UniPoly.const(e51.c1(t0)), UniPoly.const(e51.c2(t0)), UniPoly.const(e51.c3(t0))
        )

        def at(p):
            return SectionPoint.of(UniPoly.const(p.x(t0)), UniPoly.const(p.y(t0)))

        a = pts[rng.choice(names)]
        b = pts[rng.choice(names)]
        c = pts[rng.choice(names)]
        sa, sb, sc = at(a), at(b), at(c)
        # specialization of the generic sum
        if a.x != b.x:
            assert at(add(e51, a, b)) == add(spec, sa, sb)
        # commutativity, associativity, neutrality on the fiber
        assert add(spec, sa, sb) == add(spec, sb, sa)
        lhs = add(spec, add(spec, sa, sb), sc)
        rhs = add(spec, sa, add(spec, sb, sc))
        assert lhs == rhs
        assert add(spec, sa, SectionPoint.zero()) == sa
        done += 1


# ---------------------------------------------------------------------------
# discriminants and fiber types
# ---------------------------------------------------------------------------


def test_constant_discriminant():
    c = WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, UNIPOLY_ONE)
    assert c.discriminant == UniPoly.const(-27)


def _sympy_invariants(c1, c2, c3):
    """disc, c1^2 - 3 c2 and 2 c1^3 - 9 c1 c2 + 27 c3 of u^3 + c1 u^2 + c2 u + c3,
    expanded by sympy."""
    import sympy as sp

    t, u = sp.symbols("t u")
    s1, s2, s3 = (sum(sp.Rational(a.numerator, a.denominator) * t ** i
                      for i, a in enumerate(c.coeffs)) for c in (c1, c2, c3))
    cubic = u ** 3 + s1 * u ** 2 + s2 * u + s3
    return (sp.Poly(sp.expand(e), t) for e in (sp.discriminant(cubic, u), s1 ** 2 - 3 * s2,
                                                 2 * s1 ** 3 - 9 * s1 * s2 + 27 * s3))


def _as_sympy(p):
    import sympy as sp

    t = sp.Symbol("t")
    return sp.Poly(sum(sp.Rational(a.numerator, a.denominator) * t ** i
                       for i, a in enumerate(p.coeffs)), t)


def test_cubic_discriminant_against_sympy():
    rng = random.Random(505)
    for _ in range(20):
        c1, c2, c3 = (UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 2 * k + 1))])
                      for k in (1, 2, 3))
        got = cubic_invariants(c1, c2, c3)
        assert [_as_sympy(p) for p in got] == list(_sympy_invariants(c1, c2, c3))


def _rational_poly(max_degree: int):
    """A polynomial of degree at most max_degree with a rational content."""
    return st.builds(
        lambda cs, num, den: UniPoly(cs) * Fraction(num, den),
        st.lists(st.integers(-50, 50), max_size=max_degree + 1),
        st.integers(-30, 30).filter(bool), st.integers(1, 40),
    )


@settings(max_examples=60, deadline=None)
@given(c1=_rational_poly(2), c2=_rational_poly(4), c3=_rational_poly(6),
       zero=st.sampled_from(["", "c1", "c2", "c1 c2"]))
def test_cubic_invariants_match_sympy(c1, c2, c3, zero):
    """disc, c4 and c6 from one integer pass equal sympy's, with deg c_k <= 2k,
    rational contents, and c1 or c2 (or both) zero."""
    c1 = UNIPOLY_ZERO if "c1" in zero else c1
    c2 = UNIPOLY_ZERO if "c2" in zero else c2
    got = cubic_invariants(c1, c2, c3)
    assert [_as_sympy(p) for p in got] == list(_sympy_invariants(c1, c2, c3))
    if not got[0].is_zero:  # the curve reads its three invariants from that one pass
        curve = WeierstrassCurve(c1, c2, c3)
        assert (curve.discriminant, curve.c4_quantity, curve.c6_quantity) == got


def test_example_discriminant_roots(e51, e52):
    d = e51.discriminant
    assert d(Fraction(0)) == 0 and d(Fraction(2025)) == 0
    from mwq.poly import ord_at

    assert ord_at(e52.discriminant, T) == 4


def test_kodaira_types_example_51(e51):
    assert kodaira_type_at(e51, T).kodaira == "I2"
    assert kodaira_type_at(e51, UniPoly.of(-2025, 1)).kodaira == "I2"
    pd = kodaira_type_at(e51, INFINITY_PLACE)
    assert pd.kodaira == "III" and pd.m_v == 2 and pd.root_label() == "A1"


def test_kodaira_types_example_52(e52):
    pd = kodaira_type_at(e52, T)
    assert pd.kodaira == "I4" and pd.m_v == 4 and pd.euler == 4
    assert kodaira_type_at(e52, INFINITY_PLACE).kodaira == "III"


def test_kodaira_rejects_nonsingular_place(e51):
    with pytest.raises(ValueError):
        kodaira_type_at(e51, UniPoly.of(-1, 1))  # t = 1 is a good fiber


def test_kodaira_synthetic_additive_menagerie(capsys):
    cases = [
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T), "II", 1, 2, None),
        (WeierstrassCurve(UNIPOLY_ZERO, T, UNIPOLY_ZERO), "III", 2, 3, "A1"),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 2), "IV", 3, 4, "A2"),
        (WeierstrassCurve(UNIPOLY_ZERO, T ** 2, UNIPOLY_ZERO), "I0*", 5, 6, "D4"),
        (_curve("u^3 + t^3"), "I0*", 5, 6, "D4"),  # c4 = 0
        (WeierstrassCurve(T, UNIPOLY_ZERO, T ** 4), "I1*", 6, 7, "D5"),
        (_curve("u^3 + t*u^2 + t^5"), "I2*", 7, 8, "D6"),
        (_curve("u^3 + t*u^2 + t^6"), "I3*", 8, 9, "D7"),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 4), "IV*", 7, 8, "E6"),
        (WeierstrassCurve(UNIPOLY_ZERO, T ** 3, UNIPOLY_ZERO), "III*", 8, 9, "E7"),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 5), "II*", 9, 10, "E8"),
    ]
    for curve, expected, m_v, euler, root in cases:
        pd = kodaira_type_at(curve, T)
        assert (pd.kodaira, pd.m_v, pd.euler, pd.root_label()) == (expected, m_v, euler, root)
    # v(c4) = 4, v(c6) = 6, v(disc) = 12: no Kodaira type, the model is not minimal
    with pytest.raises(ValueError, match="not minimal"):
        kodaira_type_at(_curve("u^3 + t^4*u + t^6"), T)
    assert main(["curve", "fibers", "u^3 + t^4*u + t^6"]) == EXIT_INPUT_ERROR
    assert "not minimal" in capsys.readouterr().err


def test_euler_sum_is_twelve(e51, e52):
    for curve in (e51, e52):
        ctx = height_context(curve)
        assert sum(pd.degree * pd.euler for pd in ctx.places) == 12


# ---------------------------------------------------------------------------
# places: the simple part of the discriminant is one place, never factored,
# and a repeated block is cut only where the fiber type changes
# ---------------------------------------------------------------------------


def _per_place_context(curve):
    """The oracle: each irreducible factor of the discriminant, read off
    sympy's factorization, classified as a place of its own."""
    places = [kodaira_type_at(curve, irr) for irr, _ in factors_by_sympy(curve.discriminant)]
    if curve.discriminant.degree < 12:
        places.append(kodaira_type_at(curve, INFINITY_PLACE))
    return surface.HeightContext(curve, tuple(places))


# disc = 27 (2 - t^2)(2 + t^2): an I1 block of two irreducible places, and IV*
# at infinity
SPLIT_I1 = "u^3 - 3*u + t^2"


def test_a_reducible_simple_part_is_one_I1_place():
    curve = _curve(SPLIT_I1)
    ctx = height_context(curve)
    assert [(pd.label, pd.kodaira, pd.degree) for pd in ctx.places] == [
        ("t^4-4", "I1", 4), (INFINITY_PLACE, "IV*", 1)]
    assert len(_per_place_context(curve).places) == 3


def _matches_the_per_place_context(ctx):
    """Each place of the context is a product of places of the oracle, all of
    its fiber type, whose degrees add up to its own."""
    oracle = _per_place_context(ctx.curve).places
    covered = 0
    for pd in ctx.places:
        if pd.place == INFINITY_PLACE:
            parts = [q for q in oracle if q.place == INFINITY_PLACE]
        else:
            parts = [q for q in oracle if q.place != INFINITY_PLACE
                     and poly_gcd(q.place, pd.place).degree > 0]
        assert {q.kodaira for q in parts} == {pd.kodaira}
        assert sum(q.degree for q in parts) == pd.degree
        covered += len(parts)
    assert covered == len(oracle)


# disc = -324 (t^2 - 2)^2 (t^2 - 3)^2 (3t^2 - 4)^2: one Yun block of degree 6,
# in which c4 = -9 (t^2 - 3)(3t^2 - 4) vanishes at the four type II roots and
# not at the two I2 roots, all with v(disc) = 2
MIXED_I2_II = "u^3 + (9*(t^2-2)^2 - 3*t^2)*u + 2*t^3 - 6*t*(t^2-2)^2"


def test_a_mixed_I2_II_block_is_cut_by_c4():
    curve = _curve(MIXED_I2_II)
    assert [(f.degree, m) for f, m in squarefree_decompose(curve.discriminant)] == [(6, 2)]
    ctx = height_context(curve)
    assert [(pd.label, pd.kodaira, pd.degree) for pd in ctx.places] == [
        ("t^2-2", "I2", 2), ("t^4-13/3*t^2+4", "II", 4)]
    assert sum(pd.degree * pd.euler for pd in ctx.places) == 12
    _matches_the_per_place_context(ctx)


# b = (t^2 + 1)(t^2 + 2) is one rootless I2 block of degree 4, and the section
# (t^2 + 1, t (t^2 + 1)) meets the node over the roots of t^2 + 1 only:
# f(x) = x (x^2 + a x + b) = (t^2 + 1)^2 t^2 for a = t^2 - (t^2 + 1) - (t^2 + 2)
SPLIT_I2 = "u^3 - (t^2 + 3)*u^2 + (t^2 + 1)*(t^2 + 2)*u"


def test_a_section_meets_different_components_over_one_block():
    curve = _curve(SPLIT_I2)
    ctx = height_context(curve)
    block = UniPoly.of(1, 0, 1) * UniPoly.of(2, 0, 1)
    assert [(pd.place, pd.kodaira) for pd in ctx.places if pd.m_v > 1] == [(block, "I2")]
    _matches_the_per_place_context(ctx)
    p = parse_section("(t^2 + 1, t^3 + t)")
    assert height_pairing(ctx, p, p) == 1  # 2 - 2 * (1/2): the two roots of t^2 + 1


@pytest.mark.parametrize("rhs, table", [
    (EXAMPLES["5.1"]["quartic"], SECTIONS_51),
    (EXAMPLES["5.2"]["quartic"], SECTIONS_52),
    (SPLIT_I1, {"p": "(0, t)"}),
    (SPLIT_I2, {"p": "(t^2 + 1, t^3 + t)", "torsion": "(0, 0)"}),
], ids=["5.1", "5.2", "split_I1", "split_I2"])
def test_height_pairing_matches_the_per_place_context(rhs, table):
    curve = _curve(rhs)
    ctx, oracle = height_context(curve), _per_place_context(curve)
    gens = list(secs(table).values())
    pts = gens + [double(curve, g) for g in gens] + [add(curve, gens[0], g) for g in gens[1:]]
    for p, q in itertools.combinations_with_replacement(pts, 2):
        assert height_pairing(ctx, p, q) == height_pairing(oracle, p, q)


def _pairwise_height(ctx, p, q):
    """The oracle for `height_gram`: <P, Q> from three self-heights a pair,
    <P, P> + <Q, Q> - <P - Q, P - Q> over 2, each one taken afresh."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if p == q:
        return surface._self_height(ctx, p)
    diff = add(ctx.curve, p, negate(ctx.curve, q))
    return (surface._self_height(ctx, p) + surface._self_height(ctx, q)
            - surface._self_height(ctx, diff)) / 2


@pytest.mark.parametrize("rhs, table", [
    (EXAMPLES["5.1"]["quartic"], SECTIONS_51),
    (EXAMPLES["5.2"]["quartic"], SECTIONS_52),
    (SPLIT_I1, {"p": "(0, t)"}),
    (SPLIT_I2, {"p": "(t^2 + 1, t^3 + t)", "torsion": "(0, 0)"}),
], ids=["5.1", "5.2", "split_I1", "split_I2"])
def test_height_gram_matches_the_pairwise_formula(rhs, table):
    """Entry by entry, on the generators, their sums and differences, a
    repeated point and the zero section, in both the refined and the
    per-place context; and the Gram is symmetric."""
    curve = _curve(rhs)
    gens = list(secs(table).values())
    pts = (gens + [add(curve, gens[0], g) for g in gens[1:]]
           + [add(curve, gens[0], negate(curve, g)) for g in gens[1:]]
           + [gens[0], SectionPoint.zero()])
    for ctx in (height_context(curve), _per_place_context(curve)):
        gram = height_gram(ctx, pts)
        assert len(gram) == len(pts) and all(len(row) == len(pts) for row in gram)
        for i, j in itertools.product(range(len(pts)), repeat=2):
            assert gram[i][j] == gram[j][i] == _pairwise_height(ctx, pts[i], pts[j]), (i, j)
        assert height_gram(ctx, ()) == []


def test_height_gram_takes_each_self_height_once(e52, monkeypatch):
    """n distinct points cost n self-heights and one per pair's difference;
    a repeated point and the zero section cost none."""
    ctx = height_context(e52)
    s_o, s_t1, s_t2 = secs(SECTIONS_52).values()
    seen = []
    real = surface._self_height
    monkeypatch.setattr(surface, "_self_height", lambda c, p: seen.append(p) or real(c, p))
    for points, calls in [((s_t1, s_t2), 3), ((s_o, s_t1, s_t2), 6), ((s_o, s_o), 1),
                          ((s_o, SectionPoint.zero()), 1), ((SectionPoint.zero(),) * 2, 0),
                          ((s_t1, s_t2, s_t1), 3)]:
        seen.clear()
        gram = height_gram(ctx, points)
        assert len(seen) == len(set(seen)) == calls, points
        assert height_pairing(ctx, points[0], points[1]) == gram[0][1]


@pytest.mark.parametrize("name", ["5.1", "5.2"])
def test_the_I1_quintic_is_never_factored(capsys, monkeypatch, name):
    import mwq.surface

    curve = _curve(EXAMPLES[name]["quartic"])
    simple = [f for f, mult in squarefree_decompose(curve.discriminant) if mult == 1]
    assert [f.degree for f in simple] == [5]
    # the repeated blocks are cut by `split_by` along c4 and c6, and each
    # piece loses its rational roots in `block_places`
    cut = {"split_by": [], "block_places": []}
    for cutter, seen in cut.items():
        real = getattr(mwq.surface, cutter)
        monkeypatch.setattr(mwq.surface, cutter,
                            lambda p, *rest, seen=seen, real=real: seen.append(p) or real(p, *rest))
    assert main(["example", name]) == EXIT_OK
    capsys.readouterr()
    assert all(cut.values())  # the repeated part is split into places
    assert all(poly_gcd(p, simple[0]).degree == 0 for seen in cut.values() for p in seen)


def _fiber_types(ctx):
    """The Kodaira type of each fiber over the algebraic closure, as a
    multiset: each type with the total degree of the places that carry it."""
    return Counter(pd.kodaira for pd in ctx.places for _ in range(pd.degree))


@pytest.mark.parametrize("rhs", [EXAMPLES["5.1"]["quartic"], EXAMPLES["5.2"]["quartic"],
                                 SPLIT_I1, SPLIT_I2, MIXED_I2_II],
                         ids=["5.1", "5.2", "split_I1", "split_I2", "mixed_I2_II"])
def test_fiber_types_match_the_per_place_context(rhs):
    """`height_context` reads each finite valuation off its refinement; the
    oracle reads `ord_at` on sympy's irreducible factors."""
    curve = _curve(rhs)
    assert _fiber_types(height_context(curve)) == _fiber_types(_per_place_context(curve))


def _small_poly(degree):
    return st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1).map(UniPoly)


@settings(max_examples=40, deadline=None)
@given(c1=_small_poly(2), c2=_small_poly(3), x=_small_poly(1), y=_small_poly(2))
def test_planted_fiber_types_match_the_per_place_context(c1, c2, x, y):
    """A planted section: with c2, x and y divisible by t and
    c3 = y^2 - x^3 - c1 x^2 - c2 x, P = (x, y) lies on the curve, and c3 is
    divisible by t^2, so the surface is singular over (t, u) = (0, 0) and the
    discriminant has at least a double root 0.  The fiber types, and the
    height of P, agree with the per-place oracle."""
    c2, x, y = T * c2, T * x, T * y
    c3 = y * y - x ** 3 - c1 * x * x - c2 * x
    assume(not cubic_invariants(c1, c2, c3)[0].is_zero)
    curve = WeierstrassCurve(c1, c2, c3)
    assert ord_at(curve.discriminant, T) >= 2
    try:
        ctx = height_context(curve)
    except ValueError:  # a place where the model is not minimal
        with pytest.raises(ValueError, match="not minimal"):
            _per_place_context(curve)
        return
    oracle = _per_place_context(curve)
    assert _fiber_types(ctx) == _fiber_types(oracle)
    p = SectionPoint.of(x, y)
    assert height_pairing(ctx, p, p) == height_pairing(oracle, p, p)


# ---------------------------------------------------------------------------
# local corrections
# ---------------------------------------------------------------------------


def test_zero_section_on_identity_component(e51):
    pd = kodaira_type_at(e51, T)
    assert local_correction(pd, SectionPoint.zero()) == 0


def test_component_misses_node(e51):
    # s_t1 at t = 2025: x = -64800 is far from the node at u = 0
    pd = kodaira_type_at(e51, UniPoly.of(-2025, 1))
    p = parse_section(SECTIONS_51["s_t1"])
    assert local_correction(pd, p) == 0


def test_components_of_s_o_example_51(e51):
    # forced by <s_o, s_o> = 1/2 = 2 - 3/2: s_o passes through all three
    # reducible fibers away from the identity component
    pts = secs(SECTIONS_51)
    total = Fraction(0)
    for place in (T, UniPoly.of(-2025, 1), INFINITY_PLACE):
        corr = local_correction(kodaira_type_at(e51, place), pts["s_o"])
        assert corr == Fraction(1, 2)
        total += corr
    assert total == Fraction(3, 2)


def test_cycle_components_example_52(e52):
    # on the I4 fiber i(4 - i)/4 is 3/4 on components 1 and 3 and 1 on
    # component 2: the generators sit on opposite components, s_o between them
    pd = kodaira_type_at(e52, T)
    pts = secs(SECTIONS_52)
    assert local_correction(pd, pts["s_t1"]) == local_correction(pd, pts["s_t2"]) == Fraction(3, 4)
    assert local_correction(pd, pts["s_o"]) == 1
    s2 = add(e52, pts["s_t1"], pts["s_t2"])
    assert local_correction(pd, s2) == 0  # indices add on the cycle


def test_corr_in_closed_form_matches_matrix(e51, e52, combos):
    # every nonzero correction read off valuations is a diagonal entry of the
    # inverse Cartan matrix of the fiber's root lattice, computed independently
    cases = [(example, s) for example, by_vector in combos.items() for s in by_vector.values()]
    cases += [(rhs, parse_section(section)) for rhs, section in TORSION]
    curves = {"5.1": e51, "5.2": e52}
    seen = set()
    for name, s in cases:
        ctx = height_context(curves[name] if name in curves else _curve(name))
        for pd in ctx.places:
            corr = local_correction(pd, s)
            if corr == 0:
                continue
            root = pd.root_label()
            inverse = dual_gram(lattice_from_text(root)[0]).gram
            assert corr in {inverse[i][i] for i in range(len(inverse))}, (name, pd.kodaira, s)
            seen.add(pd.kodaira)
    assert seen == {"I2", "I4", "III", "IV", "I0*", "I2*", "I4*", "IV*", "III*"}


def test_corr_type_iii_and_iv():
    iii = kodaira_type_at(_curve("u^3 + t*u"), T)
    assert iii.kodaira == "III"
    assert local_correction(iii, parse_section("(0, 0)")) == Fraction(1, 2)
    iv = kodaira_type_at(_curve("u^3 + t^2"), T)
    assert iv.kodaira == "IV"
    assert local_correction(iv, parse_section("(0, t)")) == Fraction(2, 3)
    assert local_correction(iv, parse_section("(0, -t)")) == Fraction(2, 3)


def test_place_data_is_immutable(e51):
    pd = kodaira_type_at(e51, T)
    with pytest.raises(AttributeError):
        pd.kodaira = "I3"


@pytest.mark.parametrize("rhs, section", TORSION)
def test_torsion_sections_have_height_zero(capsys, rhs, section):
    p = parse_section(section)
    assert height_pairing(height_context(_curve(rhs)), p, p) == 0
    assert main(["curve", "height", rhs, section, section]) == EXIT_OK
    assert "height = 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def test_sO_zero_for_polynomial_sections(e51):
    for p in secs(SECTIONS_51).values():
        assert section_O_intersection(p) == 0


def test_sO_rejects_zero_section(e51):
    with pytest.raises(ValueError):
        section_O_intersection(SectionPoint.zero())


def test_sO_counts_denominator_places(e51):
    from mwq.poly import ord_at

    pts = secs(SECTIONS_51)
    s = double(e51, pts["s_t1"])  # y(s_t1) vanishes at t = 3465: 2P meets O there
    assert ord_at(s.x.den, UniPoly.of(-3465, 1)) == 2
    assert section_O_intersection(s) == 1


def test_sO_shifted_denominator():
    # the same surface with t -> t + 3464 puts the pole denominator at (t-1)^2
    from mwq.poly import ord_at

    base = curve_51()

    def sh(p):
        return shifted(p, 3464)

    curve = WeierstrassCurve(sh(base.c1), sh(base.c2), sh(base.c3))
    pts = secs(SECTIONS_51)
    s = double(base, pts["s_t1"])
    moved = SectionPoint(
        RatFn(sh(s.x.num), sh(s.x.den)), RatFn(sh(s.y.num), sh(s.y.den))
    )
    assert on_curve(curve, moved)
    assert ord_at(moved.x.den, UniPoly.of(-1, 1)) == 2
    assert section_O_intersection(moved) == 1


def test_sO_pole_at_infinity():
    # t -> t + 3465 puts the pole of 2*s_t1 at t = 0, and t -> 1/t (weight w:
    # a -> t^w a(1/t), with c_k of weight 2k, x of 2 and y of 3) moves it to
    # infinity, where x has a pole of order 2 and P meets O once
    def flip(p, w):
        return UniPoly.of(*reversed(p.coeffs + (0,) * (w + 1 - len(p.coeffs))))

    def flip_ratfn(r, w):
        k = max(r.num.degree, r.den.degree)
        return RatFn(flip(shifted(r.num, 3465), k) * T ** w, flip(shifted(r.den, 3465), k))

    base = curve_51()
    curve = WeierstrassCurve(*(flip(shifted(c, 3465), 2 * k)
                               for k, c in enumerate((base.c1, base.c2, base.c3), 1)))
    s = double(base, secs(SECTIONS_51)["s_t1"])
    moved = SectionPoint(flip_ratfn(s.x, 2), flip_ratfn(s.y, 3))
    assert on_curve(curve, moved)
    assert moved.x.den.degree == 0 and moved.x.num.degree == 4
    assert section_O_intersection(moved) == 1


def pair_intersection(curve, p, q):
    """s1.s2 = (s1 - s2).O: translation by -s2 is an automorphism of the
    surface that carries s2 to O (Shioda 1990)."""
    return section_O_intersection(add(curve, p, negate(curve, q)))


def test_pair_intersection_zero_when_x_differs_by_constant(e51):
    pts = secs(SECTIONS_51)
    # x-coordinates -32t and -20t meet only over t = 0 (the node); the
    # resolved cycle there keeps the sections apart
    assert pair_intersection(e51, pts["s_t1"], pts["s_t2"]) == 0


def test_pair_intersection_consistent_with_heights(e52):
    # <s_t1, s_t2> = 1 + 0 + 0 - s_t1.s_t2 - 3/4 on the I4 fiber
    pts = secs(SECTIONS_52)
    assert pair_intersection(e52, pts["s_t1"], pts["s_t2"]) == 0
    assert height_pairing(height_context(e52), pts["s_t1"], pts["s_t2"]) == Fraction(1, 4)


def test_pair_intersection_positive_case(e51):
    pts = secs(SECTIONS_51)
    p = pts["s_t1"]
    q = negate(e51, pts["s_t1"])
    # P and -P meet exactly where y vanishes; cross-check via the height
    ctx = height_context(e51)
    h_pp = height_pairing(ctx, p, p)
    h_pq = height_pairing(ctx, p, q)
    assert h_pq == -h_pp
    assert pair_intersection(e51, p, q) == section_O_intersection(double(e51, p)) == 1


def test_height_pairing_classifies_no_fiber_again(e51, monkeypatch):
    # s_t1 and s_t2 both pass through the node of the I2 fiber over t = 0;
    # their pairing reads the fibers from the context, classifying none again
    import mwq.surface

    ctx = height_context(e51)
    pts = secs(SECTIONS_51)

    def no_reclassification(*args):
        raise AssertionError("fiber classified again")

    monkeypatch.setattr(mwq.surface, "kodaira_type_at", no_reclassification)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t2"]) == 0


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def test_heights_example_51(e51):
    ctx = height_context(e51)
    pts = secs(SECTIONS_51)
    assert height_pairing(ctx, pts["s_o"], pts["s_o"]) == Fraction(1, 2)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t1"]) == 1
    assert height_pairing(ctx, pts["s_t2"], pts["s_t2"]) == 1
    assert height_pairing(ctx, pts["s_t1"], pts["s_t2"]) == 0


def test_heights_example_52(e52):
    ctx = height_context(e52)
    pts = secs(SECTIONS_52)
    assert height_pairing(ctx, pts["s_o"], pts["s_o"]) == Fraction(1, 2)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t1"]) == Fraction(3, 4)
    assert height_pairing(ctx, pts["s_t2"], pts["s_t2"]) == Fraction(3, 4)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t2"]) == Fraction(1, 4)


def test_height_with_zero_section_is_zero(e51):
    ctx = height_context(e51)
    p = parse_section(SECTIONS_51["s_o"])
    assert height_pairing(ctx, p, SectionPoint.zero()) == 0
    assert height_pairing(ctx, SectionPoint.zero(), SectionPoint.zero()) == 0


# the height Gram matrices of (s_o, s_t1, s_t2)
GRAMS = {
    "5.1": [[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]],
    "5.2": [[Fraction(1, 2), 0, 0], [0, Fraction(3, 4), Fraction(1, 4)],
            [0, Fraction(1, 4), Fraction(3, 4)]],
}


def test_height_symmetry_and_bilinearity(e51, e52, combos):
    for name, curve, table in (("5.1", e51, SECTIONS_51), ("5.2", e52, SECTIONS_52)):
        ctx = height_context(curve)
        gram = GRAMS[name]
        for v, s in combos[name].items():
            expected = sum(v[i] * gram[i][j] * v[j] for i in range(3) for j in range(3))
            assert height_pairing(ctx, s, s) == expected, (name, v)
        pts = secs(table)
        p, q, r = pts["s_o"], pts["s_t1"], pts["s_t2"]
        assert height_pairing(ctx, p, q) == height_pairing(ctx, q, p)
        h_pr = height_pairing(ctx, p, r)
        h_qr = height_pairing(ctx, q, r)
        for a in range(-2, 3):
            for b in range(-2, 3):
                combo = add(curve, multiple(curve, a, p), multiple(curve, b, q))
                got = height_pairing(ctx, combo, r)
                assert got == a * h_pr + b * h_qr, (a, b)


def test_height_nonnegative_on_sections(e51):
    ctx = height_context(e51)
    pts = secs(SECTIONS_51)
    for a in range(-2, 3):
        for b in range(-2, 3):
            combo = add(e51, multiple(e51, a, pts["s_o"]), multiple(e51, b, pts["s_t1"]))
            if combo.is_zero:
                continue
            assert height_pairing(ctx, combo, combo) > 0


# ---------------------------------------------------------------------------
# the chart at infinity, built with sympy: an independent oracle for the
# valuations at infinity that `surface` reads off weighted degrees
# ---------------------------------------------------------------------------


def _chart(r, weight):
    """t^weight r(1/t) for a RatFn r, through sympy: c_k has weight 2k, x
    weight 2 and y weight 3, so (c_k, x, y) map to the same surface over
    Q(t) with t -> 1/t."""
    import sympy as sp

    t = sp.Symbol("t")

    def to_sympy(p):
        return sp.Add(*(sp.Rational(c.numerator, c.denominator) * t ** i
                        for i, c in enumerate(p.coeffs)))

    def from_sympy(expr):
        coeffs = reversed(sp.Poly(expr, t).all_coeffs())
        return UniPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])

    image = t ** weight * to_sympy(r.num).subs(t, 1 / t) / to_sympy(r.den).subs(t, 1 / t)
    num, den = sp.fraction(sp.expand(image) if r.is_polynomial() else sp.cancel(image))
    return RatFn(from_sympy(num), from_sympy(den))


def _chart_curve(curve):
    cs = (curve.c1, curve.c2, curve.c3)
    return WeierstrassCurve(*(_chart(RatFn(c), 2 * k).num for k, c in enumerate(cs, start=1)))


def _chart_point(p):
    return p if p.is_zero else SectionPoint(_chart(p.x, 2), _chart(p.y, 3))


def _fiber(curve, place):
    """The Kodaira symbol at the place, or the input error it raises."""
    try:
        return kodaira_type_at(curve, place).kodaira
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _vanishing_at_zero(weight):
    """Coefficients of degree <= weight, small integers, vanishing at t = 0 to
    a drawn order (so fibers at t = 0 are often bad, and often additive)."""
    coeffs = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]),
                      min_size=weight + 1, max_size=weight + 1)
    return st.tuples(st.integers(0, weight + 1), coeffs).map(
        lambda oc: UniPoly([0] * oc[0] + oc[1][oc[0]:])
    )


@settings(max_examples=100, deadline=None)
@given(_vanishing_at_zero(2), _vanishing_at_zero(4), _vanishing_at_zero(6))
def test_fibers_at_t_and_infinity_match_the_sympy_chart(c1, c2, c3):
    try:
        curve = WeierstrassCurve(c1, c2, c3)
    except ValueError:
        return  # the discriminant vanishes: no surface
    chart = _chart_curve(curve)
    assert _fiber(curve, INFINITY_PLACE) == _fiber(chart, T)
    assert _fiber(curve, T) == _fiber(chart, INFINITY_PLACE)


def _place_under_inversion(pd):
    """The label of the image of the place under t -> 1/t."""
    if pd.place == INFINITY_PLACE:
        return "t"
    if pd.place == T:
        return INFINITY_PLACE
    return poly_text(_chart(RatFn(pd.place), pd.place.degree).num.monic()).replace(" ", "")


@pytest.mark.parametrize("name", ["5.1", "5.2"])
def test_heights_agree_under_t_to_one_over_t(name):
    data = EXAMPLES[name]
    curve = _curve(data["quartic"])
    chart = _chart_curve(curve)
    ctx, chart_ctx = height_context(curve), height_context(chart)
    assert ({_place_under_inversion(pd): pd.kodaira for pd in ctx.places}
            == {pd.label: pd.kodaira for pd in chart_ctx.places})
    pts = [parse_section(data[k]) for k in ("s_o", "s_t1", "s_t2", "s1", "s2")]
    pts.append(add(curve, pts[1], negate(curve, pts[2])))
    for p, q in itertools.combinations_with_replacement(pts, 2):
        assert (height_pairing(ctx, p, q)
                == height_pairing(chart_ctx, _chart_point(p), _chart_point(q))), (p, q)


# ---------------------------------------------------------------------------
# halving and 2-torsion
# ---------------------------------------------------------------------------


def test_halve_example_51(e51):
    pts = secs(SECTIONS_51)
    s1 = double(e51, pts["s_o"])
    got = halve(e51, s1)
    assert got == pts["s_o"]  # halving is unique: there is no 2-torsion
    s2 = add(e51, pts["s_t1"], pts["s_t2"])
    assert halve(e51, s2) is None


def test_halve_example_52(e52):
    pts = secs(SECTIONS_52)
    s1 = double(e52, pts["s_o"])
    got = halve(e52, s1)
    assert got == pts["s_o"]
    s2 = add(e52, pts["s_t1"], pts["s_t2"])
    assert halve(e52, s2) is None


def test_double_halve_round_trip(e51):
    pts = secs(SECTIONS_51)
    for name in ("s_o", "s_t1", "s_t2"):
        doubled = double(e51, pts[name])
        if doubled.x.is_polynomial() and doubled.x.num.degree <= 2 \
                and doubled.y.is_polynomial() and doubled.y.num.degree <= 3:
            back = halve(e51, doubled)
            assert back is not None
            assert double(e51, back) == doubled


def test_halve_preconditions(e51):
    with pytest.raises(ValueError):
        halve(e51, SectionPoint.zero())
    pts = secs(SECTIONS_51)
    s4 = multiple(e51, 4, pts["s_o"])  # rational-function coordinates
    if not s4.x.is_polynomial():
        with pytest.raises(ValueError):
            halve(e51, s4)


def test_two_torsion_free(e51, e52):
    assert two_torsion_free(e51)
    assert two_torsion_free(e52)


def test_two_torsion_detected():
    # y^2 = u^3 + u = u (u^2 + 1): visible 2-torsion at u = 0
    curve = WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ONE, UNIPOLY_ZERO)
    assert not two_torsion_free(curve)
    # a root of degree 1 in t as well: y^2 = (u - t)(u^2 + u + 1 + t)
    c1 = UniPoly.of(1, -1)
    c2 = UNIPOLY_ONE
    c3 = UniPoly.of(0, -1, -1)
    curve2 = WeierstrassCurve(c1, c2, c3)
    assert not two_torsion_free(curve2)


# ---------------------------------------------------------------------------
# oracle: the specialize-interpolate-verify search that `halve` and
# `two_torsion_free` used before the Newton lift, kept here as an independent
# decision procedure (several fibers, every branch choice interpolated)
# ---------------------------------------------------------------------------


def _interpolate(points, max_degree):
    """Unique polynomial of degree <= max_degree through the points, else None
    (Newton divided differences on the first max_degree + 1 points)."""
    base = points[: max_degree + 1]
    xs = [a for a, _ in base]
    coef = [b for _, b in base]
    for j in range(1, len(base)):
        for i in range(len(base) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = UniPoly.const(coef[-1])
    for i in range(len(base) - 2, -1, -1):
        poly = poly * UniPoly.of(-xs[i], 1) + coef[i]
    return poly if all(poly(a) == b for a, b in points) else None


def _first_good_fibers(curve, count):
    disc = curve.discriminant
    return [Fraction(k) for k in range(count + disc.degree + 1) if disc(Fraction(k)) != 0][:count]


def _spec_roots(poly):
    return sorted({r for f, _ in squarefree_decompose(poly) for r in rational_roots(f)})


def halve_by_interpolation(curve, point):
    pts = _first_good_fibers(curve, 5)
    quartics = []
    for t0 in pts:
        f = UniPoly.of(curve.c3(t0), curve.c2(t0), curve.c1(t0), 1)
        fp = f.derivative()
        quartics.append(fp * fp - UniPoly.of(4 * curve.c1(t0) + 4 * point.x(t0), 8) * f)
    root_sets = [_spec_roots(h) for h in quartics]
    if not all(root_sets):
        return None
    seen = set()
    for combo in itertools.product(*root_sets[:3]):
        cand = _interpolate(list(zip(pts, combo)), 2)
        if cand is None or cand in seen:
            continue
        seen.add(cand)
        if any(quartics[k](cand(pts[k])) != 0 for k in (3, 4)):
            continue
        g = is_perfect_square(curve.cubic.eval_u(cand))
        if g is None:
            continue
        for y_half in (g, -g):
            s_o = SectionPoint(RatFn(cand), RatFn(y_half))
            if double(curve, s_o) == point:
                return s_o
    return None


def two_torsion_free_by_interpolation(curve):
    pts = _first_good_fibers(curve, 3)
    root_sets = [
        _spec_roots(UniPoly.of(curve.c3(t0), curve.c2(t0), curve.c1(t0), 1)) for t0 in pts
    ]
    for combo in itertools.product(*root_sets):
        cand = _interpolate(list(zip(pts, combo)), 2)
        if cand is not None and curve.cubic.eval_u(cand).is_zero:
            return False
    return True


def _halvable_input(point):
    return (
        not point.is_zero
        and point.x.is_polynomial() and point.x.num.degree <= 2
        and point.y.is_polynomial() and point.y.num.degree <= 3
    )


def _curve(rhs):
    return WeierstrassCurve.from_cubic(parse_curve_rhs(rhs))


# curves with a rational 2-torsion section, and that section
TWO_TORSION = [
    ("u^3 + 7*u^2 + u", "(0, 0)"),
    ("u^3 + (t^2+7)*u^2 + u", "(0, 0)"),
    ("u^3 + 5*u^2 + 4*u", "(0, 0)"),  # both x_P +- sqrt(f'(x_P)) give halves
    ("u^3 + u", "(0, 0)"),
    ("u^3 + (1-t)*u^2 + u - t^2 - t", "(t, 0)"),  # (u - t)(u^2 + u + 1 + t)
]


@pytest.mark.parametrize("curve_of, table", [(curve_51, SECTIONS_51), (curve_52, SECTIONS_52)],
                         ids=["5.1", "5.2"])
def test_halve_agrees_with_the_interpolation_search(curve_of, table):
    curve = curve_of()
    pts = secs(table)
    inputs = []
    for a, b, c in itertools.product(range(-2, 3), repeat=3):
        s = add(curve, add(curve, multiple(curve, a, pts["s_o"]), multiple(curve, b, pts["s_t1"])),
                multiple(curve, c, pts["s_t2"]))
        if _halvable_input(s):
            inputs += [s] + [d for d in (double(curve, s),) if _halvable_input(d)]
    halved = 0
    for p in inputs:
        got = halve(curve, p)
        assert got == halve_by_interpolation(curve, p)
        if got is not None:
            assert double(curve, got) == p
            halved += 1
    assert halved and halved < len(inputs)


@pytest.mark.parametrize("rhs, section", TWO_TORSION)
def test_two_torsion_inputs_agree_with_the_interpolation_search(rhs, section):
    curve = _curve(rhs)
    point = parse_section(section)
    got = halve(curve, point)
    assert got == halve_by_interpolation(curve, point)
    assert got is None or double(curve, got) == point
    assert not two_torsion_free(curve)
    assert not two_torsion_free_by_interpolation(curve)


def test_two_torsion_free_agrees_with_the_interpolation_search(e51, e52):
    for curve in (e51, e52, _curve("u^3 + (t^2+7)*u^2 + u + t")):
        assert two_torsion_free(curve) == two_torsion_free_by_interpolation(curve)


def test_one_specialization_per_call(e51, monkeypatch):
    import mwq.surface

    calls = []
    original = mwq.surface.rational_roots
    monkeypatch.setattr(mwq.surface, "rational_roots",
                        lambda p: calls.append(p) or original(p))
    pts = secs(SECTIONS_51)
    for point in (double(e51, pts["s_o"]), add(e51, pts["s_t1"], pts["s_t2"])):
        calls.clear()
        halve(e51, point)
        assert len(calls) == 1
    calls.clear()
    two_torsion_free(e51)
    assert len(calls) == 1


def test_halving_and_two_torsion_never_import_sympy():
    # every root these need is a rational root, found by p-adic lifting
    code = "\n".join([
        "import sys",
        "from mwq.parsing import parse_curve_rhs, parse_section",
        "from mwq.replay import EXAMPLES",
        "from mwq.surface import WeierstrassCurve, add, double, halve, two_torsion_free",
        "ex = EXAMPLES['5.1']",
        "f = parse_curve_rhs(ex['quartic'])",
        "curve = WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))",
        "s_o, s_t1, s_t2 = (parse_section(ex[k]) for k in ('s_o', 's_t1', 's_t2'))",
        "assert halve(curve, double(curve, s_o)) == s_o",
        "assert halve(curve, add(curve, s_t1, s_t2)) is None",
        "assert two_torsion_free(curve)",
        "assert 'sympy' not in sys.modules, 'sympy was imported'",
    ])
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the fiber work on integer jets, and the UniPoly/BiPoly method it replaced,
# kept here as an independent oracle
# ---------------------------------------------------------------------------


def _column(f, k):
    """The coefficient of t^k of a BiPoly, a polynomial in u."""
    return UniPoly([c.coeff(k) for c in f.coeffs])


def lifted_roots_by_bipoly(local, t0):
    """Oracle: the lifts mod (t - t0)^3 of the rational roots of local(0, u),
    for local = poly(t0 + s, u), in UniPoly and Fraction arithmetic on the
    slices p_k = `_column(local, k)`, each checked on local itself, and
    shifted back to t."""
    p0, p1, p2 = (_column(local, k) for k in range(3))
    d0, d1 = p0.derivative(), p1.derivative()
    dd0 = d0.derivative()
    lifts = []
    for r in sorted(rational_roots(p0)):
        a = -p1(r) / d0(r)
        b = -(p2(r) + d1(r) * a + dd0(r) * a * a / 2) / d0(r)
        lift = UniPoly.of(r, a, b)
        assert not any(local.eval_u(lift).coeff(k) for k in range(3))
        lifts.append(shifted(lift, -t0))
    return lifts


def local_at(f, t0):
    """f(t0 + s, u), s written t."""
    return BiPoly([shifted(c, t0) for c in f.coeffs])


def scaled_slices(local, den):
    """The slices p_0, p_1, p_2 of a monic local = poly(t0 + s, u) in
    Y = den u, as integer lists: the coefficient of u^k scaled by
    den^(deg - k)."""
    n = local.degree_u
    slices = [[den ** (n - k) * c.coeff(j) for k, c in enumerate(local.coeffs)] for j in range(3)]
    assert all(c.denominator == 1 for p in slices for c in p)
    return [[int(c) for c in p] for p in slices]


def residual_of(local, den):
    """The residual check of `_lifted_roots` for local = poly(t0 + s, u): the
    jet of poly at u = n / (e den)."""
    return lambda n, e: [local.eval_u(UniPoly.of(*n) * Fraction(1, e * den)).coeff(k)
                         for k in range(3)]


_quadratic = st.tuples(*[st.fractions(min_value=-20, max_value=20, max_denominator=6)] * 3)


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(_quadratic, min_size=1, max_size=4), t0=st.integers(-3, 3))
def test_lifted_roots_are_exactly_the_roots_of_degree_at_most_two(roots, t0):
    # P = prod (u - r_i) with distinct r_i(t0): each r_i is its own lift
    rs = [UniPoly.of(*r) for r in roots]
    assume(len({r(t0) for r in rs}) == len(rs))
    poly = BiPoly([UNIPOLY_ONE])
    for r in rs:
        poly = poly * BiPoly([-r, UNIPOLY_ONE])
    local = local_at(poly, t0)
    den = math.lcm(*(c.denominator for r in rs for c in shifted(r, t0).coeffs))
    got = _lifted_roots(scaled_slices(local, den), t0, den, residual_of(local, den))
    assert got == sorted(rs, key=lambda r: r(t0))


def test_lifted_roots_of_a_square_root_and_the_exact_check(monkeypatch):
    # u^2 = t is u^2 = 1 + s at t0 = 1 (s = t - 1): the roots -1, 1 lift to
    # -+(1 + s/2 - s^2/8), i.e. -+(-t^2/8 + 3t/4 + 3/8)
    lift = UniPoly.of(Fraction(3, 8), Fraction(3, 4), Fraction(-1, 8))
    local = BiPoly([-T - 1, UNIPOLY_ZERO, UNIPOLY_ONE])
    assert _lifted_roots(scaled_slices(local, 1), 1, 1, residual_of(local, 1)) == [-lift, lift]
    # 1 is no root of u^2 - 2: its "lift" fails the exact check, which raises
    # (it is not an assert, so this also holds under python -O)
    monkeypatch.setattr(surface, "rational_roots", lambda p: [Fraction(1)])
    local = BiPoly([UniPoly.const(-2), UNIPOLY_ZERO, UNIPOLY_ONE])
    with pytest.raises(InternalInconsistencyError):
        _lifted_roots(scaled_slices(local, 1), 0, 1, residual_of(local, 1))


@pytest.mark.parametrize("local, lifts", [
    (BiPoly([-T - 1, UNIPOLY_ONE]), 1),  # u = 1 + s
    (BiPoly([-T - 1, UNIPOLY_ZERO, UNIPOLY_ONE]), 2),  # u^2 = 1 + s
])
def test_lifted_roots_build_one_residual_per_lift(local, lifts):
    calls = []
    check = residual_of(local, 1)
    residual = lambda n, e: calls.append(n) or check(n, e)  # noqa: E731
    assert len(_lifted_roots(scaled_slices(local, 1), 1, 1, residual)) == lifts
    assert len(calls) == lifts


def test_a_lift_off_the_cubic_is_refused(e51, monkeypatch):
    """Each lift is checked on the cubic's own expression, not on the slices
    it was read from: slices with a wrong s-coefficient give a lift that
    fails that check (only the Y^0 entry of p_1 is changed, so the roots of
    p_0 are those of the fiber), and so does a cubic that is not the one the
    slices were read from (a curve with a 2-torsion root u = t, whose fiber
    has a rational root to lift)."""
    original = surface._halving_slices

    def off(*jets):
        p0, p1, p2 = original(*jets)
        return p0, [p1[0] + 1] + p1[1:], p2

    point = double(e51, secs(SECTIONS_51)["s_o"])
    monkeypatch.setattr(surface, "_halving_slices", off)
    with pytest.raises(InternalInconsistencyError):
        halve(e51, point)
    original_cubic = surface._cubic_at
    monkeypatch.setattr(surface, "_cubic_at", lambda a, b, c, n, e: original_cubic(
        a, b, (c[0], c[1] + 1, c[2]), n, e))
    with pytest.raises(InternalInconsistencyError):
        two_torsion_free(_curve("u^3 + (1-t)*u^2 + u - t^2 - t"))


def halving_quartic(curve, x_p):
    """Oracle: the halving quartic H = f'(X)^2 - 4 (c1 + 2X + x_P) f(X) over Q[t]."""
    f = curve.cubic
    fp = f.deriv_u()
    return fp * fp + BiPoly([-4 * (curve.c1 + x_p), -8]) * f


# coordinate changes t -> sub, u -> u + a(t), which keep the prepared form;
# the last keeps the singular fiber at t = 0, so that the jets are read at a
# fiber t0 != 0 and a half's x, -a(t), is quadratic
IMAGE_MAPS = [("t", "0"), ("2*t - 2", "2*t^2 - t + 1/2"), ("3*t - 5", "t^2 - 3*t + 1/2"),
              ("-t/4 + 7", "-5*t"), ("2*t", "t^2/3 - 3*t + 1/2")]


def _image_of_conic_lift(which, name, sub, a):
    """The curve of example `which` and the lift of its conic `name` (the
    section s1 or s2) under t -> sub, u -> u + a(t)."""
    ex = EXAMPLES[which]
    move = lambda text: text.replace("t", "T").replace("T", f"({sub})")  # noqa: E731
    rhs = ex["quartic"].replace("t", "T").replace("u", f"(u + {a})").replace("T", f"({sub})")
    x, y = ex[name][1:-1].split(", ")
    point = SectionPoint.of(parse_unipoly(f"{move(x)} - ({a})"), parse_unipoly(move(y)))
    return WeierstrassCurve.from_cubic(parse_curve_rhs(rhs)), point


def _halving_cases():
    """(curve, point) with y_P != 0 to halve: sections of 5.1/5.2, and the
    conic lifts of their images."""
    cases = []
    for curve_of, table in ((curve_51, SECTIONS_51), (curve_52, SECTIONS_52)):
        curve, pts = curve_of(), secs(table)
        for a, b in itertools.product(range(-1, 2), repeat=2):
            p = add(curve, multiple(curve, a, pts["s_t1"]), multiple(curve, b, pts["s_t2"]))
            for point in (p, add(curve, p, pts["s_o"]), double(curve, p)):
                if _halvable_input(point) and not point.y.is_zero:
                    cases.append((curve, point))
    for which, name, (sub, a) in itertools.product(("5.1", "5.2"), ("s1", "s2"), IMAGE_MAPS):
        cases.append(_image_of_conic_lift(which, name, sub, a))
    return cases


def test_halving_slices_match_the_global_quartic(monkeypatch):
    """`halve` reads H only mod (t - t0)^3; its three slices equal those of
    the global H shifted to t0 and scaled to Y = D X, on sections of 5.1/5.2
    and on conic lifts of their images."""
    seen = []
    original = surface._lifted_roots
    monkeypatch.setattr(surface, "_lifted_roots",
                        lambda slices, t0, den, residual: seen.append((slices, t0, den)) or
                        original(slices, t0, den, residual))
    cases = _halving_cases()
    halved = 0
    for curve, point in cases:
        assert on_curve(curve, point)
        seen.clear()
        half = halve(curve, point)
        halved += half is not None
        (slices, t0, den), = seen
        local = local_at(halving_quartic(curve, point.x.num), t0)
        assert [list(p) for p in slices] == scaled_slices(local, den)
    assert len(cases) > 30 and 0 < halved < len(cases)


@contextlib.contextmanager
def recorded_lifts():
    """Record (t0, D, lifts) of each `_lifted_roots` call while open."""
    seen = []
    original = surface._lifted_roots

    def recording(slices, t0, den, residual):
        lifts = original(slices, t0, den, residual)
        seen.append((t0, den, lifts))
        return lifts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_lifted_roots", recording)
        yield seen


def _assert_jet_lifts_match_the_oracle(curve, point, seen):
    """The jet lifts of `two_torsion_free(curve)` and of `halve(curve, point)`
    equal the oracle's lifts; returns the denominators D used."""
    seen.clear()
    two_torsion_free(curve)
    halve(curve, point)
    (t0, d1, cubic_lifts), (t1, d2, halving_lifts) = seen
    assert cubic_lifts == lifted_roots_by_bipoly(local_at(curve.cubic, t0), t0)
    assert halving_lifts == lifted_roots_by_bipoly(
        local_at(halving_quartic(curve, point.x.num), t1), t1)
    return d1, d2


def test_jet_lifts_match_the_bipoly_lifts_on_conic_lifts():
    """On the conic lifts of the images of 5.1/5.2, and on the sections of
    5.1/5.2 `_halving_cases` adds to them (among them doubles, which halve)."""
    dens = set()
    with recorded_lifts() as seen:
        for curve, point in _halving_cases():
            dens.update(_assert_jet_lifts_match_the_oracle(curve, point, seen))
    assert dens - {1}  # a common denominator D > 1 is exercised


def _planted(degree):
    return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                    min_size=1, max_size=degree + 1).map(UniPoly)


@settings(max_examples=40, deadline=None)
@given(c1=_planted(2), c2=_planted(3), x=_planted(1), y=_planted(2))
@example(c1=UniPoly.of(-2, -1, 1), c2=UniPoly.of(0, 0, -2, -1), x=UNIPOLY_ZERO,
         y=UniPoly.of(0, 0, 1))  # PLANTED_HALF, whose 2P halves
def test_jet_lifts_match_the_bipoly_lifts_on_planted_sections(c1, c2, x, y):
    """A planted section, as in `test_planted_fiber_types_match_the_per_place_context`:
    with c2, x and y divisible by t and c3 = y^2 - x^3 - c1 x^2 - c2 x,
    P = (x, y) lies on the curve, whose fiber at t = 0 is singular, so the
    jets are read at a fiber t0 >= 1.  The jet lifts of `two_torsion_free`
    and of `halve` on P and on 2P, where 2P is an input `halve` takes, equal
    the oracle's."""
    c2, x, y = T * c2, T * x, T * y
    assume(not y.is_zero)
    c3 = y * y - x ** 3 - c1 * x * x - c2 * x
    assume(not cubic_invariants(c1, c2, c3)[0].is_zero)
    curve = WeierstrassCurve(c1, c2, c3)
    point = SectionPoint.of(x, y)
    assert on_curve(curve, point)
    with recorded_lifts() as seen:
        _assert_jet_lifts_match_the_oracle(curve, point, seen)
        twice = double(curve, point)
        if _halvable_input(twice) and not twice.y.is_zero:
            _assert_jet_lifts_match_the_oracle(curve, twice, seen)
            half = halve(curve, twice)
            assert half is not None and double(curve, half) == twice


# A planted section R = (0, t^3) (c3 = t^6), whose double P has polynomial
# coordinates with y_P vanishing at the smooth fiber t = 2, moved by
# t -> t + 2 so that this fiber is the curve's first smooth one, t0 = 0.
PLANTED_HALF = "u^3 + (t^2 - t - 2)*u^2 - (t^4 + 2*t^3)*u + t^6"


def test_halve_moves_past_a_first_fiber_where_y_vanishes(monkeypatch):
    curve = _curve(PLANTED_HALF.replace("t", "(t + 2)"))
    half = SectionPoint.of(UNIPOLY_ZERO, (T + 2) ** 3)
    point = double(curve, half)
    assert curve.good_fiber == 0 and point.y(0) == 0 and _halvable_input(point)
    built = []
    original = surface._fiber_jets
    monkeypatch.setattr(surface, "_fiber_jets",
                        lambda curve, t0: built.append(t0) or original(curve, t0))
    got = halve(curve, point)
    assert got == half and double(curve, got) == point
    assert built == [1]  # the next smooth fiber, where y_P does not vanish
    assert "fiber_jets" not in vars(curve)  # the first fiber's jets were not built
