"""Exact polynomial arithmetic: gcd, squarefree parts, square roots,
rational roots, places and their coprime refinement."""

import itertools
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mwq.poly import (
    _gcd_parts,
    _primes,
    BiPoly,
    InternalInconsistencyError,
    RatFn,
    T,
    UNIPOLY_ONE,
    UNIPOLY_ZERO,
    UniPoly,
    cubic_invariants,
    is_perfect_square,
    ord_at,
    poly_gcd,
    rational_roots,
    split_by,
    squarefree_decompose,
    squarefree_places,
)


def assert_canonical(p: UniPoly):
    """The content of p is a reduced pair of ints _n/_d with _d > 0, and its
    primitive part _p a tuple of ints with gcd 1 and a positive leading
    entry; the zero polynomial is 0/1 times ()."""
    assert type(p._n) is int and type(p._d) is int
    assert p._d > 0 and math.gcd(p._n, p._d) == 1
    assert type(p._p) is tuple and all(type(a) is int for a in p._p)
    if p._p:
        assert p._n != 0 and p._p[-1] > 0 and math.gcd(*p._p) == 1
    else:
        assert (p._n, p._d) == (0, 1)


def rand_poly(rng, deg, lo=-9, hi=9):
    while True:
        p = UniPoly([Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg + 1)])
        if p.degree == deg:
            return p


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_common_factor_by_construction():
    t2m1 = UniPoly.of(-1, 0, 1)
    tm1 = UniPoly.of(-1, 1)
    assert poly_gcd(t2m1, tm1) == tm1


def test_gcd_with_zero_is_monic():
    f = UniPoly.of(2, 0, 4)
    assert poly_gcd(f, UNIPOLY_ZERO) == f.monic()
    assert poly_gcd(UNIPOLY_ZERO, f) == f.monic()


def test_gcd_of_products_recovers_common_part():
    rng = random.Random(101)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(1, 3))
        q = rand_poly(rng, rng.randint(1, 3))
        r = rand_poly(rng, rng.randint(1, 3))
        if poly_gcd(q, r).degree > 0:
            continue
        assert poly_gcd(p * q, p * r) == p.monic()


def test_gcd_divides_both_exactly_and_is_monic():
    rng = random.Random(202)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        assert g.coeff(g.degree) == 1
        assert (a % g).is_zero and (b % g).is_zero


def prs_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Oracle: the monic gcd by the primitive remainder sequence.  Each
    remainder is held as content times primitive part, so contents never
    enter the next division."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def gcd_by_sympy(a: UniPoly, b: UniPoly) -> UniPoly:
    """Oracle: sympy's gcd over QQ, made monic."""
    import sympy

    x = sympy.Symbol("x")
    sa, sb = (sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
                         or [0], x, domain="QQ") for p in (a, b))
    g = sa.gcd(sb)
    return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]).monic()


@st.composite
def gcd_inputs(draw):
    """A pair (a, b) with rational contents: products with a shared factor,
    coprime pairs, or pairs with a constant or zero side, on coefficients of
    1 to 45 bits."""
    bits = draw(st.sampled_from([1, 2, 4, 8, 20, 45]))
    coeff = st.integers(-(2 ** bits), 2 ** bits)

    def poly(lo, hi):
        return UniPoly(draw(st.lists(coeff, min_size=lo, max_size=hi)))

    a, b = poly(1, 6), poly(1, 6)
    kind = draw(st.sampled_from(["shared", "coprime", "constant"]))
    if kind == "shared":
        g = poly(2, 5)
        a, b = a * g, b * g
    elif kind == "coprime":
        assume(prs_gcd(a, b).degree == 0)
    else:
        b = poly(0, 1)
    scale = st.fractions(min_value=-1000, max_value=1000, max_denominator=50).filter(bool)
    a, b = a * draw(scale), b * draw(scale)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(gcd_inputs())
def test_heuristic_gcd_matches_remainder_sequence_and_sympy(ab):
    a, b = ab
    g, qa, qb = _gcd_parts(a, b)
    assert poly_gcd(a, b) == g == prs_gcd(a, b) == gcd_by_sympy(a, b)
    assert g * qa == a and g * qb == b
    for p in (g, qa, qb):
        assert_canonical(p)


def test_rejected_candidate_takes_a_larger_xi(monkeypatch):
    """At xi = 31, gcd(a(31), b(31)) = 17 reads as t - 14, which divides
    neither; the next xi gives 1."""
    import mwq.poly

    digits = mwq.poly._xi_digits
    calls = []
    monkeypatch.setattr(mwq.poly, "_xi_digits", lambda *args: calls.append(args) or digits(*args))
    a, b = UniPoly.of(1, 0, 1, 1), UniPoly.of(-1, -1, -1, 1)
    assert _gcd_parts(a, b) == (UNIPOLY_ONE, a, b)
    assert calls[0] == (17, 31) and digits(17, 31) == [-14, 1]
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------


def test_squarefree_visible_multiplicities():
    p = UniPoly.of(0, 0, 1) * UniPoly.of(-1, 1)  # t^2 (t-1)
    assert squarefree_decompose(p) == [(UniPoly.of(-1, 1), 1), (T, 2)]


def test_squarefree_input_is_its_own_decomposition():
    p = UniPoly.of(3, 1, 2)  # squarefree quadratic
    assert squarefree_decompose(p) == [(p.monic(), 1)]


def test_squarefree_round_trip():
    rng = random.Random(303)
    for _ in range(30):
        factors = []
        prod = UniPoly.const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        for mult in range(1, rng.randint(2, 4)):
            f = rand_poly(rng, rng.randint(1, 2)).monic()
            factors.append((f, mult))
            prod = prod * f ** mult
        got = squarefree_decompose(prod)
        rebuilt = UniPoly.const(prod.coeff(prod.degree))
        for f, m in got:
            rebuilt = rebuilt * f ** m
        assert rebuilt == prod
        for f, _ in got:
            assert poly_gcd(f, f.derivative()).degree == 0


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decompose(UNIPOLY_ZERO)


_factor_powers = st.lists(
    st.tuples(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=2, max_size=4), st.integers(1, 4)),
    min_size=1, max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(factors=_factor_powers, lead=st.fractions(-50, 50, max_denominator=9).filter(bool))
@example(factors=[([-1, 1], 3), ([1, 0, 1], 1)], lead=Fraction(-2, 3))
def test_yun_blocks_multiply_back(factors, lead):
    """The blocks, each to its multiplicity, multiply back to p / lc(p); they
    are monic, squarefree and pairwise coprime (by the remainder sequence),
    with increasing multiplicities."""
    p = UniPoly.const(lead)
    for cs, mult in factors:
        p = p * UniPoly(cs) ** mult
    assume(not p.is_zero)
    blocks = squarefree_decompose(p)
    rebuilt = UNIPOLY_ONE
    for f, mult in blocks:
        rebuilt = rebuilt * f ** mult
        assert f.degree > 0 and f == f.monic() and prs_gcd(f, f.derivative()) == UNIPOLY_ONE
    assert rebuilt == p.monic()
    mults = [mult for _, mult in blocks]
    assert mults == sorted(set(mults))
    for (f, _), (h, _) in itertools.combinations(blocks, 2):
        assert prs_gcd(f, h) == UNIPOLY_ONE


def test_yun_step_with_a_zero_derivative_difference(monkeypatch):
    """On (t - 1)^3 (t^2 + 1), the last step's d = c - b' is 0, and
    gcd(b, 0) = b ends the loop with b's block at multiplicity 3."""
    import mwq.poly

    parts = mwq.poly._gcd_parts
    calls = []
    monkeypatch.setattr(mwq.poly, "_gcd_parts", lambda a, b: calls.append((a, b)) or parts(a, b))
    p = UniPoly.of(-1, 1) ** 3 * UniPoly.of(1, 0, 1)
    assert squarefree_decompose(p) == [(UniPoly.of(1, 0, 1), 1), (UniPoly.of(-1, 1), 3)]
    assert calls[-1] == (UniPoly.of(-1, 1), UNIPOLY_ZERO)


# ---------------------------------------------------------------------------
# polynomial square roots
# ---------------------------------------------------------------------------


def test_square_root_simple():
    p = UniPoly.of(1, 0, 1)  # t^2 + 1
    assert is_perfect_square(p * p) == p


def test_square_root_odd_degree_is_none():
    assert is_perfect_square(T) is None


def test_square_root_nonsquare_leading():
    p = UniPoly.of(0, 0, 2)  # 2 t^2
    assert is_perfect_square(p) is None


def test_square_root_of_zero():
    assert is_perfect_square(UNIPOLY_ZERO) == UNIPOLY_ZERO


def test_square_root_500_random():
    rng = random.Random(404)
    for _ in range(500):
        h = rand_poly(rng, rng.randint(0, 8))
        got = is_perfect_square(h * h)
        assert got is not None
        assert got == h or got == -h
        assert got.is_zero or got.coeff(got.degree) > 0


def test_square_root_example_restriction():
    # restriction of the first worked quartic to its first conic: the square
    # root has degree 3 with three distinct roots, and the remaining contact
    # sits at infinity
    c1 = UniPoly.of(271350, -98)
    c2 = T * UniPoly.of(-5825, 1) * UniPoly.of(-2025, 1)
    c3 = 36 * (T * UniPoly.of(-2025, 1)) ** 2
    f = BiPoly([c3, c2, c1, UNIPOLY_ONE])
    q1 = UniPoly.of(Fraction(-5143775, 144), Fraction(1231, 72), Fraction(1, 144))
    g = f.eval_u(q1)
    h = is_perfect_square(g)
    assert h is not None and h.degree == 3
    assert poly_gcd(h, h.derivative()).degree == 0  # three distinct roots
    assert g.degree == 6  # multiplicity 8 - 6 = 2 at infinity


# ---------------------------------------------------------------------------
# rational roots: the p-adic finder takes squarefree input; with Yun's blocks
# it gives every root with its multiplicity
# ---------------------------------------------------------------------------


def squarefree_roots(p: UniPoly) -> list[Fraction]:
    return sorted(rational_roots(p))


def roots_by_blocks(p: UniPoly) -> list[Fraction]:
    """The roots of each squarefree block of p, repeated by its multiplicity."""
    return sorted(r for f, mult in squarefree_decompose(p)
                  for r in rational_roots(f) for _ in range(mult))


def test_rational_roots_of_zero_polynomial_raises():
    with pytest.raises(ValueError, match="rational roots of the zero polynomial"):
        rational_roots(UNIPOLY_ZERO)


def test_rational_roots_basic():
    p = UniPoly.of(-2, 1) * UniPoly.of(Fraction(1, 3), 1)
    assert squarefree_roots(p) == [Fraction(-1, 3), Fraction(2)]


def test_rational_roots_none():
    assert squarefree_roots(UniPoly.of(1, 0, 1)) == []


def test_rational_roots_multiplicity():
    p = UniPoly.of(-2, 1) ** 3 * UniPoly.of(5, 1)
    assert roots_by_blocks(p) == [Fraction(-5), Fraction(2), Fraction(2), Fraction(2)]


@pytest.mark.parametrize("p", [
    UniPoly.of(-1, 1) ** 2 * UniPoly.of(-2, 1),  # (u - 1)^2 (u - 2)
    T ** 2 * UniPoly.of(1, 0, 1),  # a zero root twice
    UniPoly.of(-7, 3) ** 2 * UniPoly.of(-2, 0, 1),  # a double root 7/3 and sqrt(2)
])
def test_squarefree_root_finder_refuses_a_repeated_root(p):
    # a double root is double modulo every prime, so the bounded prime search
    # runs out and raises instead of looping
    with pytest.raises(InternalInconsistencyError):
        rational_roots(p)


def test_squarefree_root_finder_past_a_repeated_irrational_pair():
    # (3t^2 - 7)^2 has no root modulo half the primes, so the search stops
    # at one of them, and the rational roots are still found exactly
    p = UniPoly.of(-7, 0, 3) ** 2 * UniPoly.of(-1, 1) * UniPoly.of(5, 2)
    assert squarefree_roots(p) == [Fraction(-5, 2), Fraction(1)]


def test_rational_roots_of_example_discriminant():
    c1 = UniPoly.of(271350, -98)
    c2 = T * UniPoly.of(-5825, 1) * UniPoly.of(-2025, 1)
    c3 = 36 * (T * UniPoly.of(-2025, 1)) ** 2
    disc = (
        18 * c1 * c2 * c3 - 4 * c1 ** 3 * c3 + c1 ** 2 * c2 ** 2
        - 4 * c2 ** 3 - 27 * c3 ** 2
    )
    roots = roots_by_blocks(disc)
    assert Fraction(0) in roots and Fraction(2025) in roots


def test_squarefree_places_round_trip():
    rng = random.Random(909)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(1, 5))
        rebuilt = UniPoly.const(p.coeff(p.degree))
        for f, m in squarefree_places(p):
            assert f.coeff(f.degree) == 1
            rebuilt = rebuilt * f ** m
        assert rebuilt == p


def test_ord_at():
    p = T ** 3 * UniPoly.of(-1, 1) ** 2 * UniPoly.of(7, 1)
    assert ord_at(p, T) == 3
    assert ord_at(p, UniPoly.of(-1, 1)) == 2
    assert ord_at(p, UniPoly.of(1, 1)) == 0


def test_ratfn_reduction_and_arithmetic():
    r = RatFn(T * T - 1, (T - 1) * 2)
    assert r.num == (T + 1) * Fraction(1, 2) and r.den == UNIPOLY_ONE
    s = RatFn(UNIPOLY_ONE, T)
    assert (s + s) == RatFn(UniPoly.const(2), T)
    assert (s * T) == RatFn(UNIPOLY_ONE)
    assert (s - s).is_zero
    with pytest.raises(ZeroDivisionError):
        RatFn(UNIPOLY_ONE, UNIPOLY_ZERO)
    with pytest.raises(ZeroDivisionError):
        s(Fraction(0))


# ---------------------------------------------------------------------------
# rational roots and irreducible factors against sympy and the rational root
# theorem (independent oracles)
# ---------------------------------------------------------------------------


def rational_roots_by_divisors(p: UniPoly) -> list[Fraction]:
    """Oracle: try every +-a/b with a | constant and b | leading coefficient of
    the primitive integer model, dividing out each root found.  Factors both
    coefficients, so only for small-coefficient inputs."""
    import sympy

    k = next(i for i, c in enumerate(p.coeffs) if c)
    roots = [Fraction(0)] * k
    p = UniPoly(p.coeffs[k:])
    if p.degree <= 0:
        return roots
    den = math.lcm(*[c.denominator for c in p.coeffs])
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints)
    const, lead = ints[0] // g, ints[-1] // g
    cands = {
        Fraction(s * a, b)
        for a in sympy.divisors(const)
        for b in sympy.divisors(lead)
        for s in (1, -1)
    }
    work = p
    for c in sorted(cands):
        while work.degree > 0 and work(c) == 0:
            roots.append(c)
            work = work.exact_div(UniPoly.of(-c, 1))
    return sorted(roots)


def factors_by_sympy(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Oracle: sympy's factor_list over QQ, made monic and ordered by degree,
    then coefficients."""
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    out = [
        (UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]).monic(), m)
        for f, m in expr.factor_list()[1]
    ]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def places_by_sympy(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Oracle: `factors_by_sympy` grouped into places, ordered as they are.
    Per multiplicity, each linear factor is a place alone, and the other
    factors, multiplied together, are one more place."""
    places, rest = [], {}
    for f, m in factors_by_sympy(p):
        if f.degree == 1:
            places.append((f, m))
        else:
            rest[m] = rest.get(m, UNIPOLY_ONE) * f
    places += [(f, m) for m, f in rest.items()]
    return sorted(places, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def rational_roots_by_sympy(p: UniPoly) -> list[Fraction]:
    return sorted(-f.coeff(0) for f, m in factors_by_sympy(p) if f.degree == 1 for _ in range(m))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


PRIMORIAL_600 = math.prod(q for q in range(600) if _is_prime(q))
MOD_3_TO_13 = 3 * 5 * 7 * 11 * 13
N51 = 10000000000000000000000013 * 30000000000000000000000067  # 51 digits


def _special_factor(kind: str, k: int) -> UniPoly:
    """One factor that makes the p-adic root search work harder."""
    if kind == "primorial lead":
        # every prime below 600 divides the leading coefficient, so the
        # prime search must go past all of them
        return UniPoly.of(k, PRIMORIAL_600) * UniPoly.of(1, 0, PRIMORIAL_600)
    if kind == "colliding roots":
        # three distinct roots, equal mod 3, 5, 7, 11 and 13: the reduction
        # has a multiple root at each of those primes
        r = Fraction(k, 2)
        return (UniPoly.of(-r, 1) * UniPoly.of(-r - k * MOD_3_TO_13, 1)
                * UniPoly.of(-r + 2 * MOD_3_TO_13, 1))
    if kind == "51 digits":
        # a rational root and an irrational pair with 51-digit coefficients
        return UniPoly.of(-(N51 + 2 * k), N51) * UniPoly.of(-N51, 0, k)
    return UNIPOLY_ONE


_linear_factors = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(1, 4), st.integers(1, 3)), max_size=3
)
_higher_factors = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=4).filter(lambda cs: cs[-1] != 0),
    max_size=2,
)


@settings(max_examples=80, deadline=None)
@given(
    lin=_linear_factors,
    higher=_higher_factors,
    t_power=st.integers(0, 3),
    scale=st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    special=st.sampled_from(["none", "primorial lead", "colliding roots", "51 digits"]),
    k=st.integers(1, 3),
)
def test_rational_roots_match_divisor_oracle(lin, higher, t_power, scale, special, k):
    """Against sympy's linear factors always, and against the rational root
    theorem where the coefficients are small enough to factor."""
    p = T ** t_power * scale * _special_factor(special, k)
    for num, den, mult in lin:
        p = p * UniPoly.of(-num, den) ** mult  # root num/den, multiplicity mult
    for cs in higher:
        p = p * UniPoly(cs)
    assert_canonical(p)
    got = roots_by_blocks(p)
    assert got == rational_roots_by_sympy(p)
    if special in ("none", "colliding roots"):
        assert got == rational_roots_by_divisors(p)
    for num, den, mult in lin:
        assert got.count(Fraction(num, den)) >= mult
    simple = p.exact_div(poly_gcd(p, p.derivative()))  # the squarefree part
    assert squarefree_roots(simple) == sorted(set(got))


def horner(p, x):
    """p(x) for a polynomial x, by Horner's rule."""
    acc = UNIPOLY_ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# The rootless degree-5 block, of fiber type I1, of the discriminant of each
# worked example, and its images under the coordinate changes t -> lam*t + mu
# of the conics benchmark strata (perfbench/workloads.py) and under t -> N*t
# for a 4-digit and for the 51-digit semiprime.
I1_BLOCKS = {
    "5.1": UniPoly.of(94685096001234375, -231999587386875, 191118586950, -59451062, 2723, 1),
    "5.2": UniPoly.of(-1632960, -8965728, -438993, 28990, 815, 4),
}
I1_IMAGES = (
    ("5.2", -1, 1), ("5.2", 2, -1), ("5.2", -2, 3), ("5.2", 3, 2), ("5.2", Fraction(1, 2), -2),
    ("5.2", -3, -1), ("5.1", -1, -1), ("5.1", 2, -2), ("5.1", 1, 1),
    ("5.2", 17 * 59, 0), ("5.2", N51, 0),
)

# Rootless pieces, each kept whole as one place whether it is irreducible or
# not: products of several irreducible factors, irreducibles that split
# modulo every prime, large leading coefficients and 51-digit coefficients.
ROOTLESS = {
    "none": UNIPOLY_ONE,
    "(t^2+1)(t^2+2)": UniPoly.of(1, 0, 1) * UniPoly.of(2, 0, 1),
    "t^4-10t^2+1": UniPoly.of(1, 0, -10, 0, 1),
    "t^8-40t^6+352t^4-960t^2+576": UniPoly.of(576, 0, -960, 0, 352, 0, -40, 0, 1),
    "(t^4+1)(t^4-t^2+1)": UniPoly.of(1, 0, 0, 0, 1) * UniPoly.of(1, 0, -1, 0, 1),
    "(t^4+1)(t^4-10t^2+1)(t^4-t^2+1)":
        UniPoly.of(1, 0, 0, 0, 1) * UniPoly.of(1, 0, -10, 0, 1) * UniPoly.of(1, 0, -1, 0, 1),
    "(1155t^4+t+1)(2310t^4-3t^3+5)": UniPoly.of(1, 1, 0, 0, 1155) * UniPoly.of(5, 0, 0, -3, 2310),
    "51-digit quintic*(t^2+t+1)":
        UniPoly.of(-(N51 + 2), 3, -N51, 0, 0, 1) * UniPoly.of(1, 1, 1),
    "(t^2-t-4)(t^2-t+3)": UniPoly.of(-4, -1, 1) * UniPoly.of(3, -1, 1),
    **{f"I1 {base} t->{lam}*t+{mu}": horner(I1_BLOCKS[base], UniPoly.of(mu, lam))
       for base, lam, mu in I1_IMAGES},
}


def _each_rootless_alone(test):
    """Run `test` on every entry of ROOTLESS by itself, besides the draws."""
    for name in ROOTLESS:
        test = example(lin=[], higher=[], rootless=name, rootless_mult=1)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    lin=_linear_factors,
    higher=st.lists(
        st.tuples(st.lists(st.integers(-6, 6), min_size=3, max_size=4).filter(lambda cs: cs[-1]),
                  st.integers(1, 2)),
        max_size=2,
    ),
    rootless=st.sampled_from(sorted(ROOTLESS)),
    rootless_mult=st.integers(1, 2),
)
@_each_rootless_alone
def test_squarefree_places_match_sympy(lin, higher, rootless, rootless_mult):
    """Linear factors times quadratics and cubics, each possibly repeated,
    and a rootless piece that joins the place of its multiplicity whole."""
    p = UNIPOLY_ONE
    for num, den, mult in lin:
        p = p * UniPoly.of(-num, den) ** mult
    for cs, mult in higher:
        p = p * UniPoly(cs) ** mult
    p = p * ROOTLESS[rootless] ** rootless_mult
    got = squarefree_places(p)
    assert got == places_by_sympy(p)
    for f in [p] + [f for f, _ in got]:
        assert_canonical(f)


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(
        st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda cs: cs[-1]),
        min_size=1, max_size=5,
    ),
    powers=st.lists(st.integers(0, 3), min_size=15, max_size=15),
    extra=st.lists(st.integers(-6, 6), max_size=4),
)
@example(factors=[[-2, 0, 1], [-3, 0, 1], [-4, 0, 3]], powers=[0, 1, 1] + [0] * 12, extra=[1])
def test_split_by_matches_sympy(factors, powers, extra):
    """The block is the product of the distinct irreducible factors (sympy) of
    the drawn polynomials, and a a product of powers of those factors times
    one more drawn polynomial.  The pieces multiply back to the block, and
    the order returned with each one is the order of a at every irreducible
    factor of the piece, read off sympy's factorization of a, and ord_at."""
    p = UNIPOLY_ONE
    for cs in factors:
        p = p * UniPoly(cs)
    irreducibles = [f for f, _ in factors_by_sympy(p)]
    block, a = UNIPOLY_ONE, UniPoly(extra) if any(extra) else UNIPOLY_ONE
    for f, k in zip(irreducibles, powers):
        block, a = block * f, a * f ** k
    order = dict(factors_by_sympy(a))
    pieces = split_by(block, a)
    product = UNIPOLY_ONE
    for piece, k in pieces:
        product = product * piece
        assert {order.get(f, 0) for f, _ in factors_by_sympy(piece)} == {k} == {ord_at(a, piece)}
    assert product == block
    assert [k for _, k in pieces] == sorted({order.get(f, 0) for f in irreducibles})


def test_split_by_returns_a_linear_block_as_it_is(monkeypatch):
    import mwq.poly

    monkeypatch.setattr(mwq.poly, "_gcd_parts", lambda *a: pytest.fail("a gcd was taken"))
    linear = UniPoly.of(-3, 1)
    for a, k in ((UNIPOLY_ZERO, 10 ** 9), (UNIPOLY_ONE, 0), (linear ** 2, 2),
                 (UniPoly.of(1, 0, 1), 0)):
        (piece, order), = split_by(linear, a)
        assert piece is linear and order == k


@settings(max_examples=80, deadline=None)
@given(factors=_factor_powers, extra=st.lists(st.integers(-2 ** 20, 2 ** 20), max_size=4))
@example(factors=[([-1, 1], 2), ([2, 1], 1), ([1, 0, 1], 3)], extra=[5])
@example(factors=[([-1, 1], 1), ([0, 1], 1)], extra=[])
def test_split_by_pieces_multiply_back(factors, extra):
    """The block is the monic squarefree part of the drawn product, and a the
    product itself times one more drawn polynomial.  The
    pieces multiply back to the block, and on each piece P with k = ord(a, P)
    the order is k at every root: P^k divides a and P is coprime to a / P^k
    (by the remainder sequence); k is the order returned with P, and
    increases from piece to piece."""
    a = UniPoly(extra) if any(extra) else UNIPOLY_ONE
    for cs, mult in factors:
        a = a * UniPoly(cs) ** mult
    assume(not a.is_zero and a.degree > 0)
    block = a.exact_div(prs_gcd(a, a.derivative())).monic()
    pieces = split_by(block, a)
    product = UNIPOLY_ONE
    for piece, k in pieces:
        product = product * piece
        assert prs_gcd(piece, a.exact_div(piece ** k)) == UNIPOLY_ONE
    assert product == block
    orders = [k for _, k in pieces]
    assert orders == sorted(set(orders))


def test_primes_match_sympy():
    import sympy

    walk = list(islice(_primes(), 300))  # past the kept primes below 1000
    assert walk == list(sympy.primerange(2, sympy.prime(300) + 1))
    assert list(islice(_primes(), 300)) == walk  # a second walk finds the same


@pytest.mark.parametrize("quartic", [
    "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2",
    "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4",
])
def test_specialization_points_skip_exactly_the_bad_fibers(quartic):
    # the fiber `halve` and `two_torsion_free` specialize at: the least integer
    # t0 >= 0 that is neither a root of the discriminant nor of `avoid`
    from mwq.parsing import parse_curve_rhs
    from mwq.surface import WeierstrassCurve, _good_fiber

    f = parse_curve_rhs(quartic)
    curve = WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))
    bad = set(rational_roots_by_divisors(curve.discriminant))
    good = [Fraction(k) for k in range(len(bad) + 3) if Fraction(k) not in bad]
    avoids = [
        UNIPOLY_ONE,
        T ** 2,  # vanishes only where the discriminant does
        (T - good[0]) * (T - good[1]) * (2 * T + 1),  # the first two good fibers
        T - good[2],
    ]
    for avoid in avoids:
        skip = bad | set(rational_roots_by_divisors(avoid))
        expected = next(Fraction(k) for k in range(len(skip) + 1) if Fraction(k) not in skip)
        assert _good_fiber(curve, avoid) == expected


# ---------------------------------------------------------------------------
# UniPoly against plain lists of Fractions (independent oracle)
# ---------------------------------------------------------------------------


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return ref_trim(quo), ref_trim(rem)


def ref_eval(a, x):
    return sum((c * x ** i for i, c in enumerate(a)), Fraction(0))


_scalars = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10 ** 30), 10 ** 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(10 ** 25), 10 ** 25), st.integers(1, 10 ** 25)),
)
# up to degree 6, the zero polynomial and constants included; trailing zeros
# and negative leading coefficients occur freely
_coeff_lists = st.lists(st.one_of(st.just(0), _scalars), max_size=7)


@settings(max_examples=150, deadline=None)
@given(a=_coeff_lists, b=_coeff_lists, s=_scalars, x=_scalars, n=st.integers(0, 3))
@example(a=[], b=[1], s=2, x=Fraction(-7, 4), n=1)  # the zero polynomial
def test_unipoly_matches_fraction_lists(a, b, s, x, n):
    ra, rb, s, x = ref_trim(a), ref_trim(b), Fraction(s), Fraction(x)
    pa, pb = UniPoly(a), UniPoly(b)

    assert pa.coeffs == tuple(ra)
    assert all(type(c) is Fraction for c in pa.coeffs)
    assert pa.degree == len(ra) - 1
    assert pa.is_zero == (not ra)
    assert [pa.coeff(i) for i in range(-1, len(ra) + 2)] == [Fraction(0)] + ra + [0, 0]
    if ra:
        assert pa.monic().coeffs == tuple(c / ra[-1] for c in ra)
    else:
        assert pa.monic() == pa

    assert (pa + pb).coeffs == tuple(ref_add(ra, rb))
    assert (pa - pb).coeffs == tuple(ref_add(ra, [-c for c in rb]))
    assert (-pa).coeffs == tuple(-c for c in ra)
    assert (pa + s).coeffs == (s + pa).coeffs == tuple(ref_add(ra, [s]))
    assert (s - pa).coeffs == tuple(ref_add([s], [-c for c in ra]))
    assert (pa * pb).coeffs == tuple(ref_mul(ra, rb))
    assert (pa * s).coeffs == (s * pa).coeffs == tuple(ref_trim([c * s for c in ra]))
    power = [Fraction(1)]
    for _ in range(n):
        power = ref_mul(power, ra)
    assert (pa ** n).coeffs == tuple(power)
    assert pa.derivative().coeffs == tuple(ref_trim([i * c for i, c in enumerate(ra)][1:]))
    assert pa(x) == ref_eval(ra, x)
    assert type(pa(x)) is Fraction
    for by in (0, -3, 5, x.numerator):
        shifted, by_power = [], [Fraction(1)]
        for c in ra:
            shifted = ref_add(shifted, [c * y for y in by_power])
            by_power = ref_mul(by_power, [by, Fraction(1)])
        nums, den = pa.jet(by)
        assert den > 0 and [Fraction(n, den) for n in nums] == (shifted + [0] * 3)[:3]

    if rb:
        q, r = divmod(pa, pb)
        rq, rr = ref_divmod(ra, rb)
        assert (q.coeffs, r.coeffs) == (tuple(rq), tuple(rr))
        assert ((pa // pb).coeffs, (pa % pb).coeffs) == (tuple(rq), tuple(rr))
        assert (pa * pb).exact_div(pb) == pa
        if rr:
            with pytest.raises(ValueError):
                pa.exact_div(pb)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(pa, pb)


@settings(max_examples=100, deadline=None)
@given(a=_coeff_lists, k=_scalars.filter(bool))
def test_unipoly_equality_and_hash_ignore_how_it_was_built(a, k):
    k = Fraction(k)
    ra = ref_trim(a)
    built = [
        UniPoly(a),
        UniPoly(list(a) + [0, Fraction(0)]),
        UniPoly([Fraction(c) for c in a]),
        UniPoly([c * k for c in ra]) * (1 / k),
        UniPoly([c * k for c in ra]).exact_div(UniPoly.const(k)),
        UniPoly([c * 2 for c in ra]) - UniPoly(ra),
    ]
    for p in built:
        assert_canonical(p)
        assert p == built[0] and hash(p) == hash(built[0])
        assert p.coeffs == tuple(ra)
    if len(ra) <= 1:
        c = ra[0] if ra else 0
        assert built[0] == c and built[0] == UniPoly.const(c)
        assert hash(built[0]) == hash(UniPoly.const(c))
    assert (built[0] == UniPoly(ra + [1])) is False


@settings(max_examples=150, deadline=None)
@given(a=_coeff_lists, b=_coeff_lists, s=_scalars.filter(bool), x=_scalars, n=st.integers(0, 3))
def test_unipoly_content_is_a_reduced_pair_of_ints(a, b, s, x, n):
    """Every value the arithmetic builds is canonical, on every path where a
    sign must move from a denominator or a leading entry into the content."""
    pa, pb = UniPoly(a), UniPoly(b)
    neg = -abs(Fraction(s))  # a negative scalar
    values = [
        pa, pb, -pa, pa + pb, pa - pb, pa + s, s - pa, pa * pb, pa * s, pa * neg, neg * pa,
        pa ** n, pa.derivative(), pa.monic(), (-pa).monic(), (pa * neg).monic(),
        UniPoly.const(s), UniPoly.const(neg), pa // neg, pa % neg,
        *divmod(pa, UniPoly.const(neg)), (pa * neg).exact_div(UniPoly.const(neg)),
        (pa * s).exact_div(UniPoly.const(-s)),
    ]
    if not pb.is_zero:
        values += [*divmod(pa, pb), *divmod(pa, -pb), *divmod(pa * neg, pb)]
        f = RatFn(pa, pb)
        values += [f.num, f.den]
    for den in (UniPoly.const(neg), UniPoly.const(-1), UniPoly.of(1, neg), UniPoly.of(neg, 0, neg)):
        f = RatFn(pa, den)
        assert f.den.coeffs[-1] == 1
        values += [f.num, f.den]
    values.append(is_perfect_square(pa * pa * Fraction(4, 9)))
    for v in values:
        assert_canonical(v)


@settings(max_examples=150, deadline=None)
@given(cs=st.lists(_coeff_lists, max_size=5), x=_coeff_lists)
@example(cs=[], x=[1])  # the zero BiPoly
@example(cs=[[3], [], [1, 2]], x=[])  # u = 0, and a zero coefficient
def test_eval_u_matches_unipoly_horner(cs, x):
    f, px = BiPoly([UniPoly(c) for c in cs]), UniPoly(x)
    got = f.eval_u(px)
    assert_canonical(got)
    assert got == horner(f, px)


def invariants_by_unipoly(c1, c2, c3):
    """Oracle: the discriminant, c4 and c6 of u^3 + c1 u^2 + c2 u + c3 (c4 and
    c6 up to the constants 16 and -32) in UniPoly arithmetic."""
    return (18 * c1 * c2 * c3 - 4 * c1 ** 3 * c3 + c1 ** 2 * c2 ** 2 - 4 * c2 ** 3 - 27 * c3 ** 2,
            c1 * c1 - 3 * c2, 2 * c1 ** 3 - 9 * c1 * c2 + 27 * c3)


@settings(max_examples=150, deadline=None)
@given(c1=_coeff_lists, c2=_coeff_lists, c3=_coeff_lists)
@example(c1=[], c2=[], c3=[])
def test_integer_discriminant_matches_unipoly_formula(c1, c2, c3):
    c1, c2, c3 = UniPoly(c1), UniPoly(c2), UniPoly(c3)
    got = cubic_invariants(c1, c2, c3)
    for p in got:
        assert_canonical(p)
    assert got == invariants_by_unipoly(c1, c2, c3)


def test_unipoly_errors_and_immutability():
    p = UniPoly.of(1, 2)
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(ZeroDivisionError):
        p % UNIPOLY_ZERO
    with pytest.raises(AttributeError):
        p.coeffs = ()
    with pytest.raises(AttributeError):
        p._p = (1,)
