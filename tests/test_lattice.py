"""Root lattices, duals, short vectors, complements, and the conic-count
operations on Mordell-Weil structures."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwq.lattice import (
    _invert,
    TRIVIAL_LATTICE,
    GramLattice,
    InternalInconsistencyError,
    count_etc,
    count_qretc,
    dual_gram,
    enumerate_by_norm,
    integer_kernel,
    lattice_from_text,
    make_mw_structure,
    orthogonal_complement_basis,
)
from mwq.mwtable import builtin_table


def row(n):
    return builtin_table()[n - 1]


def orthogonal_complement_gram(ambient, embedded):
    """The Gram lattice of the orthogonal complement of `embedded` in
    `ambient`, in the basis that `orthogonal_complement_basis` returns."""
    basis = orthogonal_complement_basis(ambient, embedded)
    return GramLattice(tuple(tuple(ambient.inner(b1, b2) for b2 in basis) for b1 in basis))


def isometric(a, b):
    """Oracle: exact isometry test by exhaustive basis matching (small ranks
    only; exponential on a False answer).  With equal determinants, any column
    matrix B with B^T G_a B = G_b is unimodular, so one found is an isometry."""
    if a.rank != b.rank or a.det() != b.det():
        return False
    g = b.gram
    by_norm = {q: enumerate_by_norm(a, q) for q in {g[j][j] for j in range(b.rank)}}

    def extend(cols):
        j = len(cols)
        return j == b.rank or any(
            extend(cols + [v]) for v in by_norm[g[j][j]]
            if all(a.inner(c, v) == g[i][j] for i, c in enumerate(cols)))

    return extend([])


def integer_coordinates(columns, target):
    """Oracle: the y in Z^k with sum_j y_j * columns[j] == target, or None.
    Columns must be independent; solved exactly by sympy's normal equations."""
    b = sp.Matrix(columns).T
    t = sp.Matrix(target)
    y = (b.T * b).inv() * b.T * t
    if b * y != t or not all(c.is_integer for c in y):
        return None
    return tuple(int(c) for c in y)


def unimodular(n, rng):
    """A seeded random matrix in GL_n(Z), n >= 2: a product of column operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-1, 1))
        for r in u:
            r[i] += f * r[j]
        if rng.random() < 0.3:
            for r in u:
                r[i] = -r[i]
    return u


def rebased(lat, u):
    """The Gram of lat in the basis given by the columns of u: U^T G U."""
    cols = [tuple(r[j] for r in u) for j in range(lat.rank)]
    return GramLattice(tuple(tuple(lat.inner(a, b) for b in cols) for a in cols))


# ---------------------------------------------------------------------------
# ADE constructors and duals
# ---------------------------------------------------------------------------


def test_ade_small_grams():
    assert lattice_from_text("A1")[0].gram == ((2,),)
    assert lattice_from_text("A2")[0].gram == ((2, -1), (-1, 2))


def test_ade_determinants():
    assert lattice_from_text("E7")[0].det() == 2
    assert lattice_from_text("E6")[0].det() == 3
    assert lattice_from_text("E8")[0].det() == 1
    for n in range(1, 8):
        assert lattice_from_text(f"A{n}")[0].det() == n + 1
    for n in (4, 5, 6):
        assert lattice_from_text(f"D{n}")[0].det() == 4


def test_ade_invalid():
    for fam, n in (("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)):
        with pytest.raises(ValueError):
            lattice_from_text(f"{fam}{n}")


def _minimal_norm(lat):
    """The least norm of a nonzero vector: norms lie in (1/den) Z, so ask for
    each of 1/den, 2/den, ... in turn."""
    return next(q for q in (Fraction(k, lat.den) for k in itertools.count(1))
                if enumerate_by_norm(lat, q))


def test_dual_of_a1():
    d = dual_gram(lattice_from_text("A1")[0])
    assert d.gram == ((Fraction(1, 2),),)
    assert enumerate_by_norm(d, Fraction(1, 2)) == [(-1,), (1,)]


def test_dual_minimal_norms():
    for n in range(1, 6):
        assert _minimal_norm(dual_gram(lattice_from_text(f"A{n}")[0])) == Fraction(n, n + 1)
    assert _minimal_norm(dual_gram(lattice_from_text("D4")[0])) == 1
    assert _minimal_norm(dual_gram(lattice_from_text("E6")[0])) == Fraction(4, 3)
    assert _minimal_norm(dual_gram(lattice_from_text("E7")[0])) == Fraction(3, 2)


def test_dual_is_involution():
    for text in ("A3", "D5", "E6"):
        lat = lattice_from_text(text)[0]
        assert dual_gram(dual_gram(lat)).gram == lat.gram


def invert_by_fractions(rows):
    """Oracle: Gauss-Jordan elimination in Fractions, with row pivoting."""
    n = len(rows)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for k in range(n):
        piv = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for r in range(n):
            if r != k and m[r][k]:
                f = m[r][k]
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return tuple(tuple(row[n:]) for row in m)


ADE_ATOMS = ["A1", "A2", "A5", "A12", "D4", "D5", "D9", "E6", "E7", "E8"]
ROW37_FREE = "(1/10)[[3,1,-1],[1,7,3],[-1,3,7]]"  # the free part of table row 37


@pytest.mark.parametrize("text", ADE_ATOMS + [ROW37_FREE, "A2+D4*+(1/3)[[2,1],[1,5]]"])
def test_integer_inverse_matches_fraction_gauss_jordan(text):
    gram = lattice_from_text(text)[0].gram
    inverse = invert_by_fractions(gram)
    assert _invert(gram) == inverse
    assert dual_gram(lattice_from_text(text)[0]).gram == inverse
    if text in ADE_ATOMS:  # the dual atom "X*" is built by the same inverse
        assert lattice_from_text(f"{text}*")[0].gram == inverse
        assert _invert(inverse) == gram


def test_discriminant_group_orders():
    # |L*/L| = det L = 1 / det L*
    for fam, n, order in (("A", 4, 5), ("E", 7, 2), ("A", 1, 2), ("D", 6, 4)):
        assert 1 / dual_gram(lattice_from_text(f"{fam}{n}")[0]).det() == order


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_a1_norm2():
    vecs = enumerate_by_norm(lattice_from_text("A1")[0], 2)
    assert sorted(vecs) == [(-1,), (1,)]


def test_a1_power_100_through_the_block_sum():
    # the largest sum the grammar takes; each block is eliminated on its own
    lat = lattice_from_text("A1^100")[0]
    assert lat.rank == 100 and lat.det() == 2**100
    units = {tuple(s * (i == j) for j in range(100)) for i in range(100) for s in (1, -1)}
    vecs = enumerate_by_norm(lat, 2)
    assert len(vecs) == 200 and set(vecs) == units


def test_root_counts():
    for n in range(1, 8):
        assert len(enumerate_by_norm(lattice_from_text(f"A{n}")[0], 2)) == n * (n + 1)
    for n in (4, 5, 6):
        assert len(enumerate_by_norm(lattice_from_text(f"D{n}")[0], 2)) == 2 * n * (n - 1)
    assert len(enumerate_by_norm(lattice_from_text("E6")[0], 2)) == 72
    assert len(enumerate_by_norm(lattice_from_text("E7")[0], 2)) == 126


def test_enumeration_exact_and_negation_symmetric():
    rng = random.Random(11)
    lattices = [lattice_from_text("A4")[0], dual_gram(lattice_from_text("D4")[0]),
                lattice_from_text("(1/10)[[3,1,-1],[1,7,3],[-1,3,7]]")[0]]
    for lat in lattices:
        for q in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)):
            vecs = enumerate_by_norm(lat, q)
            assert vecs == sorted(vecs)
            for v in vecs:
                assert lat.norm(v) == q
                assert tuple(-c for c in v) in vecs


# Theta-series coefficients, independent of the walk: E8 has 240*sigma_3(n)
# vectors of norm 2n; D8 and A8 at norm 4 count the vectors of Z^8 with even
# coordinate sum and of Z^9 with zero sum; E7* and E6* hold no norm-4 vector
# outside E7 and E6, so theirs are the E7 and E6 coefficients.
THETA = [("E8", 2, 240), ("E8", 4, 2160), ("E8", 6, 6720), ("E8", 8, 17520),
         ("D8", 4, 1136), ("A8", 4, 756), ("E7*", 4, 756), ("E6*", 4, 270)]


@pytest.mark.parametrize("text, q, count", THETA, ids=[f"{t}_{q}" for t, q, _ in THETA])
def test_theta_series_counts(text, q, count):
    lat = lattice_from_text(text)[0]
    vecs = enumerate_by_norm(lat, q)
    assert len(vecs) == count
    assert all(a < b for a, b in zip(vecs, vecs[1:]))  # sorted, no duplicates
    assert {tuple(-c for c in v) for v in vecs} == set(vecs)
    assert all(lat.norm(v) == q for v in vecs[::97])


@pytest.mark.parametrize("text, q, expected", [
    ("<1/6>", Fraction(1, 6), [(-1,), (1,)]),
    ("<1/6>", Fraction(4, 6), [(-2,), (2,)]),
    ("<1/6>", Fraction(1, 3), []),
    ("A1+A1", 2, [(-1, 0), (0, -1), (0, 1), (1, 0)]),
    ("A1+A1", 4, [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
    ("[[1,0,0],[0,2,0],[0,0,3]]", 3,
     [(-1, -1, 0), (-1, 1, 0), (0, 0, -1), (0, 0, 1), (1, -1, 0), (1, 1, 0)]),
    ("[[1,0,0],[0,2,0],[0,0,3]]", 4, [(-2, 0, 0), (-1, 0, -1), (-1, 0, 1), (1, 0, -1),
                                       (1, 0, 1), (2, 0, 0)]),
], ids=["rank1", "rank1_x2", "rank1_none", "A1+A1_axes", "A1+A1_off_axes",
        "diagonal_3", "diagonal_4"])
def test_enumeration_zero_prefix_cases(text, q, expected):
    """Vectors whose top coordinates vanish: rank 1, and vectors on the axes."""
    assert enumerate_by_norm(lattice_from_text(text)[0], q) == expected


def test_enumerate_rejects_nonpositive_norm():
    with pytest.raises(ValueError):
        enumerate_by_norm(lattice_from_text("A2")[0], 0)


def test_enumeration_of_a_direct_sum_ignores_block_order():
    # each level's center sums over its band of nonzero entries, which stays
    # inside its block; the same sum with the blocks reversed gives the same
    # vectors, coordinates permuted
    a = lattice_from_text("A2+D4*+A1")[0]
    b = lattice_from_text("A1+D4*+A2")[0]
    ends = (2, 2, 6, 6, 6, 6, 7)  # the end of the block of each level of a
    assert all(i < lo <= hi <= ends[i] or lo == hi for i, (lo, hi, _) in enumerate(a.bands))
    to_a = lambda v: v[5:7] + v[1:5] + v[:1]  # noqa: E731
    for q in (1, 2, 3, 4):
        assert enumerate_by_norm(a, q) == sorted(map(to_a, enumerate_by_norm(b, q)))
        assert enumerate_by_norm(a, q)


def test_integer_gram_and_definiteness():
    lat = lattice_from_text("(1/10)[[2,1],[1,3]]")[0]
    assert lat.den == 10 and lat.igram == ((2, 1), (1, 3))
    assert lat.inner((1, 0), (0, 1)) == Fraction(1, 10)
    assert lat.norm((1, -1)) == Fraction(3, 10)
    assert GramLattice(()).inner((), ()) == 0
    # a zero pivot after a positive one: semidefinite, not definite
    semidefinite = ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    for bad in (((0,),), ((1, 2), (2, 1)), ((2, 1, 0), (1, 2, 0), (0, 0, -1)), semidefinite):
        with pytest.raises(ValueError, match="positive definite"):
            GramLattice(bad)
    # den 3, leading minors 2/3, 1/3 and -1/9: only the last one fails
    third = ((2, 1, 1), (1, 2, 2), (1, 2, 1))
    rational = tuple(tuple(Fraction(x, 3) for x in row) for row in third)
    assert GramLattice(tuple(row[:2] for row in rational[:2])).det() == Fraction(1, 3)
    with pytest.raises(ValueError, match="positive definite"):
        GramLattice(rational)


# An independent completeness oracle: every integer vector in a box that must
# contain the whole ellipsoid, its norm computed with plain Fractions from the
# Gram matrix.  For q(x) <= q, Cauchy-Schwarz gives x_i^2 <= q * (G^-1)_ii.

BOX_CAP = 4000


def _brute_force(gram, bound):
    r = len(gram)
    inv = sp.Matrix(r, r, lambda i, j: sp.Rational(gram[i][j].numerator,
                                                   gram[i][j].denominator)).inv()
    radius = [math.isqrt(math.floor(bound * Fraction(int(inv[i, i].p), int(inv[i, i].q)))) + 1
              for i in range(r)]
    assume(math.prod(2 * b + 1 for b in radius) <= BOX_CAP)
    found = {}
    for x in itertools.product(*(range(-b, b + 1) for b in radius)):
        q = sum(x[i] * gram[i][j] * x[j] for i in range(r) for j in range(r))
        if q <= bound:
            found[x] = q
    return found


@st.composite
def gram_cases(draw):
    """(G, U, bound): G = B^T D B positive definite, U unimodular."""
    r = draw(st.integers(1, 4))
    b = [[draw(st.integers(-1, 1)) for _ in range(r)] for _ in range(r)]
    assume(sp.Matrix(b).det() != 0)
    d = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(r)]
    gram = tuple(tuple(sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(r))
                 for i in range(r))
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(draw(st.integers(0, 4)) if r > 1 else 0):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(st.sampled_from((-1, 1)))
        for row in u:
            row[j] += c * row[i]
    if draw(st.booleans()):
        probe = [draw(st.integers(-1, 1)) for _ in range(r)]
        assume(any(probe))
        bound = sum(probe[i] * gram[i][j] * probe[j] for i in range(r) for j in range(r))
    else:
        bound = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    return gram, u, bound


@settings(max_examples=60, deadline=None)
@given(gram_cases())
def test_enumeration_matches_brute_force_and_is_skew_invariant(case):
    gram, u, bound = case
    r = len(gram)
    lat = GramLattice(gram)
    expected = _brute_force(gram, bound)
    # norms of integer vectors lie in (1/den) Z: ask for every one up to the bound
    norms = [Fraction(k, lat.den) for k in range(1, math.floor(bound * lat.den) + 1)]
    for q in norms:
        assert enumerate_by_norm(lat, q) == sorted(x for x, v in expected.items() if v == q)
    exact = sorted(x for x, q in expected.items() if q == bound)
    assert enumerate_by_norm(lat, bound) == exact
    # the same lattice in the basis U: x' is a vector there iff U x' is one here
    skewed = GramLattice(tuple(
        tuple(sum(u[k][i] * gram[k][m] * u[m][j] for k in range(r) for m in range(r))
              for j in range(r))
        for i in range(r)))
    image = sorted(tuple(sum(u[i][j] * x[j] for j in range(r)) for i in range(r))
                   for x in enumerate_by_norm(skewed, bound))
    assert image == exact
    # the zero vector is the one vector of norm 0
    assert sum(len(enumerate_by_norm(skewed, q)) for q in norms) == len(expected) - 1


@settings(max_examples=60, deadline=None)
@given(gram_cases())
def test_det_matches_sympy(case):
    gram = case[0]
    expected = sp.Matrix(len(gram), len(gram),
                         lambda i, j: sp.Rational(gram[i][j].numerator, gram[i][j].denominator)).det()
    det = GramLattice(gram).det()
    assert (det.numerator, det.denominator) == (expected.p, expected.q)


# ---------------------------------------------------------------------------
# orthogonal complements (exact Gram identities)
# ---------------------------------------------------------------------------


def test_a1_complement_in_a5_has_twelve_roots_matching_the_listed_vectors():
    a5 = lattice_from_text("A5")[0]
    emb = [(1, 0, 0, 0, 0)]  # the root e1 - e2 in simple-root coordinates
    comp = orthogonal_complement_gram(a5, emb)
    basis = orthogonal_complement_basis(a5, emb)
    roots = enumerate_by_norm(comp, 2)
    assert len(roots) == 12
    # map back to sum-zero vectors in R^6: alpha_i = e_i - e_{i+1}
    def to_r6(coords_in_simple_roots):
        x = list(coords_in_simple_roots) + [0]
        return tuple(x[0:1] + [x[i] - x[i - 1] for i in range(1, 5)] + [-x[4]])

    got = set()
    for v in roots:
        amb = [sum(basis[j][i] * v[j] for j in range(len(basis))) for i in range(5)]
        got.add(to_r6(amb))
    expected = set()
    for i in range(2, 6):
        for j in range(2, 6):
            if i != j:
                e = [0] * 6
                e[i], e[j] = 1, -1
                expected.add(tuple(e))
    assert got == expected


def test_a1_complement_in_a4_gram():
    comp = orthogonal_complement_gram(lattice_from_text("A4")[0], [(1, 0, 0, 0)])
    target = GramLattice(((4, -1, 1), (-1, 2, -1), (1, -1, 2)))
    assert isometric(comp, target)


def test_a2_complement_in_d5_gram():
    d5 = lattice_from_text("D5")[0]
    comp = orthogonal_complement_gram(d5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    target = GramLattice(((2, 0, -1), (0, 2, -1), (-1, -1, 4)))
    assert isometric(comp, target)


def test_complement_rejects_dependent_vectors():
    with pytest.raises(ValueError):
        orthogonal_complement_gram(lattice_from_text("A3")[0], [(1, 0, 0), (2, 0, 0)])


def test_integer_kernel_is_saturated():
    # kernel of [2 4 6] over Z must contain (2,-1,0) and (0,3,-2), not just multiples
    kern = integer_kernel([[2, 4, 6]], 3)
    assert len(kern) == 2
    (_, p1, p2), (_, q1, q2) = kern
    # x0 = -2*x1 - 3*x2 on the kernel, so coordinates 1 and 2 fix a kernel vector:
    # solve y*kern[0] + z*kern[1] == t on them by Cramer's rule, then check all three
    det = p1 * q2 - p2 * q1
    for t in ((2, -1, 0), (0, 3, -2)):
        y = Fraction(t[1] * q2 - t[2] * q1, det)
        z = Fraction(p1 * t[2] - p2 * t[1], det)
        assert y.denominator == z.denominator == 1
        assert tuple(y * a + z * b for a, b in zip(kern[0], kern[1])) == t


# ---------------------------------------------------------------------------
# counting operations on Mordell-Weil structures
# ---------------------------------------------------------------------------


def test_count_etc_spot_rows():
    assert count_etc(row(10).mw) == 3
    assert count_etc(row(59).mw) == 63
    assert count_etc(row(14).mw) == 0


def test_count_qretc_spot_rows():
    assert count_qretc(row(40).mw) == 1
    assert count_qretc(row(37).mw) == 0
    assert count_qretc(row(5).mw) == 1


def test_odd_vector_counts_are_internal_inconsistencies(monkeypatch):
    import mwq.lattice as lattice

    real = lattice.enumerate_by_norm
    # drop one vector of each +-v pair set, so the counts come out odd
    monkeypatch.setattr(lattice, "enumerate_by_norm", lambda lat, norm: real(lat, norm)[:-1])
    with pytest.raises(lattice.InternalInconsistencyError, match="norm-2"):
        count_etc(row(10).mw)
    with pytest.raises(lattice.InternalInconsistencyError, match="norm-1/2"):
        count_qretc(row(40).mw)


def test_failed_rechecks_are_internal_inconsistencies(monkeypatch):
    # these checks must not be asserts: `python -O` would strip them
    import mwq.lattice as lattice

    monkeypatch.setattr(lattice, "integer_kernel", lambda rows, n_cols: [])
    with pytest.raises(InternalInconsistencyError, match="kernel has rank 0"):
        lattice.integral_dual_basis(dual_gram(lattice_from_text("A1")[0]))


def test_no_check_in_src_is_stripped_by_python_optimize():
    # `python -O` drops assert statements and `if __debug__:` blocks and sets
    # sys.flags.optimize; it changes nothing else (docstrings go only under
    # -OO).  Source free of all three runs the same with and without -O.
    src = Path(__file__).resolve().parent.parent / "src" / "mwq"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "__debug__"
                    or isinstance(node, ast.Attribute) and node.attr == "optimize"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# math functions that return or take a float
_FLOAT_MATH = {"sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "pow", "floor", "ceil",
               "fsum"}


def test_no_float_enters_src():
    # every computation is exact: no float or complex literal, no float() or
    # complex() call and none of the math functions above, by name or imported
    src = Path(__file__).resolve().parent.parent / "src" / "mwq"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex")
                    or isinstance(node, ast.Attribute) and node.attr in _FLOAT_MATH
                    and isinstance(node.value, ast.Name) and node.value.id == "math"
                    or isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name in _FLOAT_MATH for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_fraction_in_the_elimination_or_the_walk():
    # the elimination and every enumerate_by_norm call work in integers: in
    # their bodies the one Fraction is the coercion `q = Fraction(q)`, only
    # q's numerator and denominator are read, nothing reads the Fraction Gram
    # or a pairing, and nothing divides with `/`
    path = Path(__file__).resolve().parent.parent / "src" / "mwq" / "lattice.py"
    coercion = ast.dump(ast.parse("q = Fraction(q)").body[0])
    checked, found = set(), []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ("_eliminate", "enumerate_by_norm")):
            continue
        checked.add(fn.name)
        for node in (n for stmt in fn.body if ast.dump(stmt) != coercion for n in ast.walk(stmt)):
            if (isinstance(node, ast.Name) and node.id == "Fraction"
                    or isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "q")
                    or isinstance(node, ast.Attribute) and node.attr in ("gram", "inner", "norm", "det")
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                found.append(f"{fn.name}:{node.lineno}")
    assert checked == {"_eliminate", "enumerate_by_norm"}
    assert found == []


def test_internal_inconsistency_error_is_one_class():
    import mwq
    import mwq.lattice
    import mwq.surface

    assert mwq.InternalInconsistencyError is mwq.lattice.InternalInconsistencyError
    assert mwq.surface.InternalInconsistencyError is mwq.lattice.InternalInconsistencyError


def test_no_norm_half_vectors_in_the_exceptional_rows():
    for n in (37, 38, 39, 41, 45, 46, 48, 49, 51):
        mw = row(n).mw
        assert enumerate_by_norm(mw.mw_free, Fraction(1, 2)) == []


def test_norm_half_only_where_counts_allow():
    # rows with norm-1/2 vectors but QRETC = 0 must fail 2-divisibility instead
    mw = row(24).mw  # <1/4> + <1/4>: four norm-1/2 vectors, none with 2s narrow
    assert len(enumerate_by_norm(mw.mw_free, Fraction(1, 2))) == 4
    assert count_qretc(mw) == 0


def test_qretc_integrality_matches_span_membership():
    # count_qretc reads "2v is narrow" off integral pairings; recount on every
    # row by solving for 2v in a basis of the integral-pairing sublattice
    from mwq.lattice import integral_dual_basis

    for r in builtin_table():
        mw = r.mw
        if mw.mw_free.rank == 0:
            assert count_qretc(mw) == 0
            continue
        kernel = integral_dual_basis(mw.mw_free)
        halves = enumerate_by_norm(mw.mw_free, Fraction(1, 2))
        hits = [v for v in halves if integer_coordinates(kernel, [2 * c for c in v]) is not None]
        assert len(hits) == 2 * count_qretc(mw) == 2 * r.qretc_expected, r.row_no


def test_counts_independent_of_the_narrow_rebasing():
    # a seeded unimodular change of basis of the free part rebases the narrow
    # part derived from it, and changes neither count nor the narrow
    # determinant; the shears are kept mild (rank-many +-1 column operations),
    # as the walk on a skewed basis is exponential
    rng = random.Random(20091)
    for n in (5, 24, 35, 40, 42, 50):
        r = row(n)
        seen = set()
        for _ in range(3):
            free = rebased(r.mw.mw_free, unimodular(r.mw.mw_free.rank, rng))
            mw = make_mw_structure(free, r.mw.torsion)
            assert count_etc(mw) == r.etc_expected, n
            assert count_qretc(mw) == r.qretc_expected, n
            assert mw.narrow_gram.det() == r.mw.narrow_gram.det(), n
            seen.add(free.gram)
        assert seen - {r.mw.mw_free.gram}, n


def test_gram_isometric_sublattice_need_not_be_narrow():
    # why membership is read off integral pairings: the free lattice A1* + <1/6>
    # contains a Gram-isometric copy of diag(2, 6) that is NOT the narrow part
    r5 = row(5)
    impostor = ((1, 3), (3, -3))
    free = r5.mw.mw_free
    for i in range(2):
        for j in range(2):
            assert free.inner(impostor[i], impostor[j]) == r5.mw.narrow_gram.gram[i][j]
    basis = [(1, 0), (0, 1)]
    assert any(free.inner(b, e).denominator != 1 for b in impostor for e in basis)
    assert count_qretc(r5.mw) == r5.qretc_expected


def test_mw_structure_validation():
    free = dual_gram(lattice_from_text("A1")[0])
    narrow = lattice_from_text("A1")[0]
    mw = make_mw_structure(free, ())
    assert mw.narrow_gram == narrow
    assert mw.narrow_gram.det() / mw.mw_free.det() == 4  # index 2
    with pytest.raises(ValueError):
        make_mw_structure(free, (2,))  # even torsion rejected


def test_isometric_oracle_separates_equal_determinants():
    # [[4,2],[2,4]] has det 12 like A1 + <6>, but no vector of norm 2, while
    # a rebasing of A1 + <6> is isometric to A1 + <6>
    a1_6 = lattice_from_text("A1+<6>")[0]
    fake = GramLattice(((4, 2), (2, 4)))
    assert fake.det() == a1_6.det()
    assert not isometric(a1_6, fake) and not isometric(fake, a1_6)
    assert isometric(rebased(a1_6, [[1, 1], [0, 1]]), a1_6)
    assert isometric(TRIVIAL_LATTICE, TRIVIAL_LATTICE)


def test_lattice_text_round_trips():
    lat, tors = lattice_from_text("A3*+A1*")
    assert lat.rank == 4 and tors == ()
    lat, tors = lattice_from_text("A1*+Z/3Z")
    assert lat.rank == 1 and tors == (3,)
    lat, tors = lattice_from_text("Z/3Z^2")
    assert lat.rank == 0 and tors == (3, 3)
    lat, tors = lattice_from_text("<1/6>^2")
    assert lat.gram == ((Fraction(1, 6), 0), (0, Fraction(1, 6)))
    lat, _ = lattice_from_text("(1/10)[[2,1],[1,3]]")
    assert lat.gram == ((Fraction(1, 5), Fraction(1, 10)), (Fraction(1, 10), Fraction(3, 10)))
