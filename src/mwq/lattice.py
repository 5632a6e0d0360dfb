"""Positive-definite rational Gram lattices.

ADE root lattices and their duals, exact short-vector enumeration in the
Fincke-Pohst style (one LDL^T per lattice, found by an elimination in
integers, then a walk in integers: no Fraction per call and no floating
point), orthogonal complements over Z, and the Mordell-Weil structures whose
norm-2 / norm-1/2 vector counts this package reports.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .parsing import RANK_CAP, parse_rational
from .poly import InternalInconsistencyError

Vector = tuple[int, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Band = tuple[int, int, Vector]  # (lo, hi, the entries lo..hi-1 of a row)


def _to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _eliminate(
    igram: Sequence[Sequence[int]], den: int
) -> tuple[tuple[int, ...], tuple[Band, ...], tuple[tuple[int, int], ...], tuple[int, int]]:
    """The LDL^T form of the Gram igram / den, by one elimination in integers.

    With L unit upper triangular, q(x) = sum_i d[i]*(x_i + sum_{j>i} L[i][j] x_j)^2.
    Level i is returned as integers: cd[i], the least common denominator of
    row i of L; the band (lo, hi, num[i][lo:hi]) of num[i][j] = cd[i] * L[i][j],
    zero for j outside [lo, hi) (lo = hi if the row is 0 past i); and the
    weight d[i] / cd[i]^2 as a reduced pair (numerator, denominator).  The
    last item is det = prod d[i], also a reduced pair.

    Row j of the remaining block is kept as integers over a positive row
    scale.  A step updates only the rows whose multiplier is nonzero and then
    divides out their content, so the blocks of a direct sum never touch.
    Raises ValueError at the first pivot <= 0 (Sylvester: unless the Gram is
    positive definite)."""
    n = len(igram)
    rows = [list(row[j:]) for j, row in enumerate(igram)]  # columns j.. of row j
    scale = [1] * n
    cd, bands, weights = [], [], []
    det_num = det_den = 1
    for i in range(n):
        piv, si = rows[i], scale[i]
        p = piv[0]  # d[i] = p / (si * den)
        if p <= 0:
            raise ValueError("gram matrix must be positive definite")
        g = math.gcd(p, *piv[1:])
        ci = p // g
        cd.append(ci)
        nz = [k for k, a in enumerate(piv) if a and k]
        lo, hi = (nz[0], nz[-1] + 1) if nz else (1, 1)
        bands.append((i + lo, i + hi, tuple(a // g for a in piv[lo:hi])))
        wd = si * den * ci * ci
        h = math.gcd(p, wd)
        weights.append((p // h, wd // h))
        det_num *= p
        det_den *= si * den
        ps = p * si
        for j in range(i + 1, n):
            a = piv[j - i]
            if not a:
                continue
            # row_j/sj - (a/si) * piv/p == (row_j*u - v*piv) / (sj*u)
            sj = scale[j]
            h = math.gcd(ps, a * sj)
            u, v = ps // h, a * sj // h
            row = [x * u - v * y for x, y in zip(rows[j], piv[j - i :])]
            s = sj * u
            c = math.gcd(s, *row)
            if c > 1:
                row = [x // c for x in row]
                s //= c
            rows[j], scale[j] = row, s
    h = math.gcd(det_num, det_den)
    return tuple(cd), tuple(bands), tuple(weights), (det_num // h, det_den // h)


class GramLattice:
    """Symmetric positive-definite Gram matrix; rank 0 is the trivial lattice.

    `den` is the least common denominator of the entries and `igram` the
    integer matrix den * gram, so that pairings, kernels and complements are
    integer work.  One integer elimination on `igram` (`_eliminate`) gives,
    per level of the LDL^T form, the integers `cd`, the `bands` of nonzero
    `num` and the reduced pair `weights` that every short-vector walk reads,
    and the determinant that `det` returns.  `gram` stays a matrix of
    Fractions: the records print it.  A frozen value; equality and hash read
    `gram` alone, as every other attribute follows from it."""

    def __init__(self, gram: Sequence[Sequence]):
        g = _to_matrix(gram)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        den = math.lcm(*(x.denominator for row in g for x in row))
        ig = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in g)
        for i in range(n):
            for j in range(i):
                if ig[i][j] != ig[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        cd, bands, weights, det = _eliminate(ig, den)
        vars(self).update(gram=g, den=den, igram=ig, cd=cd, bands=bands, weights=weights,
                          det_pair=det)

    def __setattr__(self, *a):
        raise AttributeError("GramLattice is immutable")

    def __eq__(self, other) -> bool:
        return self.gram == other.gram if type(other) is GramLattice else NotImplemented

    def __hash__(self):
        return hash(self.gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return Fraction(*self.det_pair)

    def inner(self, v: Vector, w: Vector) -> Fraction:
        s = 0
        for vi, row in zip(v, self.igram):
            if vi:
                s += vi * sum(map(operator.mul, row, w))
        return Fraction(s, self.den)

    def norm(self, v: Vector) -> Fraction:
        return self.inner(v, v)


TRIVIAL_LATTICE = GramLattice(())


def _invert(rows: Matrix) -> Matrix:
    """G^-1 for a positive-definite Gram G, by Gauss-Jordan elimination on
    the integer rows of [den G | I], each kept up to a positive factor with its
    content divided out, as in `_eliminate`.  The pivots are positive
    (Sylvester), so no row is swapped, and at [D | B] G^-1 = den D^-1 B."""
    n = len(rows)
    den = math.lcm(*(x.denominator for row in rows for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for k, piv in enumerate(m):
        p = piv[k]
        for r, row in enumerate(m):
            a = row[k]
            if r == k or not a:
                continue
            h = math.gcd(p, a)
            u, v = p // h, a // h
            row = [x * u - v * y for x, y in zip(row, piv)]
            c = math.gcd(*row)
            m[r] = [x // c for x in row] if c > 1 else row
    return tuple(tuple(Fraction(den * x, row[k]) for x in row[n:]) for k, row in enumerate(m))


# ---------------------------------------------------------------------------
# ADE constructors and duals
# ---------------------------------------------------------------------------

_ADE_EDGES = {
    "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    "E7": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)],
    "E8": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)],
}


def _cartan(family: str, n: int) -> Matrix:
    """Root-lattice Gram matrix: 2 on the diagonal, -1 on Dynkin edges."""
    family = family.upper()
    if family == "A" and n >= 1:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D" and n >= 4:
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif family == "E" and n in (6, 7, 8):
        edges = _ADE_EDGES[f"E{n}"]
    else:
        raise ValueError(f"invalid root lattice {family}{n}")
    rows = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = Fraction(-1)
    return tuple(map(tuple, rows))


def dual_gram(lat: GramLattice) -> GramLattice:
    """Gram matrix of the dual lattice (inverse matrix in the dual basis)."""
    if lat.rank == 0:
        return lat
    return GramLattice(_invert(lat.gram))


# ---------------------------------------------------------------------------
# short-vector enumeration
# ---------------------------------------------------------------------------


# the most nodes one walk may visit: each level adds its range length before
# looping over it, so the cap holds before the work is done
WALK_NODE_BUDGET = 10**7


def _norm_pairs(lat: GramLattice, q: Fraction) -> list[Vector]:
    """One vector of each pair +-v with v^T G v = q, in walk order: the one
    whose last nonzero coordinate is positive.  q must be positive.

    With y_i = cd[i]*x_i + C_i, C_i = sum_{j>i} num[i][j]*x_j, the LDL^T form
    reads unit*v^T G v = sum_i k[i]*y_i^2 with integers cd, num, k and one
    common unit.  `cd` and the bands of nonzero num[i][j] that C_i sums over
    come from the lattice's one integer elimination; a call computes only
    unit, k[i] = unit * weights[i] and the budget rem = unit*q.  The walk
    carries the integer budget unit*(q - partial norm), so each level's range
    is |y_i| <= isqrt(rem // k[i]), and the last coordinate must use the
    budget up: k[0]*y_0^2 == rem.

    Each pair is walked once (Schnorr-Euchner): while every coordinate above
    level i is 0 the center C_i is 0, so the walk takes x_i > 0 there (or
    x_i = 0 and goes on down).  q > 0 rules out the zero vector.  Raises
    ValueError once the walk would visit more than WALK_NODE_BUDGET nodes.
    """
    n = lat.rank
    if n == 0:
        return []
    unit = math.lcm(q.denominator, *(wd for _, wd in lat.weights))
    k = [wn * (unit // wd) for wn, wd in lat.weights]
    rem = q.numerator * (unit // q.denominator)
    out: list[Vector] = []
    x = [0] * n
    nodes = 0
    for i in range(n - 1, 0, -1):  # x_j = 0 for every j > i
        nodes = _walk(i, rem, 1, x, lat.cd, k, lat.bands, out, nodes)
    # the axis x = (x_0, 0, ..., 0), with x_0 > 0
    t, r = divmod(rem, k[0])
    s0 = math.isqrt(t)
    if not r and s0 * s0 == t and s0 % lat.cd[0] == 0:
        out.append((s0 // lat.cd[0],) + (0,) * (n - 1))
    return out


def _walk(i: int, rem: int, start: Optional[int], x: list[int], cd: Sequence[int],
          k: Sequence[int], bands: Sequence[Band], out: list[Vector], nodes: int) -> int:
    """Levels i..1 of `_norm_pairs` below the coordinates set in x; level 0 is
    solved inline.  `start` replaces the lower end of level i's range when it
    is not None.  Returns the node count, `nodes` plus this call's levels."""
    ci, ki = cd[i], k[i]
    lo, hi, row = bands[i]
    c = sum(map(operator.mul, row, x[lo:hi]))
    s = math.isqrt(rem // ki)
    if start is None:
        start = -((s + c) // ci)
    stop = (s - c) // ci + 1
    nodes += stop - start
    if nodes > WALK_NODE_BUDGET:
        raise ValueError(f"the short-vector walk would pass its budget of {WALK_NODE_BUDGET} nodes")
    if i > 1:
        for xi in range(start, stop):
            x[i] = xi
            y = ci * xi + c
            nodes = _walk(i - 1, rem - ki * y * y, None, x, cd, k, bands, out, nodes)
        x[i] = 0
        return nodes
    cd0, k0 = cd[0], k[0]
    lo0, hi0, row0 = bands[0]
    c0 = sum(map(operator.mul, row0, x[lo0:hi0]))  # x[1] == 0: C_0 above level 1
    r01 = row0[0] if row0 and lo0 == 1 else 0  # num[0][1]
    hi = tuple(x[2:])
    for x1 in range(start, stop):
        y = ci * x1 + c
        t, r = divmod(rem - ki * y * y, k0)
        if r:
            continue
        s0 = math.isqrt(t)
        if s0 * s0 != t:
            continue
        c01 = c0 + r01 * x1
        for y0 in (s0, -s0) if s0 else (0,):
            x0, r = divmod(y0 - c01, cd0)
            if not r:
                out.append((x0, x1) + hi)
    return nodes


def enumerate_by_norm(lat: GramLattice, q: Fraction) -> list[Vector]:
    """All integer vectors v with v^T G v = q exactly, lexicographically sorted.

    `_norm_pairs` walks one vector of each pair +-v.  Each is flipped, if need
    be, to the one whose first nonzero coordinate is positive, and that half
    is sorted once: every vector of the other half is lexicographically below
    every vector of this one, and negation reverses their order, so the
    negations of the sorted half in reverse, then the half, are the sorted
    list of both.
    """
    q = Fraction(q)
    if q.numerator <= 0:
        raise ValueError("norm must be positive")
    half = [v if next(filter(None, v)) > 0 else _negate(v) for v in _norm_pairs(lat, q)]
    half.sort()
    return [_negate(v) for v in reversed(half)] + half


def _negate(v: Vector) -> Vector:
    return tuple(map(operator.neg, v))


# ---------------------------------------------------------------------------
# integer linear algebra: kernels and complements
# ---------------------------------------------------------------------------


def integer_kernel(rows: Sequence[Sequence[int]], n_cols: int) -> list[Vector]:
    """Z-basis of {x in Z^n : A x = 0} via unimodular column reduction."""
    a = [list(map(int, r)) for r in rows]
    u = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def col_op(dst: int, src: int, factor: int):
        for r in a:
            r[dst] += factor * r[src]
        for r in u:
            r[dst] += factor * r[src]

    def col_swap(i: int, j: int):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    pivot_col = 0
    for row_i in range(len(a)):
        # clear row row_i using columns >= pivot_col
        while True:
            nz = [c for c in range(pivot_col, n_cols) if a[row_i][c] != 0]
            if len(nz) <= 1:
                break
            c1, c2 = sorted(nz[:2], key=lambda c: abs(a[row_i][c]))
            q = a[row_i][c2] // a[row_i][c1]
            col_op(c2, c1, -q)
        nz = [c for c in range(pivot_col, n_cols) if a[row_i][c] != 0]
        if nz:
            col_swap(pivot_col, nz[0])
            pivot_col += 1
    kernel = []
    for c in range(pivot_col, n_cols):
        kernel.append(tuple(u[r][c] for r in range(n_cols)))
    return kernel


def orthogonal_complement_basis(
    ambient: GramLattice, embedded: Sequence[Vector]
) -> list[Vector]:
    """Integral basis of {v : <v, e> = 0 for all embedded e}; rejects dependent input."""
    n = ambient.rank
    # row i of igram is den * <b_i, .>; the positive factor den leaves the kernel alone
    rows = [[sum(map(operator.mul, e, row)) for row in ambient.igram] for e in embedded]
    kernel = integer_kernel(rows, n)
    if len(kernel) != n - len(embedded):
        raise ValueError("embedded vectors are linearly dependent")
    return kernel


# ---------------------------------------------------------------------------
# Mordell-Weil structures
# ---------------------------------------------------------------------------


class MWStructure(NamedTuple):
    """Free part of a Mordell-Weil lattice, its odd torsion, and the Gram of
    the narrow part (sections meeting the identity component of every fiber).
    Build it with `make_mw_structure`, which derives the narrow Gram from the
    free part."""

    mw_free: GramLattice
    torsion: tuple[int, ...]
    narrow_gram: GramLattice


def integral_dual_basis(lat: GramLattice) -> list[Vector]:
    """Basis of {v in Z^r : <v, w> in Z for every w in Z^r}.

    For the Mordell-Weil lattice of a rational elliptic surface this sublattice
    is exactly the narrow part: pairing a narrow section against anything lands
    in Z, and the pairing identifies the full lattice with the dual of the
    narrow one.
    """
    r = lat.rank
    if r == 0:
        return []
    n = lat.den
    # solutions of A v = -n w, A = igram: kernel of [A | n I] in Z^(2r), projected to v
    block = [row + tuple(n * (i == j) for j in range(r)) for i, row in enumerate(lat.igram)]
    kernel = integer_kernel(block, 2 * r)
    if len(kernel) != r:
        raise InternalInconsistencyError(
            f"integral-pairing kernel has rank {len(kernel)}, not {r}"
        )
    return [vec[:r] for vec in kernel]


def make_mw_structure(mw_free: GramLattice, torsion: Sequence[int]) -> MWStructure:
    """Bundle a free Gram with its odd torsion and the Gram of its narrow part.

    On a rational elliptic surface the free part of the Mordell-Weil lattice
    is the dual of the narrow part (Shioda, Comment. Math. Univ. St. Pauli 39,
    1990, sections 8-10; Oguiso-Shioda, ibid. 40, 1991), so the narrow part is
    exactly the integral-pairing sublattice K of the free part.  Its Gram is
    taken in the basis `integral_dual_basis` returns.  That duality is also
    what lets `count_qretc` decide membership in the narrow part by
    integrality, without choosing a basis of it.
    """
    if any(order % 2 == 0 for order in torsion):
        raise ValueError("torsion orders must be odd")
    kernel = integral_dual_basis(mw_free)
    narrow = GramLattice(tuple(tuple(mw_free.inner(b1, b2) for b2 in kernel) for b1 in kernel))
    return MWStructure(mw_free, tuple(torsion), narrow)


# the two norms the table counts at, built once
_ROOT_NORM = Fraction(2)
_HALVING_NORM = Fraction(1, 2)


def count_etc(mw: MWStructure) -> int:
    """The number of pairs +-v of norm-2 vectors of the narrow part: one walk
    over the pairs, no mirror and no sort.  Torsion never contributes: the
    narrow part sits in the free part and the pairing kills torsion classes."""
    return _pair_count(_norm_pairs(mw.narrow_gram, _ROOT_NORM), "norm-2 vectors")


def count_qretc(mw: MWStructure) -> int:
    """The number of pairs +-v with <v,v> = 1/2 whose double lies in the
    narrow part, tested on one vector of each pair (v and -v pass or fail
    together).  The narrow part is the integral-pairing sublattice (by the
    Shioda duality that `make_mw_structure` cites), so 2v is narrow iff
    <2v, e_j> is an integer for every basis vector e_j, i.e. iff
    2*(igram v)_j = 0 mod den.  Odd torsion cannot enter: 2*tau = 0 forces
    tau = 0."""
    lat = mw.mw_free
    return _pair_count(
        [v for v in _norm_pairs(lat, _HALVING_NORM)
         if all(2 * sum(map(operator.mul, row, v)) % lat.den == 0 for row in lat.igram)],
        "norm-1/2 halvings",
    )


def _pair_count(pairs: list[Vector], what: str) -> int:
    """len(pairs), once no vector is in it twice: the walk reaches each pair
    +-v by the same sign, so a pair walked twice shows as a repeated vector."""
    if len(set(pairs)) != len(pairs):
        raise InternalInconsistencyError(
            f"{what} repeated; the walk must reach each pair v, -v once"
        )
    return len(pairs)


# ---------------------------------------------------------------------------
# tiny grammar for lattice expressions ("A3*+A1*", "<1/6>^2", "(1/10)[[2,1],[1,3]]")
# ---------------------------------------------------------------------------


# spaces next to a delimiter; any other lies inside a numeral or a name, which refuses it
_DELIMITER_SPACE = re.compile(r" +(?=[+^*/,()\[\]<>{}])|(?<=[+^*/,()\[\]<>{}]) +")

# one summand, read from its start: an atom, an optional power, then `+` or the end;
# any text that is neither a scalar nor a Gram falls to `word`, which only a name matches
_SUMMAND = re.compile(
    r"(?P<part>(?P<atom><(?P<q>[^<>]*)>"
    r"|(?:\((?P<c>[^()]*)\))?\[\[(?P<rows>[^\[\]]*(?:\],\[[^\[\]]*)*)\]\]"
    r"|(?P<word>[^+^]*))"
    r"(?:\^(?P<power>[^+]*))?)"
    r"(?:(?P<more>\+)|\Z)"
)
_NAMED_ATOM = re.compile(r"Z/([0-9]+)Z|([A-Za-z])([0-9]+)(\*?)")


def lattice_from_text(text: str) -> tuple[GramLattice, tuple[int, ...]]:
    """Parse a direct sum of ADE lattices, duals, rank-1 scalars, Gram matrices
    and cyclic torsion factors.  Returns (lattice, torsion orders); the lattice
    is one GramLattice on the block-diagonal Gram of the summands.  Spaces are
    dropped next to a delimiter only, so a numeral or a name with a space
    inside is refused.  Each summand is read once, left to right, and its rank
    is checked against RANK_CAP by that read, before its Gram or its copies
    are built."""
    text = _DELIMITER_SPACE.sub("", text).strip(" ")
    if text in ("0", "{0}"):
        return TRIVIAL_LATTICE, ()
    blocks: list[Matrix] = []
    torsion: list[int] = []
    room = RANK_CAP  # rank plus torsion factors still allowed
    for m in _SUMMAND.finditer(text):  # each match starts where the last one ended
        if not m["part"]:
            raise ValueError(f"empty summand in lattice expression {text!r}")
        pw = m["power"]
        if pw is not None and not (pw.isascii() and pw.isdigit()):
            raise ValueError(f"bad power {pw!r} in {m['part']!r}")
        power = 1 if pw is None else int(pw)
        if power < 1:
            raise ValueError(f"power {power} of {m['atom']!r} must be at least 1")
        got = _lattice_atom(m, room // power)
        is_torsion = isinstance(got, int)
        (torsion if is_torsion else blocks).extend([got] * power)
        room -= power * (1 if is_torsion else len(got))
        if not m["more"]:
            break
    rows, rank = [], sum(map(len, blocks))
    for block in blocks:
        pad = len(rows)  # a ragged block makes rows of the wrong length: not square
        rows.extend((0,) * pad + tuple(row) + (0,) * (rank - pad - len(block)) for row in block)
    return GramLattice(tuple(rows)), tuple(torsion)


def _lattice_atom(m: re.Match, room: int) -> int | Matrix:
    """The torsion order of "Z/nZ", or the Gram of "<q>", "[[...]]",
    "(c)[[...]]", an ADE name or its dual "A3*": the atom of a summand read by
    `_SUMMAND`.  Its rank, 1 for a torsion order, is at most `room`; a Gram
    literal's rows and a name's index are checked before anything is built."""
    if m["q"] is not None:
        _fits(1, room)
        return ((parse_rational(m["q"]),),)
    if m["rows"] is not None:
        c = None if m["c"] is None else parse_rational(m["c"])
        rows = m["rows"].split("],[")
        _fits(len(rows), room)
        gram = tuple(tuple(map(parse_rational, row.split(","))) for row in rows)
        return gram if c is None else tuple(tuple(c * x for x in row) for row in gram)
    named = _NAMED_ATOM.fullmatch(m["word"])
    if named is None:
        raise ValueError(f"bad lattice atom {m['atom']!r}")
    order, fam, num, dual = named.groups()
    _fits(1 if order is not None else int(num), room)
    if order is not None:
        return int(order)
    g = _cartan(fam, int(num))
    return _invert(g) if dual else g


def _fits(rank: int, room: int) -> None:
    if rank > room:
        raise ValueError(
            f"lattice expression exceeds the cap: rank plus torsion factors at most {RANK_CAP}"
        )
