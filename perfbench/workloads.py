"""Seeded inputs for the four workloads, built with sympy alone.

Nothing here imports mwq: the inputs, and the facts the oracle checks them
against, must not come from the program under test.  Every op is one
`mwq` command line (without `--format records`, which the worker appends),
plus what the oracle needs to judge its answer and the coefficient bit height
of its input.  The same (workload, seed) gives byte-identical ops.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import sympy as sp

WORKLOADS = ("replay", "conics", "table", "shortvec")

T, U = sp.symbols("t u")

# The worked examples of the paper: quartic, and the x-coordinates of the
# sections s1 = 2*s_o and s2 = s_t1 + s_t2, whose conics have symbol +1 and -1.
BASES = {
    "5.1": (
        "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2",
        "1/144*t^2 + 1231/72*t - 5143775/144",
        "1/36*t^2 + 435/2*t - 921375/4",
    ),
    "5.2": (
        "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4",
        "1/64*t^2 - 41/2*t + 315",
        "t^2 + 192*t + 8640",
    ),
}

# Warm-up calls: one cheap call per workload that triggers the program's lazy
# imports before the first timed op.  Its time is part of set-up.
WARMUP = {
    "replay": ["example", "5.2"],
    "conics": ["symbol", BASES["5.2"][0], "u = " + BASES["5.2"][2]],
    "table": ["table", "--verify", "--rows", "1..1"],
    "shortvec": ["lattice", "enumerate", "A2", "2"],
}

# ---------------------------------------------------------------------------
# replay: the two worked examples, fixed inputs
# ---------------------------------------------------------------------------

# Every identity `example` must report, each with ok = true.
REPLAY_IDENTITIES = {
    "5.1": ("fiber[t]", "fiber[t-2025]", "fiber[inf]"),
    "5.2": ("fiber[t]", "fiber[inf]"),
}
REPLAY_COMMON = (
    "on_curve[s_o]", "on_curve[s_t1]", "on_curve[s_t2]",
    "height[s_o,s_o]", "height[s_t1,s_t1]", "height[s_t2,s_t2]", "height[s_t1,s_t2]",
    "double(s_o) == printed s1", "s_t1 + s_t2 == printed s2",
    "even_tangency[conic1]", "even_tangency[conic2]",
    "symbol[conic1]", "symbol[conic2]", "zariski_verdict",
)

# ---------------------------------------------------------------------------
# conics: images of the worked examples under admissible coordinate changes
# ---------------------------------------------------------------------------

# Strata of t -> lam*t + mu.  Every pass holds two images per stratum, with
# different shift magnitudes, so the mix of coefficient heights is the same
# for every seed.  The seed draws the signs of the shift u -> u + a(t) (which
# leaves the discriminant, and with it the bad fibers, unchanged), the order
# of the quartics and the rescaling semiprime.  Drawing whole shift
# coefficients instead made one quartic's cost vary by up to 2x between seeds
# at the commit the benchmark was defined on.
CONIC_STRATA = (
    ("5.2", Fraction(-1), Fraction(1)),
    ("5.2", Fraction(2), Fraction(-1)),
    ("5.2", Fraction(-2), Fraction(3)),
    ("5.2", Fraction(3), Fraction(2)),
    ("5.2", Fraction(1, 2), Fraction(-2)),
    ("5.2", Fraction(-3), Fraction(-1)),
    ("5.1", Fraction(-1), Fraction(-1)),
    ("5.1", Fraction(2), Fraction(-2)),
    ("5.1", Fraction(1), Fraction(1)),
)
SHIFT_MAGNITUDES = (
    (Fraction(1, 2), Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(1, 3), Fraction(3)),
    (Fraction(2), Fraction(3, 2), Fraction(1)),
)
# One image of 5.2 per pass is also rescaled by t -> N*t, N = p*q a semiprime.
RESCALE_BASE = "5.2"
RESCALE_PRIMES = tuple(p for p in range(11, 100) if sp.isprime(p))
RESCALE_DIGITS = 4


def sym(text: str) -> sp.Expr:
    return sp.sympify(text.replace("^", "**"), locals={"t": T, "u": U})


def _rat_text(c: sp.Rational) -> str:
    return str(c.p) if c.q == 1 else f"{c.p}/{c.q}"


def poly_text(expr: sp.Expr) -> str:
    """Print a polynomial in t, u in the mwq input grammar, terms in a fixed order."""
    poly = sp.Poly(sp.expand(expr), U, T)
    parts = []
    for (i, j), c in poly.terms():
        c = sp.Rational(c)
        mono = "*".join(
            s for s in (
                ("u" if i == 1 else f"u^{i}") if i else "",
                ("t" if j == 1 else f"t^{j}") if j else "",
            ) if s
        )
        mag = abs(c)
        term = _rat_text(mag) if not mono else (mono if mag == 1 else f"{_rat_text(mag)}*{mono}")
        parts.append(("-" if c < 0 else "+", term))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    return text + "".join(f" {s} {term}" for s, term in parts[1:])


def bit_height(expr: sp.Expr) -> int:
    """Largest bit length of a numerator or denominator among the coefficients."""
    poly = sp.Poly(sp.expand(expr), U, T)
    return max(max(abs(sp.Rational(c).p).bit_length(), sp.Rational(c).q.bit_length())
               for c in poly.coeffs())


def _draw_shift(rng: random.Random, magnitudes: tuple[Fraction, ...]) -> sp.Expr:
    """a(t) = sum of +-m_k t^k, deg a <= 2, signs drawn."""
    return sum(rng.choice((1, -1)) * sp.Rational(m.numerator, m.denominator) * T ** k
               for k, m in enumerate(magnitudes))


def _draw_semiprime(rng: random.Random) -> int:
    while True:
        p, q = rng.sample(RESCALE_PRIMES, 2)
        if len(str(p * q)) == RESCALE_DIGITS:
            return p * q


def conic_image(base: str, lam: Fraction, mu: Fraction, a: sp.Expr):
    """Quartic and both conics after t -> lam*t + mu, then u -> u + a(t)."""
    f, q1, q2 = (sym(s) for s in BASES[base])
    sub = {T: sp.Rational(lam.numerator, lam.denominator) * T
           + sp.Rational(mu.numerator, mu.denominator)}
    image = sp.expand(f.subs(sub, simultaneous=True).subs(U, U + a))
    return image, sp.expand(q1.subs(sub) - a), sp.expand(q2.subs(sub) - a)


def _conic_ops(rng: random.Random) -> list[dict]:
    strata = [(b, lam, mu, 1, SHIFT_MAGNITUDES[(i + k) % len(SHIFT_MAGNITUDES)])
              for i, (b, lam, mu) in enumerate(CONIC_STRATA) for k in range(2)]
    strata.append((RESCALE_BASE, Fraction(rng.choice((1, -1))), Fraction(0), _draw_semiprime(rng),
                   SHIFT_MAGNITUDES[0]))
    rng.shuffle(strata)
    ops = []
    for k, (base, lam, mu, n, magnitudes) in enumerate(strata):
        while True:  # reject shifts that cancel a conic's t^2 term
            f, q1, q2 = conic_image(base, lam * n, mu, _draw_shift(rng, magnitudes))
            if sp.degree(q1, T) == 2 and sp.degree(q2, T) == 2:
                break
        ftext, c1, c2 = poly_text(f), "u = " + poly_text(q1), "u = " + poly_text(q2)
        label = f"{base} lam={lam} mu={mu}" + (f" N={n}" if n != 1 else "")
        bits = bit_height(f)
        common = {"quartic": k, "image": label, "bits": bits}
        ops.append({**common, "kind": "symbol", "argv": ["symbol", ftext, c1],
                    "expect": {"symbol": 1}})
        ops.append({**common, "kind": "symbol", "argv": ["symbol", ftext, c2],
                    "expect": {"symbol": -1}})
        ops.append({**common, "kind": "zariski", "argv": ["zariski", ftext, c1, c2],
                    "expect": {"verdict": "ZariskiPair"}})
    return ops


# ---------------------------------------------------------------------------
# shortvec: short vectors of ADE lattices and their duals
# ---------------------------------------------------------------------------

# Dynkin diagrams in the benchmark's own node order (any order gives an
# isometric lattice, so counts do not depend on it).
_EDGES = {
    "A8": [(i, i + 1) for i in range(7)],
    "D8": [(i, i + 1) for i in range(6)] + [(5, 7)],
    "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    "E7": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)],
    "E8": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)],
}

# The (lattice, norm) strata of a shortvec pass, each run in the standard
# basis and in one skewed basis, with the theta-series coefficient the count
# is checked against.  E8: 240*sigma_3(n) at norm 2n.  D8 and A8: vectors of
# Z^8 with even coordinate sum and of Z^9 with zero sum.  E7* and E6* at norm
# 4: the E7 and E6 coefficients (756 and 270), as their other cosets hold no
# vector of norm 4.
THETA = {
    ("E8", "2"): 240, ("E8", "4"): 2160, ("E8", "6"): 6720,
    ("E7*", "4"): 756, ("E6*", "4"): 270, ("D8", "4"): 1136, ("A8", "4"): 756,
}
SKEW_STEPS = 8


def cartan(name: str) -> sp.Matrix:
    n = int(name[1:])
    g = sp.zeros(n, n)
    for i in range(n):
        g[i, i] = 2
    for i, j in _EDGES[name]:
        g[i, j] = g[j, i] = -1
    return g


def standard_gram(name: str) -> sp.Matrix:
    return cartan(name[:-1]).inv() if name.endswith("*") else cartan(name)


def gram_text(g: sp.Matrix) -> str:
    den = sp.ilcm(*[sp.Rational(x).q for x in g])
    rows = ",".join("[" + ",".join(str(int(x * den)) for x in g.row(i)) + "]"
                    for i in range(g.rows))
    return f"[{rows}]" if den == 1 else f"(1/{den})[{rows}]"


def skew_basis(name: str, rng: random.Random) -> sp.Matrix:
    """A unimodular basis change: SKEW_STEPS column operations col_j += +-col_i,
    fixed per lattice, then a seeded sign for each column.  The signs change
    the input but not the work of the walk; random operations instead made a
    skewed op's cost vary by up to 1.5x between seeds."""
    fixed = random.Random(f"skew:{name}")
    m = sp.eye(standard_gram(name).rows)
    for _ in range(SKEW_STEPS):
        i, j = fixed.sample(range(m.rows), 2)
        m[:, j] = m[:, j] + fixed.choice((1, -1)) * m[:, i]
    return m * sp.diag(*[rng.choice((1, -1)) for _ in range(m.rows)])


def _shortvec_ops(rng: random.Random) -> list[dict]:
    ops = []
    for (name, norm), count in THETA.items():
        expect = {"count": count}
        ops.append({"kind": "standard", "lattice": name, "norm": norm, "bits": 0,
                    "argv": ["lattice", "enumerate", name, norm], "expect": expect})
        basis = skew_basis(name, rng)
        skewed = basis.T * standard_gram(name) * basis
        text = gram_text(skewed)
        ops.append({"kind": "skew", "lattice": name, "norm": norm,
                    "bits": max(int(x).bit_length() for x in re.findall(r"\d+", text)),
                    "argv": ["lattice", "enumerate", text, norm],
                    "gram": [[_rat_text(sp.Rational(x)) for x in skewed.row(i)]
                             for i in range(skewed.rows)],
                    "expect": expect})
    return ops


# ---------------------------------------------------------------------------
# table: the sixty-row count table
# ---------------------------------------------------------------------------

# The reference (#ETC, #QRETC) columns, copied so that an edit to the
# program's table data cannot make a wrong count pass.
TABLE_REFERENCE = {
    1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (0, 0), 5: (1, 1), 6: (1, 1), 7: (0, 0),
    8: (1, 1), 9: (0, 0), 10: (3, 3), 11: (0, 0), 12: (0, 0), 13: (0, 0), 14: (0, 0),
    15: (0, 0), 16: (0, 0), 17: (0, 0), 18: (1, 1), 19: (0, 0), 20: (1, 1), 21: (2, 2),
    22: (1, 1), 23: (1, 1), 24: (0, 0), 25: (0, 0), 26: (0, 0), 27: (0, 0), 28: (0, 0),
    29: (0, 0), 30: (1, 1), 31: (0, 0), 32: (0, 0), 33: (1, 1), 34: (4, 4), 35: (1, 1),
    36: (2, 2), 37: (3, 0), 38: (1, 0), 39: (1, 0), 40: (7, 1), 41: (2, 0), 42: (4, 1),
    43: (3, 0), 44: (3, 0), 45: (1, 0), 46: (6, 0), 47: (3, 0), 48: (3, 0), 49: (2, 0),
    50: (13, 1), 51: (6, 0), 52: (7, 1), 53: (15, 0), 54: (6, 0), 55: (10, 0), 56: (30, 0),
    57: (15, 0), 58: (20, 0), 59: (63, 0), 60: (36, 0),
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of `workload`; ops carry an `id` in pass order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "replay":
        ops = [{"kind": "example", "which": w, "bits": bit_height(sym(BASES[w][0])),
                "argv": ["example", w]} for w in ("5.1", "5.2")]
    elif workload == "conics":
        ops = _conic_ops(rng)
    elif workload == "table":
        ops = [{"kind": "table", "bits": 0, "argv": ["table", "--verify"]}]
    elif workload == "shortvec":
        ops = _shortvec_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


if __name__ == "__main__":
    import sys

    print(json.dumps(make_ops(sys.argv[1], int(sys.argv[2])), indent=1, sort_keys=True))
