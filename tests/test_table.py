"""The sixty-row configuration table: transcription sanity, full count
verification, and the genus dichotomies."""

import ast
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mwq.lattice import dual_gram, lattice_from_text
from mwq.mwtable import builtin_table, parse_ade_multiset, row_matching, verify_table
from mwq.quartic import genus_from_sing


def row(n):
    return builtin_table()[n - 1]


def test_row_numbering_is_contiguous():
    assert [r.row_no for r in builtin_table()] == list(range(1, 61))


def test_row_1_scalar_lattices():
    r = row(1)
    assert r.mw.mw_free.gram == ((Fraction(1, 14),),)
    assert r.mw.narrow_gram.gram == ((14,),)
    assert r.mw.narrow_gram.det() / r.mw.mw_free.det() == 196  # index 14


def test_row_26_pure_torsion():
    r = row(26)
    assert r.mw.mw_free.rank == 0
    assert r.mw.torsion == (3, 3)


def test_row_50_shapes():
    r = row(50)
    # D4* + A1* and D4 + A1 as explicit block-diagonal matrices
    d4 = lattice_from_text("D4")[0]
    assert r.mw.mw_free.gram == (
        tuple(g + (0,) for g in dual_gram(d4).gram) + ((0, 0, 0, 0, Fraction(1, 2)),))
    assert r.mw.narrow_gram.gram == tuple(g + (0,) for g in d4.gram) + ((0, 0, 0, 0, 2),)


def test_all_rows_verify():
    report = verify_table()
    assert len(report) == 60
    mismatches = [r for r in report if not r["ok"]]
    assert mismatches == []


def test_row_range_verification():
    report = verify_table(range(37, 53))
    assert len(report) == 16
    assert all(r["ok"] for r in report)


def test_torsion_orders_all_odd():
    for r in builtin_table():
        for order in r.mw.torsion:
            assert order % 2 == 1


def test_narrow_index_is_integral():
    # det(narrow) / det(free) is the squared index of the narrow part
    for r in builtin_table():
        ratio = r.mw.narrow_gram.det() / r.mw.mw_free.det() if r.mw.mw_free.rank else 1
        assert ratio.denominator == 1 and ratio >= 1, r.row_no
        assert math.isqrt(ratio.numerator) ** 2 == ratio.numerator, r.row_no


def test_genus_dichotomies_across_all_rows():
    for r in builtin_table():
        genus = genus_from_sing(r.sing_type)
        if genus == 0:
            assert r.qretc_expected == r.etc_expected, r.row_no
        if genus >= 2:
            assert r.qretc_expected == 0, r.row_no


def test_flagged_rows_carry_notes():
    assert any("row 48" in n for n in row(49).notes)
    # the sb rows that split on the fiber at infinity document their mapping
    for n in (16, 17, 19, 20, 48, 49):
        assert row(n).notes


def _rank(label):
    return int(label[1:])


def _det(label):
    return {"A": _rank(label) + 1, "D": 4, "E": 9 - _rank(label)}[label[0]]


def _implied_class(sing, roots):
    """The tangent-line class a (singularity type, fiber roots) key implies:
    the fiber at infinity adds A1 (I2 or III: `s`) or A2 (I3 or IV: `b`) to
    the singular points, or it is I_n, n >= 4, and replaces the A_{n-3} point
    the tangent line runs through by A_{n-1} (`sb`)."""
    added = Counter(roots) - Counter(sing)
    removed = Counter(sing) - Counter(roots)
    if not removed and list(added.elements()) in (["A1"], ["A2"]):
        return {"A1": "s", "A2": "b"}[next(iter(added))]
    (old,), (new,) = list(removed.elements()), list(added.elements())
    assert old[0] == new[0] == "A" and _rank(new) == _rank(old) + 2, (sing, roots)
    return "sb"


def test_each_key_names_one_row_of_its_implied_class():
    keys = [(r.sing_type, r.fiber_roots) for r in builtin_table()]
    assert len(set(keys)) == 60
    for r in builtin_table():
        assert _implied_class(r.sing_type, r.fiber_roots) == r.line_class, r.row_no
        assert row_matching(r.sing_type, r.fiber_roots) is r


def test_rows_48_and_49_split_on_the_fiber_at_infinity():
    # A2+A1 with the tangent line through the A2 point (I5 at infinity) or
    # through the A1 point (I4); row 49's printed roots repeat row 48's
    assert row_matching(("A2", "A1"), ("A4", "A1")).row_no == 48
    assert row_matching(("A2", "A1"), ("A3", "A2")).row_no == 49
    assert row_matching(("A2", "A1"), ("A5", "A1")) is None


def test_shioda_tate_holds_on_every_row():
    # T is the root lattice of the reducible fibers: rank MW + rank T = 8,
    # det MW_free * det T = |tors|^2 and det narrow = det T / |tors|^2
    for r in builtin_table():
        rank_t = sum(_rank(label) for label in r.fiber_roots)
        det_t = math.prod(_det(label) for label in r.fiber_roots)
        tors = math.prod(r.mw.torsion)
        assert r.mw.mw_free.rank + rank_t == 8, r.row_no
        assert r.mw.mw_free.det() * det_t == tors ** 2, r.row_no
        assert r.mw.narrow_gram.det() == Fraction(det_t, tors ** 2), r.row_no


def test_no_code_in_src_reads_the_notes():
    # the notes are prose for the reader: no lookup or check may read them
    src = Path(__file__).resolve().parent.parent / "src" / "mwq"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "notes":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_parse_ade_multiset():
    assert parse_ade_multiset("2A1") == ("A1", "A1")
    assert parse_ade_multiset("A4+A1^2") == ("A1", "A1", "A4")
    assert parse_ade_multiset("3A2") == ("A2", "A2", "A2")
    assert parse_ade_multiset("0") == ()


def test_narrow_gram_realized_exactly():
    # the narrow Gram derived from each row's `mw` column is, entry for entry,
    # the printed narrow column, kept as an oracle in tests/data
    path = Path(__file__).resolve().parent / "data" / "narrow_grams.json"
    printed = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(map(int, printed)) == list(range(1, 61))
    for r in builtin_table():
        narrow, torsion = lattice_from_text(printed[str(r.row_no)])
        assert torsion == (), r.row_no
        assert r.mw.narrow_gram.gram == narrow.gram, r.row_no
