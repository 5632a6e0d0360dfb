"""The sixty configurations of an irreducible quartic with a marked smooth
point: singularity type, position of the tangent line, root lattice of the
reducible fibers, and the Mordell-Weil lattice (Gram data following the
Oguiso-Shioda classification for rational elliptic surfaces).  The narrow part
is not a column: on a rational elliptic surface the Mordell-Weil lattice is the
dual of the narrow one (Shioda 1990, sections 8-10), so each row's narrow Gram
is derived from its `mw` column by `make_mw_structure`.

The final two columns are the reference counts of even tangential conics
through the marked point (total, and quadratic-residue ones); `verify_table`
recomputes both by exact lattice enumeration and diffs against them.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache

from .lattice import (
    MWStructure,
    count_etc,
    count_qretc,
    lattice_from_text,
    make_mw_structure,
)

# no, sing_type, line class, reducible-fiber roots, MW, #ETC, #QRETC, notes
_ROWS: tuple = (
    (1, "A6", "s", "A6+A1", "<1/14>", 0, 0, ()),
    (2, "A6", "sb", "A8", "Z/3Z", 0, 0, ()),
    (3, "E6", "s", "E6+A1", "<1/6>", 0, 0, ()),
    (4, "E6", "b", "E6+A2", "Z/3Z", 0, 0, ()),
    (5, "A5", "s", "A5+A1", "A1*+<1/6>", 1, 1, ()),
    (6, "A5", "b", "A5+A2", "A1*+Z/3Z", 1, 1, ()),
    (7, "A5", "sb", "A7", "<1/8>", 0, 0, ()),
    (8, "D5", "s", "D5+A1", "A1*+<1/4>", 1, 1, ()),
    (9, "D5", "b", "D5+A2", "<1/12>", 0, 0, ()),
    (10, "D4", "s", "D4+A1", "A1*^3", 3, 3, ()),
    (11, "D4", "b", "D4+A2", "(1/6)[[2,1],[1,2]]", 0, 0, ()),
    (12, "A4+A2", "s", "A4+A2+A1", "<1/30>", 0, 0, ()),
    (13, "A4+A2", "sb", "A4+A4", "Z/5Z", 0, 0, ()),
    (14, "A4+A1", "s", "A4+A1^2", "(1/10)[[2,1],[1,3]]", 0, 0, ()),
    (15, "A4+A1", "b", "A4+A2+A1", "<1/30>", 0, 0, ()),
    (16, "A4+A1", "sb", "A4+A3", "<1/20>", 0, 0,
     ("tangent line through the A1 point: the fiber at infinity is I4",)),
    (17, "A4+A1", "sb", "A6+A1", "<1/14>", 0, 0,
     ("tangent line through the A4 point: the fiber at infinity is I7",)),
    (18, "A3+A2", "s", "A3+A2+A1", "A1*+<1/12>", 1, 1, ()),
    (19, "A3+A2", "sb", "A4+A3", "<1/20>", 0, 0,
     ("tangent line through the A2 point: the fiber at infinity is I5",)),
    (20, "A3+A2", "sb", "A5+A2", "A1*+Z/3Z", 1, 1,
     ("tangent line through the A3 point: the fiber at infinity is I6",)),
    (21, "A3+A1", "s", "A3+A1^2", "A1*^2+<1/4>", 2, 2, ()),
    (22, "A3+A1", "b", "A3+A2+A1", "A1*+<1/12>", 1, 1, ()),
    (23, "A3+A1", "sb", "A5+A1", "A1*+<1/6>", 1, 1,
     ("tangent line through the A3 point: the fiber at infinity is I6",)),
    (24, "A3+A1", "sb", "A3+A3", "<1/4>^2", 0, 0,
     ("tangent line through the A1 point: the fiber at infinity is I4",)),
    (25, "3A2", "s", "A2^3+A1", "<1/6>+Z/3Z", 0, 0, ()),
    (26, "3A2", "b", "A2^4", "Z/3Z^2", 0, 0, ()),
    (27, "2A2+A1", "s", "A2^2+A1^2", "<1/6>^2", 0, 0, ()),
    (28, "2A2+A1", "b", "A2^3+A1", "<1/6>+Z/3Z", 0, 0, ()),
    (29, "2A2+A1", "sb", "A4+A2+A1", "<1/30>", 0, 0,
     ("tangent line through the A2 point: the fiber at infinity is I5",)),
    (30, "A2+2A1", "s", "A2+A1^3", "A1*+(1/6)[[2,1],[1,2]]", 1, 1, ()),
    (31, "A2+2A1", "b", "A2^2+A1^2", "<1/6>^2", 0, 0, ()),
    (32, "A2+2A1", "sb", "A4+A1^2", "(1/10)[[2,1],[1,3]]", 0, 0,
     ("tangent line through the A2 point: the fiber at infinity is I5",)),
    (33, "A2+2A1", "sb", "A3+A2+A1", "A1*+<1/12>", 1, 1,
     ("tangent line through an A1 point: the fiber at infinity is I4",)),
    (34, "3A1", "s", "A1^4", "A1*^4", 4, 4, ()),
    (35, "3A1", "b", "A2+A1^3", "A1*+(1/6)[[2,1],[1,2]]", 1, 1,
     ("line class discrepancy between the two source tables ('s' vs 'b'); "
      "the count table's 'b' is kept, the class the key implies (R = S + A2); "
      "an 's' configuration of 3A1 has the key of row 34",)),
    (36, "3A1", "sb", "A3+A1^2", "A1*^2+<1/4>", 2, 2, ()),
    (37, "A4", "s", "A4+A1", "(1/10)[[3,1,-1],[1,7,3],[-1,3,7]]", 3, 0, ()),
    (38, "A4", "b", "A4+A2", "(1/15)[[2,1],[1,8]]", 1, 0, ()),
    (39, "A4", "sb", "A6", "(1/7)[[2,1],[1,4]]", 1, 0, ()),
    (40, "A3", "s", "A3+A1", "A3*+A1*", 7, 1, ()),
    (41, "A3", "b", "A3+A2", "(1/12)[[7,1,2],[1,7,2],[2,2,4]]", 2, 0, ()),
    (42, "A3", "sb", "A5", "A2*+A1*", 4, 1, ()),
    (43, "2A2", "s", "A2^2+A1", "A2*+<1/6>", 3, 0, ()),
    (44, "2A2", "b", "A2^3", "A2*+Z/3Z", 3, 0, ()),
    (45, "2A2", "sb", "A4+A2", "(1/15)[[2,1],[1,8]]", 1, 0, ()),
    (46, "A2+A1", "s", "A2+A1^2",
     "(1/6)[[2,1,0,-1],[1,5,3,1],[0,3,6,3],[-1,1,3,5]]", 6, 0, ()),
    (47, "A2+A1", "b", "A2^2+A1", "A2*+<1/6>", 3, 0, ()),
    (48, "A2+A1", "sb", "A4+A1", "(1/10)[[3,1,-1],[1,7,3],[-1,3,7]]", 3, 0,
     ("tangent line through the A2 point: the fiber at infinity is I5",)),
    (49, "A2+A1", "sb", "A3+A2", "(1/12)[[7,1,2],[1,7,2],[2,2,4]]", 2, 0,
     ("tangent line through the A1 point: the fiber at infinity is I4",
      "deviates from the printed table, whose fiber-root column repeats row 48 "
      "(A4+A1): the Gram data (det MW 1/12, narrow det 12, as in row 41) fits "
      "an A3+A2 frame, and A3+A2 is kept",)),
    (50, "2A1", "s", "A1^3", "D4*+A1*", 13, 1, ()),
    (51, "2A1", "b", "A2+A1^2",
     "(1/6)[[2,1,0,-1],[1,5,3,1],[0,3,6,3],[-1,1,3,5]]", 6, 0, ()),
    (52, "2A1", "sb", "A3+A1", "A3*+A1*", 7, 1,
     ("tangent line through an A1 point: the fiber at infinity is I4",)),
    (53, "A2", "s", "A2+A1", "A5*", 15, 0, ()),
    (54, "A2", "b", "A2^2", "A2*^2", 6, 0, ()),
    (55, "A2", "sb", "A4", "A4*", 10, 0,
     ("tangent line through the A2 point: the fiber at infinity is I5",)),
    (56, "A1", "s", "A1^2", "D6*", 30, 0, ()),
    (57, "A1", "b", "A2+A1", "A5*", 15, 0, ()),
    (58, "A1", "sb", "A3", "D5*", 20, 0,
     ("tangent line through the A1 point: the fiber at infinity is I4",)),
    (59, "0", "s", "A1", "E7*", 63, 0, ()),
    (60, "0", "b", "A2", "E6*", 36, 0, ()),
)

_LABEL = re.compile(r"^(\d*)([ADE]\d+)$")


def parse_ade_multiset(text: str) -> tuple[str, ...]:
    """'2A1' -> ('A1','A1'); 'A4+A1^2' -> ('A1','A1','A4'); '0' -> ()."""
    text = text.replace(" ", "")
    if text in ("0", ""):
        return ()
    out: list[str] = []
    for piece in text.split("+"):
        if "^" in piece:
            piece, pw = piece.split("^")
            out.extend([piece] * int(pw))
            continue
        m = _LABEL.match(piece)
        if not m:
            raise ValueError(f"bad ADE label {piece!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        out.extend([m.group(2)] * mult)
    return tuple(sorted(out))


class TableRow:
    """One row of the table, a frozen value: the columns of `_ROWS`, with the
    two ADE columns parsed, and the Mordell-Weil structure `mw` they name."""

    def __init__(self, row_no: int, sing_type: tuple[str, ...], sing_text: str,
                 line_class: str, fiber_roots: tuple[str, ...], mw_text: str,
                 etc_expected: int, qretc_expected: int, notes: tuple[str, ...]):
        vars(self).update(
            row_no=row_no, sing_type=sing_type, sing_text=sing_text, line_class=line_class,
            fiber_roots=fiber_roots, mw_text=mw_text, etc_expected=etc_expected,
            qretc_expected=qretc_expected, notes=notes,
        )

    def __setattr__(self, *a):
        raise AttributeError("TableRow is immutable")

    def _key(self) -> tuple:
        return tuple(v for k, v in vars(self).items() if k != "mw")  # the columns, not `mw`

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is TableRow else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def mw(self) -> MWStructure:
        """The row's Mordell-Weil structure, parsed from the `mw` column on
        first read; its narrow Gram is derived from the free part."""
        mw_free, torsion = lattice_from_text(self.mw_text)
        try:
            return make_mw_structure(mw_free, torsion)
        except ValueError as exc:
            raise ValueError(f"row {self.row_no}: {exc}") from exc


@lru_cache(maxsize=1)
def builtin_table() -> tuple[TableRow, ...]:
    """All sixty rows.  Only the identity columns are parsed here; each row
    builds its Mordell-Weil structure on the first read of `mw`."""
    return tuple(
        TableRow(no, parse_ade_multiset(xi), xi, cls, parse_ade_multiset(r), mw_text,
                 etc, qretc, tuple(notes))
        for no, xi, cls, r, mw_text, etc, qretc, notes in _ROWS
    )


def row_matching(sing_type: tuple[str, ...], fiber_roots: tuple[str, ...]) -> TableRow | None:
    """The one row whose singularity type and fiber roots are these, or None:
    the key implies the line class, and no two rows share a key."""
    key = (tuple(sorted(sing_type)), tuple(sorted(fiber_roots)))
    return next((r for r in builtin_table() if (r.sing_type, r.fiber_roots) == key), None)


def verify_table(rows: range | None = None) -> list[dict]:
    """Recompute (#ETC, #QRETC) for the requested rows and diff against the
    reference columns; one result record per row."""
    out = []
    for row in builtin_table():
        if rows is not None and row.row_no not in rows:
            continue
        etc = count_etc(row.mw)
        qretc = count_qretc(row.mw)
        out.append(
            {
                "row": row.row_no,
                "sing_type": row.sing_text,
                "line_class": row.line_class,
                "etc": etc,
                "qretc": qretc,
                "etc_expected": row.etc_expected,
                "qretc_expected": row.qretc_expected,
                "ok": etc == row.etc_expected and qretc == row.qretc_expected,
            }
        )
    return out
