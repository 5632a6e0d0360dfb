"""Command-line front end.

Exit codes: 0 ok, 1 mismatch, 2 input error, 3 internal inconsistency or any
other unexpected error.
Every subcommand supports `--format text|records`; the records output is a
deterministic line-delimited JSON stream.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from . import mwtable
from .lattice import dual_gram, enumerate_by_norm, lattice_from_text
from .parsing import (
    InputFormatError,
    parse_conic_rhs,
    parse_curve_rhs,
    parse_section,
)
from .quartic import (
    Conic,
    PreparedQuartic,
    dihedral_feasibility,
    even_tangency,
    qr_symbol,
    zariski_pair_check,
)
from .replay import EXAMPLES, run_example
from .report import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    RunReport,
)
from .surface import (
    INFINITY_PLACE,
    InternalInconsistencyError,
    add,
    double,
    halve,
    height_context,
    height_pairing,
    negate,
    on_curve,
)


def _emit(report: RunReport, fmt: str) -> int:
    print(report.render_records() if fmt == "records" else report.render_text())
    return report.exit_code()


def _quartic(text: str) -> PreparedQuartic:
    return PreparedQuartic(parse_curve_rhs(text))


def _conic(text: str) -> Conic:
    return Conic(parse_conic_rhs(text))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    rows = None
    if args.rows:
        lo, _, hi = args.rows.partition("..")
        rows = range(int(lo), int(hi or lo) + 1)
    report = RunReport(command="table", inputs={"verify": str(bool(args.verify))})
    results = mwtable.verify_table(rows)
    for r in results:
        ok = r["ok"] if args.verify else None
        report.add(
            f"row[{r['row']:02d}]",
            {
                "sing_type": r["sing_type"],
                "line_class": r["line_class"],
                "etc": r["etc"],
                "qretc": r["qretc"],
                **({"etc_expected": r["etc_expected"], "qretc_expected": r["qretc_expected"]}
                   if args.verify else {}),
            },
            ("verify_table", "count_etc", "count_qretc", "enumerate_by_norm"),
            ok=ok,
        )
    matched = sum(1 for r in results if r["ok"])
    report.add("rows_checked", len(results), ("verify_table",))
    if args.verify:
        report.add("rows_matched", matched, ("verify_table",), ok=matched == len(results))
    return _emit(report, args.format)


def _cmd_example(args) -> int:
    return _emit(run_example(args.which), args.format)


def _cmd_tangency(args) -> int:
    quartic = _quartic(args.quartic)
    conic = _conic(args.conic)
    rep = RunReport(command="tangency", inputs={"quartic": args.quartic, "conic": args.conic})
    tang = even_tangency(quartic, conic)
    rep.add("is_even_tangential", tang.is_even_tangential, ("even_tangency",))
    rep.add(
        "contact",
        [
            {"place": p if p == INFINITY_PLACE else p, "multiplicity": m}
            for p, m in tang.contact
        ],
        ("even_tangency", "squarefree_decompose"),
    )
    if tang.sqrt_witness is not None:
        rep.add("sqrt_witness", tang.sqrt_witness, ("is_perfect_square",))
    if tang.note:
        rep.add("note", tang.note, ("even_tangency",))
    return _emit(rep, args.format)


def _cmd_symbol(args) -> int:
    quartic = _quartic(args.quartic)
    conic = _conic(args.conic)
    rep = RunReport(command="symbol", inputs={"quartic": args.quartic, "conic": args.conic})
    sym = qr_symbol(quartic, conic)
    rep.add("symbol", sym.value, ("qr_symbol",))
    rep.add("route", sym.route, ("qr_symbol",))
    if sym.witness_section is not None:
        rep.add("halving_witness", sym.witness_section, ("halve",))
    if sym.witness_certificate is not None:
        cert = sym.witness_certificate
        rep.add(
            "splitting_certificate",
            {"a1": cert.a1, "a2": cert.a2, "a3": cert.a3},
            ("splitting_certificate", "verify_splitting_certificate"),
        )
    return _emit(rep, args.format)


def _cmd_zariski(args) -> int:
    quartic = _quartic(args.quartic)
    c1, c2 = _conic(args.conic1), _conic(args.conic2)
    rep = RunReport(
        command="zariski",
        inputs={"quartic": args.quartic, "conic1": args.conic1, "conic2": args.conic2},
    )
    verdict = zariski_pair_check((quartic, c1), (quartic, c2))
    rep.add("verdict", verdict.verdict, ("zariski_pair_check",))
    rep.add("symbol1", verdict.symbol1, ("qr_symbol",))
    rep.add("symbol2", verdict.symbol2, ("qr_symbol",))
    rep.add(
        "combinatorial_type",
        {
            "sing_type": "+".join(verdict.type1.sing_type) or "smooth",
            "line_class": verdict.type1.line_class,
            "contact": list(verdict.type1.contact_multiset),
        },
        ("combinatorial_type",),
    )
    return _emit(rep, args.format)


def _cmd_feasibility(args) -> int:
    quartic = _quartic(args.quartic)
    conic = _conic(args.conic)
    rep = RunReport(command="feasibility", inputs={"quartic": args.quartic, "conic": args.conic})
    fea = dihedral_feasibility(quartic, conic)
    rep.add("symbol", fea.symbol.value, ("qr_symbol",))
    rep.add("sing_type", "+".join(fea.sing_type) or "smooth", ("singular_configuration",))
    rep.add("verdict", fea.verdict, ("dihedral_feasibility",))
    rep.add("detail", fea.detail, ("dihedral_feasibility",))
    return _emit(rep, args.format)


def _curve_and_points(args, n_points: int):
    from .poly import UNIPOLY_ONE
    from .surface import WeierstrassCurve

    f = parse_curve_rhs(args.curve)
    if f.degree_u != 3 or f.coeff_u(3) != UNIPOLY_ONE:
        raise InputFormatError("curve must be monic cubic in u")
    curve = WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))
    pts = []
    for i in range(n_points):
        text = getattr(args, f"p{i + 1}")
        if text is None:
            raise InputFormatError(f"missing point argument p{i + 1}")
        pts.append(parse_section(text))
    return curve, pts


def _cmd_curve(args) -> int:
    rep = RunReport(command=f"curve {args.op}", inputs={"curve": args.curve})
    if args.op == "fibers":
        ctx = height_context(_curve_and_points(args, 0)[0])
        for pd in ctx.places:
            rep.add(
                f"fiber[{pd.label.replace(' ', '')}]",
                {"type": pd.kodaira, "components": pd.m_v, "degree": pd.degree,
                 "euler": pd.euler},
                ("height_context", "kodaira_type_at"),
            )
        rep.add("euler_sum", sum(pd.degree * pd.euler for pd in ctx.places), ("height_context",))
        return _emit(rep, args.format)
    if args.op == "check":
        curve, (p,) = _curve_and_points(args, 1)
        rep.inputs["p1"] = args.p1
        rep.add("on_curve", on_curve(curve, p), ("on_curve",))
        return _emit(rep, args.format)
    if args.op in ("double", "negate", "halve"):
        curve, (p,) = _curve_and_points(args, 1)
        rep.inputs["p1"] = args.p1
        if args.op == "double":
            rep.add("result", double(curve, p), ("double",))
        elif args.op == "negate":
            rep.add("result", negate(curve, p), ("negate",))
        else:
            half = halve(curve, p)
            rep.add("divisible_by_2", half is not None, ("halve",))
            if half is not None:
                rep.add("result", half, ("halve",))
        return _emit(rep, args.format)
    if args.op == "add":
        curve, (p, q) = _curve_and_points(args, 2)
        rep.inputs.update({"p1": args.p1, "p2": args.p2})
        rep.add("result", add(curve, p, q), ("add",))
        return _emit(rep, args.format)
    if args.op == "height":
        curve, (p, q) = _curve_and_points(args, 2)
        rep.inputs.update({"p1": args.p1, "p2": args.p2})
        ctx = height_context(curve)
        manual = {}
        for spec in args.component or []:
            place_label, _, idx = spec.partition("=")
            targets = [p, q]
            if ":" in place_label:
                which, _, place_label = place_label.partition(":")
                targets = [p] if which == "p1" else [q]
            places = [pd.place for pd in ctx.places
                      if pd.label.replace(" ", "") == place_label.replace(" ", "")]
            if not places:
                raise InputFormatError(f"no bad place labelled {place_label!r}")
            manual.update({(place, sec): int(idx) for place in places for sec in targets})
        rep.add("height", height_pairing(ctx, p, q, manual),
                ("height_pairing", "corr_v", "component_of"))
        return _emit(rep, args.format)
    raise InputFormatError(f"unknown curve operation {args.op!r}")


def _cmd_lattice(args) -> int:
    rep = RunReport(command=f"lattice {args.op}", inputs={"lattice": args.lattice})
    lat, torsion = lattice_from_text(args.lattice)
    if torsion:
        raise InputFormatError("torsion factors are not meaningful here")
    if args.op == "enumerate":
        if args.norm is None:
            raise InputFormatError("`lattice enumerate` needs a target norm")
        try:
            q = Fraction(args.norm)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad norm {args.norm!r}: {exc}") from exc
        rep.inputs["norm"] = args.norm
        vecs = enumerate_by_norm(lat, q)
        rep.add("count", len(vecs), ("enumerate_by_norm",))
        rep.add("vectors", [list(v) for v in vecs], ("enumerate_by_norm",))
    elif args.op == "roots":
        vecs = enumerate_by_norm(lat, Fraction(2)) if lat.rank else []
        rep.add("count", len(vecs), ("enumerate_by_norm",))
        rep.add("vectors", [list(v) for v in vecs], ("enumerate_by_norm",))
    elif args.op == "dual":
        dual = dual_gram(lat)
        rep.add("gram", [[x for x in row] for row in dual.gram], ("dual_gram",))
        rep.add("det", dual.det(), ("dual_gram",))
    else:
        raise InputFormatError(f"unknown lattice operation {args.op!r}")
    return _emit(rep, args.format)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mwq",
        description="Mordell-Weil lattice computations for plane quartics and "
        "their even tangential conics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def with_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text")
        return p

    p = with_format(sub.add_parser("table", help="print or verify the 60-row count table"))
    p.add_argument("--verify", action="store_true")
    p.add_argument("--rows", help="row range a..b")
    p.set_defaults(func=_cmd_table)

    p = with_format(sub.add_parser("example", help="replay a built-in scenario end to end"))
    p.add_argument("which", choices=sorted(EXAMPLES))
    p.set_defaults(func=_cmd_example)

    for name, func, extra in (
        ("tangency", _cmd_tangency, ["conic"]),
        ("symbol", _cmd_symbol, ["conic"]),
        ("zariski", _cmd_zariski, ["conic1", "conic2"]),
        ("feasibility", _cmd_feasibility, ["conic"]),
    ):
        p = with_format(sub.add_parser(name))
        p.add_argument("quartic")
        for arg in extra:
            p.add_argument(arg)
        p.set_defaults(func=func)

    p = with_format(sub.add_parser("curve", help="group law, fibers and heights"))
    p.add_argument("op", choices=("check", "add", "double", "negate", "halve", "fibers", "height"))
    p.add_argument("curve")
    p.add_argument("p1", nargs="?")
    p.add_argument("p2", nargs="?")
    p.add_argument("--component", action="append", metavar="[pK:]place=idx",
                   help="manual component assignment for the height computation")
    p.set_defaults(func=_cmd_curve)

    p = with_format(sub.add_parser("lattice", help="enumerate vectors, roots, duals"))
    p.add_argument("op", choices=("enumerate", "roots", "dual"))
    p.add_argument("lattice", help="e.g. A5, D4*+A1*, <1/6>, (1/10)[[2,1],[1,3]]")
    p.add_argument("norm", nargs="?", help="target norm for `enumerate`")
    p.set_defaults(func=_cmd_lattice)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError, InputFormatError and NeedsManual* too
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # A bug, not a mismatch: exit 3, never the interpreter's exit 1.
        # BaseException (KeyboardInterrupt, SystemExit) still propagates.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
