"""Command-line front end.

Exit codes: 0 ok, 1 mismatch, 2 input error, 3 internal inconsistency or any
other unexpected error.
Every subcommand supports `--format text|records`; the records output is a
deterministic line-delimited JSON stream.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import mwtable
from .lattice import dual_gram, enumerate_by_norm, lattice_from_text
from .parsing import (
    InputFormatError,
    parse_conic_rhs,
    parse_curve_rhs,
    parse_rational,
    parse_section,
)
from .quartic import (
    Conic,
    PreparedQuartic,
    dihedral_feasibility,
    even_tangency,
    qr_symbol,
    zariski_verdict,
)
from .replay import EXAMPLES, run_example
from .report import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    RunReport,
)
from .surface import (
    InternalInconsistencyError,
    WeierstrassCurve,
    add,
    double,
    halve,
    height_context,
    height_pairing,
    negate,
    on_curve,
    require_on_curve,
)


def _emit(report: RunReport, fmt: str) -> int:
    """Print the report; a reader that closed the pipe early takes no more of
    it, and the run still exits with the report's own code."""
    try:
        print(report.render_records() if fmt == "records" else report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the Python docs (signal module, "Note on SIGPIPE"):
        # point stdout at devnull, so the flush at exit writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
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
        m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", args.rows)
        if m is None:
            raise InputFormatError(f"bad row range {args.rows!r}: expected a or a..b in digits")
        a, b = int(m[1]), int(m[2] or m[1])
        last = len(mwtable.builtin_table())
        if not 1 <= a <= b <= last:
            raise InputFormatError(f"row range {args.rows!r} needs 1 <= a <= b <= {last}")
        rows = range(a, b + 1)
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
        [{"place": p, "multiplicity": m} for p, m in tang.contact],
        ("even_tangency", "squarefree_places"),
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
            ("qr_symbol", "verify_splitting_certificate"),
        )
    return _emit(rep, args.format)


def _cmd_zariski(args) -> int:
    quartic = _quartic(args.quartic)
    c1, c2 = _conic(args.conic1), _conic(args.conic2)
    rep = RunReport(
        command="zariski",
        inputs={"quartic": args.quartic, "conic1": args.conic1, "conic2": args.conic2},
    )
    sym1, sym2 = qr_symbol(quartic, c1), qr_symbol(quartic, c2)
    verdict = zariski_verdict((quartic, sym1), (quartic, sym2))
    rep.add("verdict", verdict.verdict, ("zariski_verdict",))
    rep.add("symbol1", verdict.symbol1, ("qr_symbol",))
    rep.add("symbol2", verdict.symbol2, ("qr_symbol",))
    rep.add(
        "combinatorial_type",
        {
            "sing_type": "+".join(verdict.type1.sing_type) or "smooth",
            "line_class": verdict.type1.line_class,
            "contact": list(verdict.type1.contact_multiset),
        },
        ("zariski_verdict",),
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


# the number of points each `curve` op reads
_CURVE_POINTS = {"check": 1, "add": 2, "double": 1, "negate": 1, "halve": 1, "fibers": 0,
                 "height": 2}


def _cmd_curve(args) -> int:
    """Parse the curve and the op's points, then check the points on the curve
    once, here where they enter; `check` reports that check instead."""
    rep = RunReport(command=f"curve {args.op}", inputs={"curve": args.curve})
    curve = WeierstrassCurve.from_cubic(parse_curve_rhs(args.curve))
    pts = []
    for name in ("p1", "p2")[: _CURVE_POINTS[args.op]]:
        text = getattr(args, name)
        if text is None:
            raise InputFormatError(f"missing point argument {name}")
        pts.append(parse_section(text))
        rep.inputs[name] = text
    if args.op == "check":
        rep.add("on_curve", on_curve(curve, pts[0]), ("on_curve",))
        return _emit(rep, args.format)
    require_on_curve(curve, *pts)
    if args.op == "fibers":
        ctx = height_context(curve)
        for pd in ctx.places:
            rep.add(
                f"fiber[{pd.label}]",
                {"type": pd.kodaira, "components": pd.m_v, "degree": pd.degree,
                 "euler": pd.euler},
                ("height_context", "kodaira_type_at"),
            )
        rep.add("euler_sum", sum(pd.degree * pd.euler for pd in ctx.places), ("height_context",))
    elif args.op == "double":
        rep.add("result", double(curve, *pts), ("double",))
    elif args.op == "negate":
        rep.add("result", negate(curve, *pts), ("negate",))
    elif args.op == "halve":
        half = halve(curve, *pts)
        rep.add("divisible_by_2", half is not None, ("halve",))
        if half is not None:
            rep.add("result", half, ("halve",))
    elif args.op == "add":
        rep.add("result", add(curve, *pts), ("add",))
    else:  # height
        rep.add("height", height_pairing(height_context(curve), *pts), ("height_pairing",))
    return _emit(rep, args.format)


def _cmd_lattice(args) -> int:
    rep = RunReport(command=f"lattice {args.op}", inputs={"lattice": args.lattice})
    lat, torsion = lattice_from_text(args.lattice)
    if torsion:
        raise InputFormatError("torsion factors are not meaningful here")
    if args.op == "dual":
        dual = dual_gram(lat)
        rep.add("gram", dual.gram, ("dual_gram",))
        rep.add("det", dual.det(), ("dual_gram",))
        return _emit(rep, args.format)
    q = Fraction(2)  # `roots` is `enumerate` at norm 2
    if args.op == "enumerate":
        if args.norm is None:
            raise InputFormatError("`lattice enumerate` needs a target norm")
        q = parse_rational(args.norm)
        rep.inputs["norm"] = args.norm
    vecs = enumerate_by_norm(lat, q)
    rep.add("count", len(vecs), ("enumerate_by_norm",))
    rep.add("vectors", vecs, ("enumerate_by_norm",))
    return _emit(rep, args.format)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


class _Positional(NamedTuple):
    name: str
    help: str
    choices: tuple = ()
    optional: bool = False  # may be left out, as may each one after it


class _Option(NamedTuple):
    help: str
    metavar: str = ""  # names the value; an option without one is a flag
    choices: tuple = ()
    default: object = None


class _Command(NamedTuple):
    run: Callable
    help: str
    positionals: tuple = ()
    options: tuple = ()  # (`--name`, _Option), besides --format


_FORMAT = ("--format", _Option("output format (default text)", "text|records",
                               ("text", "records"), "text"))
_QUARTIC = _Positional("quartic", "the quartic: `y^2 = f(t, u)` or the bare f(t, u)")
_CONIC = _Positional("conic", "the conic: `u = q(t)` or the bare q(t)")
_POINT = "a section: `O` or `(x(t), y(t))`"

_COMMANDS = {
    "table": _Command(_cmd_table, "print or verify the 60-row count table", (), (
        ("--verify", _Option("check each row against the paper's counts", default=False)),
        ("--rows", _Option("only rows a to b, or only row a", "a..b")),
    )),
    "example": _Command(_cmd_example, "replay a built-in scenario end to end", (
        _Positional("which", "the worked example", tuple(sorted(EXAMPLES))),
    )),
    "tangency": _Command(_cmd_tangency, "whether the conic is even tangential to the quartic",
                         (_QUARTIC, _CONIC)),
    "symbol": _Command(_cmd_symbol, "the quadratic-residue symbol of the conic mod the quartic",
                       (_QUARTIC, _CONIC)),
    "zariski": _Command(_cmd_zariski, "whether two conics make a Zariski pair with the quartic",
                        (_QUARTIC, _CONIC._replace(name="conic1"),
                         _CONIC._replace(name="conic2"))),
    "feasibility": _Command(_cmd_feasibility, "whether a dihedral cover branched there can exist",
                            (_QUARTIC, _CONIC)),
    "curve": _Command(_cmd_curve, "group law, fibers and heights", (
        _Positional("op", "the operation", tuple(_CURVE_POINTS)),
        _Positional("curve", "the curve: `y^2 = f(t, u)` or the bare f(t, u)"),
        _Positional("p1", _POINT, optional=True),
        _Positional("p2", _POINT, optional=True),
    )),
    "lattice": _Command(_cmd_lattice, "enumerate vectors, roots, duals", (
        _Positional("op", "the operation", ("enumerate", "roots", "dual")),
        _Positional("lattice", "e.g. A5, D4*+A1*, <1/6>, (1/10)[[2,1],[1,3]]"),
        _Positional("norm", "target norm for `enumerate`", optional=True),
    )),
}

_HELP = ("-h", "--help")


def _synopsis(name: str | None) -> str:
    """What follows `mwq` in the usage of the command `name`, or of any."""
    if name is None:
        return "<command> [arguments] [--format text|records]"
    cmd = _COMMANDS[name]
    words = [f"[{p.name}]" if p.optional else p.name for p in cmd.positionals]
    words += [f"[{opt} {o.metavar}]" if o.metavar else f"[{opt}]"
              for opt, o in (*cmd.options, _FORMAT)]
    return " ".join([name, *words])


def _help(name: str | None) -> str:
    """`mwq --help`, or with a name, `mwq <name> --help`."""
    lines = [f"usage: mwq {_synopsis(name)}", ""]
    if name is None:
        lines += ["Mordell-Weil lattice computations for plane quartics and their even",
                  "tangential conics.", "", "commands:"]
        lines += [f"  {_synopsis(each)}\n      {cmd.help}" for each, cmd in _COMMANDS.items()]
        lines += ["", "`mwq <command> --help` describes one command.  After `--`, every",
                  "argument is a positional, also one that starts with `-`."]
        return "\n".join(lines)
    cmd = _COMMANDS[name]
    lines.append(cmd.help)
    if cmd.positionals:
        lines.append("\npositionals:")
    for p in cmd.positionals:
        choices = f" ({', '.join(p.choices)})" if p.choices else ""
        optional = " (may be left out)" if p.optional else ""
        lines.append(f"  {p.name:<9} {p.help}{choices}{optional}")
    lines.append("\noptions:")
    for opt, o in (*cmd.options, _FORMAT):
        lines.append(f"  {f'{opt} {o.metavar}'.strip():<22} {o.help}")
    lines.append(f"  {'-h, --help':<22} print this help")
    return "\n".join(lines)


def _print_help(name: str | None):
    print(_help(name))
    raise SystemExit(0)


def _usage_error(name: str | None, message: str):
    prog = f"mwq {name}" if name else "mwq"
    print(f"usage: mwq {_synopsis(name)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _read_argv(argv: list[str]):
    """The handler of the command argv names, and its arguments as attributes.
    Before `--`, `-h`, `--help` and each argument that starts with `--` is an
    option, taken in full, its value after `=` or in the next argument; every
    other argument is a positional."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            _print_help(None)
        _usage_error(None, f"unknown command {argv[0]!r}" if argv else "a command is required")
    name, rest = argv[0], iter(argv[1:])
    cmd = _COMMANDS[name]
    options = dict((*cmd.options, _FORMAT))
    args = {opt[2:]: o.default for opt, o in options.items()}
    given = []
    for arg in rest:
        if arg == "--":
            given.extend(rest)
            break
        elif arg in _HELP:
            _print_help(name)
        elif arg.startswith("--"):
            opt, eq, value = arg.partition("=")
            o = options.get(opt)
            if o is None:
                _usage_error(name, f"unknown option {opt}")
            if not o.metavar:
                if eq:
                    _usage_error(name, f"option {opt} takes no value")
                value = True
            elif not eq:
                value = next(rest, None)
                if value is None:
                    _usage_error(name, f"option {opt} needs a value: {o.metavar}")
            if o.choices and value not in o.choices:
                _usage_error(name, f"option {opt} takes {' or '.join(o.choices)}, not {value!r}")
            args[opt[2:]] = value
        else:
            given.append(arg)
    spec = cmd.positionals
    for p, value in zip(spec, given):
        if p.choices and value not in p.choices:
            _usage_error(name, f"{p.name} must be one of {', '.join(p.choices)}, not {value!r}")
        args[p.name] = value
    if len(given) > len(spec):
        _usage_error(name, f"unexpected argument {given[len(spec)]!r}")
    missing = [p.name for p in spec[len(given):] if not p.optional]
    if missing:
        _usage_error(name, f"missing {' '.join(missing)}")
    args.update((p.name, None) for p in spec[len(given):])
    return cmd.run, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    run, args = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except ValueError as exc:  # ParseError and InputFormatError too
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # A bug, not a mismatch: exit 3, never the interpreter's exit 1.
        # BaseException (KeyboardInterrupt, SystemExit) still propagates.
        import traceback  # here only: it loads linecache, tokenize and textwrap

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
