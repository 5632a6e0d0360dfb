"""Answer checks that do not rest on the program's own verdicts.

`check(op, result)` returns None when the op's answer is right, and otherwise
a one-line reason.  An op that timed out, raised, exited non-zero or printed a
stream that is not the expected records counts as failed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import sympy as sp

from workloads import REPLAY_COMMON, REPLAY_IDENTITIES, TABLE_REFERENCE, T, U, sym


def records(text: str) -> tuple[dict, dict]:
    """(run record, {result name: result record}) of one records stream."""
    recs = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not recs or recs[0].get("kind") != "run":
        raise ValueError("no run record")
    return recs[0], {r["name"]: r for r in recs[1:] if r.get("kind") == "result"}


def check(op: dict, result: dict) -> str | None:
    if result["status"] != "ok":
        return f"{result['status']}: {result['err'].strip()[-200:]}"
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['err'].strip()[-200:]}"
    try:
        run, res = records(result["out"])
        return _CHECKS[op["kind"]](op, run, res)
    except (ValueError, KeyError, TypeError, sp.SympifyError) as exc:
        return f"malformed output: {exc!r}"


def _example(op, run, res):
    expected = REPLAY_COMMON + REPLAY_IDENTITIES[op["which"]]
    missing = [name for name in expected if name not in res]
    if missing:
        return f"identities missing: {missing}"
    bad = [name for name in expected if res[name].get("ok") is not True]
    if bad or run["status"] != "ok":
        return f"identities not ok: {bad}"
    if res["symbol[conic1]"]["value"]["value"] != 1 or res["symbol[conic2]"]["value"]["value"] != -1:
        return "wrong symbols"
    if res["zariski_verdict"]["value"] != "ZariskiPair":
        return "wrong verdict"
    return None


def _symbol(op, run, res):
    want = op["expect"]["symbol"]
    got = res["symbol"]["value"]
    if got != want:
        return f"symbol {got}, expected {want}"
    if want == -1:
        return None if res["route"]["value"] == "halving-absence" else "-1 without halving-absence"
    if "splitting_certificate" not in res:
        return "+1 without a splitting certificate"
    return certificate_error(op["argv"][1], op["argv"][2], res["splitting_certificate"]["value"])


def certificate_error(quartic: str, conic: str, cert: dict) -> str | None:
    """Re-expand f = (a1*(u - q) + a3)^2 + (u - q + a2)^2 * (u - q) with sympy."""
    f = sym(quartic)
    q = sym(conic.split("=", 1)[1])
    a1, a2, a3 = (sym(cert[k]) for k in ("a1", "a2", "a3"))
    for a, bound in ((a1, 1), (a2, 2), (a3, 3)):
        if a.free_symbols - {T} or sp.degree(a, T) > bound:
            return f"certificate term {a} exceeds degree {bound}"
    rhs = (a1 * (U - q) + a3) ** 2 + (U - q + a2) ** 2 * (U - q)
    if sp.expand(f - rhs) != 0:
        return "splitting certificate does not expand to the quartic"
    return None


def _zariski(op, run, res):
    verdict = res["verdict"]["value"]
    if verdict != op["expect"]["verdict"]:
        return f"verdict {verdict}"
    if (res["symbol1"]["value"], res["symbol2"]["value"]) != (1, -1):
        return "wrong symbols in the verdict"
    return None


def _table(op, run, res):
    rows = {int(name[4:-1]): r["value"] for name, r in res.items() if name.startswith("row[")}
    if sorted(rows) != sorted(TABLE_REFERENCE):
        return f"rows {sorted(rows)}"
    wrong = [no for no, v in rows.items() if (v["etc"], v["qretc"]) != TABLE_REFERENCE[no]]
    if wrong:
        return f"counts differ from the reference in rows {wrong}"
    return None


def _vectors(op, run, res):
    want = op["expect"]["count"]
    vecs = [tuple(v) for v in res["vectors"]["value"]]
    if res["count"]["value"] != want or len(vecs) != want:
        return f"count {res['count']['value']} ({len(vecs)} vectors), theta series gives {want}"
    if len(set(vecs)) != want:
        return "repeated vectors"
    if "gram" in op:
        gram = [[Fraction(x) for x in row] for row in op["gram"]]
        den = math.lcm(*(x.denominator for row in gram for x in row))
        target = Fraction(op["norm"]) * den
        g = np.array([[int(x * den) for x in row] for row in gram], dtype=np.int64)
        v = np.array(vecs, dtype=np.int64).reshape(len(vecs), len(gram))
        if target.denominator != 1 or not (np.einsum("ij,jk,ik->i", v, g, v) == int(target)).all():
            return f"a vector does not have norm {op['norm']}"
    return None


_CHECKS = {
    "example": _example,
    "symbol": _symbol,
    "zariski": _zariski,
    "table": _table,
    "standard": _vectors,
    "skew": _vectors,
}
